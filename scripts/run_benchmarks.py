#!/usr/bin/env python3
"""Generate a reference corpus and run every applicable algorithm on it,
writing the instances and a CSV report under an output directory.

Usage: python3 scripts/run_benchmarks.py --out bench_out [--seeds 25]
"""

import argparse
import json
import os

from multicolor import adversary, harness


def build_corpus(out_dir, seeds):
    runs = []

    def add(instance, algos):
        path = f"{instance.name}.json"
        harness.save_instance(instance, os.path.join(out_dir, path))
        for algo in algos:
            entry = {"instance": path, "algo": algo}
            if algo == "greedy_truncated":
                entry["b"] = 3
            runs.append(entry)

    bipartite_algos = ["greedy_opt", "greedy_truncated", "trivial"]
    hex_algos = ["fpa", "hex43", "trivial"]

    for i in (0, 2, 5, 10):
        add(adversary.path_family(40)[i], bipartite_algos)
    for k, branch in [(1, (0,)), (1, (1,)), (3, (1, 0, 1))]:
        add(adversary.hex_chain(k, branch), hex_algos)
    for p in (4, 8):
        add(adversary.hex_54(p, 1), hex_algos)
    for seed in range(seeds):
        add(adversary.random_instance("bipartite", seed=seed,
                                      n_nodes=8, n_requests=24), bipartite_algos)
        add(adversary.random_instance("hexagonal", seed=seed,
                                      n_nodes=10, n_requests=30), hex_algos)
        add(adversary.random_cancel_instance(seed=seed), ["greedy_cancel"])
    return {"runs": runs}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_out")
    parser.add_argument("--seeds", type=int, default=25,
                        help="random instances per graph kind")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    manifest = build_corpus(args.out, args.seeds)
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)

    report_path = os.path.join(args.out, "report.csv")
    with open(report_path, "w") as fh:
        all_ok = harness.batch(manifest, fh, base_dir=args.out)
    print(f"{len(manifest['runs'])} runs -> {report_path} "
          f"({'all valid and within advice and color bounds' if all_ok else 'FAILURES present'})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
