"""The three benchmark workloads, generated from a seed with multicolor.adversary
and written as instance files plus a manifest with harness.save_instance.

hex-large          one hexagonal instance, V=200, n=2000, run with fpa and hex43
bip-cancel-large   one bipartite instance with cancellations, V=200, n=2000,
                   mean degree about 6, run with greedy_cancel
small-exact-batch  the scripts/run_benchmarks.py corpus at 400 seeds: every
                   player on graphs of at most 17 nodes (2827 runs)

The large workloads draw their instance from the seed.  They are half the
V=400, n=4000 size of the ROADMAP baseline, with the same requests per node
and mean degree.  At full size one batch takes 20-25 s on a 2-CPU Xeon, so a
10 s run could time only a single batch, and ten runs of each workload took
about 15 minutes.

small-exact-batch keeps the corpus fixed at random seeds 0..399, and the seed
only shuffles the order of its instances.  Exact-search cost is heavy-tailed:
corpora drawn from ten other seed ranges took 4.4 to 9.2 s per batch.  The
fixed corpus also keeps its known hex43 failures (seeds 39, 87, 318) in every
run.
"""

from __future__ import annotations

import json
import os
import random

from multicolor import adversary, harness

WORKLOADS = ("hex-large", "bip-cancel-large", "small-exact-batch")


def _hex_large(seed):
    instance = adversary.random_instance("hexagonal", seed=seed, n_nodes=200,
                                         n_requests=2000, grid_extent=17)
    return [(instance, ["fpa", "hex43"])]


def _bip_cancel_large(seed):
    instance = adversary.random_cancel_instance(seed=seed, n_nodes=200, n_requests=2000,
                                                edge_density=0.06)
    return [(instance, ["greedy_cancel"])]


def _small_exact_batch(seed):
    """Same composition as scripts/run_benchmarks.py --seeds 400, with the
    instance order shuffled by seed."""
    bipartite_algos = ["greedy_opt", "greedy_truncated", "trivial"]
    hex_algos = ["fpa", "hex43", "trivial"]
    out = [(adversary.path_family(40)[i], bipartite_algos) for i in (0, 2, 5, 10)]
    out += [(adversary.hex_chain(k, branch), hex_algos)
            for k, branch in [(1, (0,)), (1, (1,)), (3, (1, 0, 1))]]
    out += [(adversary.hex_54(p, 1), hex_algos) for p in (4, 8)]
    for s in range(400):
        out.append((adversary.random_instance("bipartite", seed=s, n_nodes=8,
                                              n_requests=24), bipartite_algos))
        out.append((adversary.random_instance("hexagonal", seed=s, n_nodes=10,
                                              n_requests=30), hex_algos))
        out.append((adversary.random_cancel_instance(seed=s), ["greedy_cancel"]))
    random.Random(seed).shuffle(out)
    return out


_BUILDERS = {
    "hex-large": _hex_large,
    "bip-cancel-large": _bip_cancel_large,
    "small-exact-batch": _small_exact_batch,
}


def generate(workload: str, seed: int, out_dir: str) -> str:
    """Write the workload's instances and manifest.json under out_dir;
    returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for instance, algos in _BUILDERS[workload](seed):
        path = f"{instance.name}.json"
        harness.save_instance(instance, os.path.join(out_dir, path))
        for algo in algos:
            entry = {"instance": path, "algo": algo}
            if algo == "greedy_truncated":
                entry["b"] = 3
            runs.append(entry)
    manifest = os.path.join(out_dir, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"runs": runs}, fh, indent=2)
    return manifest
