#!/usr/bin/env python3
"""Measure the advice-bits vs. competitive-ratio trade-off of the truncated
optimum player: for each truncation width b, report the worst observed strict
ratio and the exact bits read over a seeded bipartite corpus.

Exits 1 if a run is invalid, reads more bits than its declared advice bound,
or if a worst ratio exceeds the printed guarantee 1 + 2^(1-b).

Usage: python3 scripts/truncation_tradeoff.py [--instances 200] [--max-b 8]
"""

import argparse

from multicolor.adversary import random_instance
from multicolor.harness import run
from multicolor.oracle import Optimum


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--max-b", type=int, default=8)
    args = parser.parse_args()

    corpus = [
        random_instance("bipartite", seed=seed, n_nodes=8, n_requests=30)
        for seed in range(args.instances)
    ]
    optima = [Optimum(inst) for inst in corpus]  # shared across b

    failures = 0
    print(f"{'b':>3} {'guarantee':>10} {'worst ratio':>12} {'max bits':>9}")
    for b in range(1, args.max_b + 1):
        guarantee = 1 + 1 / 2 ** (b - 1)
        worst, bits = 1.0, 0
        for inst, optimum in zip(corpus, optima):
            report = run(inst, "greedy_truncated", b=b, optimum=optimum)
            if not report.ok:
                failures += 1
                print(f"FAIL {inst.name} b={b}: valid={report.valid}, "
                      f"{report.advice_bits_read} bits of {report.advice_bound}")
            if report.strict_ratio is not None:
                worst = max(worst, report.strict_ratio)
            bits = max(bits, report.advice_bits_read)
        print(f"{b:>3} {guarantee:>10.4f} {worst:>12.4f} {bits:>9}")
        if worst > guarantee:
            failures += 1
            print(f"FAIL b={b}: worst ratio {worst:.4f} above the guarantee {guarantee:.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
