#!/usr/bin/env python3
"""Run the cross-check battery and print a timing table.

Usage: run_corpus.py [--only SUBSTRING] [--seed N]
"""

import argparse
import sys

from rayleigh_forge.corpus import run_corpus
from rayleigh_forge.prng import DEFAULT_SEED


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", default=None)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    args = ap.parse_args()
    results = run_corpus(only=args.only, seed=args.seed)
    width = max((len(r.name) for r in results), default=10)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    total = sum(r.seconds for r in results)
    print(f"total {total:.1f}s across {len(results)} items")
    return 0 if results and all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
