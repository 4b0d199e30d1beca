#!/usr/bin/env python3
"""Check that memory stays flat over many tables in one process.

Computes the tables of build_corpus(5, COUNT, n_min=8, n_max=14) one
after another at one worker, and prints the process's peak RSS
(ru_maxrss) after every 100 of them.  Exits 1 when the peak after the
last table exceeds the peak after the first 100 by more than 1 MB: the
per-polygon caches end with the call that filled them, so a long run
must not grow with the number of polygons it has seen.
"""
import argparse
import resource
import sys
import time

from polybetti.corpus import build_corpus
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import DEFAULT_PRIME, ComputeBudget

EVERY = 100
SLACK_MB = 1.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300,
                    help="tables to compute, a multiple of 100 above 100")
    args = ap.parse_args()
    if args.count <= EVERY or args.count % EVERY:
        ap.error("--count must be a multiple of 100 above 100")

    options = EngineOptions(budget=ComputeBudget(max_workers=1))
    polys = build_corpus(5, args.count, n_min=8, n_max=14)
    marks = {}
    t0 = time.time()
    for i, poly in enumerate(polys, 1):
        betti_table(poly, DEFAULT_PRIME, options)
        if i % EVERY == 0:
            marks[i] = peak_rss_mb()
            print(f"after {i} tables: peak RSS {marks[i]:.2f} MB "
                  f"({time.time() - t0:.1f}s)")
    growth = marks[args.count] - marks[EVERY]
    print(f"growth after table {EVERY}: {growth:.2f} MB "
          f"(allowed {SLACK_MB:.2f} MB)")
    return 1 if growth > SLACK_MB else 0


if __name__ == "__main__":
    sys.exit(main())
