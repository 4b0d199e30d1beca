#!/usr/bin/env python3
"""Run the first-vanishing campaign over the built-in polygon corpus.

For every polygon this probes the row-one entries around the predicted
first zero and reports the verdict, without computing full tables.
Deterministic in the seed.  For a resumable run over polygon files on
disk, use the CLI command ``polybetti verify-kp1 --checkpoint`` instead.
"""
import argparse
import time
from collections import Counter

from polybetti.corpus import kp1_corpus
from polybetti.engine import EngineOptions, verify_kp1
from polybetti.linalg import ComputeBudget, PrimeModulus, worker_pool


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=40009)
    ap.add_argument("--seed", type=int, default=2028)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--n-max", type=int, default=14)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    prime = PrimeModulus(args.prime)
    budget = ComputeBudget(max_workers=args.workers) if args.workers \
        else ComputeBudget()
    options = EngineOptions(budget=budget)
    polys = kp1_corpus(seed=args.seed, count=args.count, n_max=args.n_max)
    verdicts: Counter[str] = Counter()
    t0 = time.time()
    with worker_pool(budget):
        for poly in polys:
            t1 = time.time()
            rep = verify_kp1(poly, prime, options)
            verdicts[rep.verdict] += 1
            probes = "  ".join(
                f"b[{t}]={v}{'' if exact else '*'}"
                for t, (v, exact) in sorted(rep.entries.items()))
            print(f"n={rep.n:3d} width={rep.lattice_width} "
                  f"first_zero={rep.first_zero_index:3d} "
                  f"{rep.verdict:8s} {probes}  ({time.time() - t1:.2f}s)")
    print(f"{len(polys)} polygons in {time.time() - t0:.1f}s: "
          + "  ".join(f"{k}={v}" for k, v in sorted(verdicts.items())))
    print("zeros are exact in every characteristic; starred values are "
          "mod-p and may exceed the characteristic-zero entry")


if __name__ == "__main__":
    main()
