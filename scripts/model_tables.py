#!/usr/bin/env python3
"""Recompute the graded Betti tables of all the model polygons.

Prints each table in the standard ASCII layout together with wall-clock
time and which entries are exact versus mod-p only.  The stretch model
(the five-fold standard triangle) is included unless --quick is given.
"""
import argparse
import time

from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import DEFAULT_PRIME, ComputeBudget
from polybetti.polygon import named_polygon
from polybetti.scope import call_scope, clear
from polybetti.table import render_ascii

MODELS = ["Sigma", "Upsilon", "2*Sigma", "Upsilon_2", "3*Sigma",
          "2*Upsilon", "Upsilon_3", "4*Sigma", "Upsilon_4"]
STRETCH = ["5*Sigma"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    ap.add_argument("--quick", action="store_true",
                    help="skip the largest model")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    budget = ComputeBudget(max_workers=args.workers) if args.workers \
        else ComputeBudget()
    options = EngineOptions(budget=budget)
    names = MODELS if args.quick else MODELS + STRETCH
    grand = time.time()
    with call_scope():      # one pool serves every model
        for name in names:
            clear()         # and the caches hold one model at a time
            poly = named_polygon(name)
            t0 = time.time()
            table = betti_table(poly, args.prime, options)
            dt = time.time() - t0
            modular = sum(1 for r in table.b_rigorous + table.c_rigorous
                          if not r)
            print(f"{name}  (n = {table.n}, {dt:.2f}s, "
                  f"{modular} mod-p-only entries)")
            print(render_ascii(table))
    print(f"total {time.time() - grand:.2f}s")


if __name__ == "__main__":
    main()
