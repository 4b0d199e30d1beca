"""Regenerate perfbench/reference.json, the frozen outputs the benchmark
checks every item against.

    python3 perfbench/freeze.py

Run from the repository root.  It records, as the package computes them
now, the tables of 5*Sigma and Upsilon_4 (and of Upsilon_3 for smoke
runs), every table of the sweep's polygon classes and every verify_kp1
report of the campaign's, each in its plain embedding.  Any polygon
equivalent to a model of tests/conftest.py must match that frozen
table, or nothing is written.  Freeze only from a commit whose tables
are trusted: the benchmark then treats any change as a failure.
"""
from __future__ import annotations

import json
import os
import sys

from child import kp1_record, table_record
from workloads import WORKLOADS


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "tests"))
    from conftest import REFERENCE_TABLES
    from polybetti import corpus, engine, linalg, polygon

    prime = linalg.PrimeModulus(40009)
    models = {engine.polygon_key(polygon.named_polygon(name)): (name, b, c)
              for name, (b, c) in REFERENCE_TABLES.items()}
    ref: dict[str, list] = {}
    mismatches = []
    for wl, smoke in [(WORKLOADS["big-table"], False),
                      (WORKLOADS["big-table"], True),
                      (WORKLOADS["sweep"], False),
                      (WORKLOADS["campaign"], False)]:
        options = engine.EngineOptions(
            budget=linalg.ComputeBudget(max_workers=wl.workers()))
        out = ref[wl.reference_key(smoke)] = []
        for poly in wl.base(corpus, polygon, smoke):
            if wl.kind == "kp1":
                out.append(kp1_record(engine.verify_kp1(poly, prime,
                                                        options)))
                continue
            table = engine.betti_table(poly, prime, options)
            out.append(table_record(table))
            model = models.get(engine.polygon_key(poly))
            if model and (table.b, table.c) != model[1:]:
                mismatches.append(f"{model[0]}: {table.b} {table.c}")
        print(f"froze {wl.reference_key(smoke)}: {len(out)} outputs",
              file=sys.stderr)
    if mismatches:
        print("tables differ from tests/conftest.py:", *mismatches,
              sep="\n  ", file=sys.stderr)
        return 1
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
