"""One pass of a workload in a fresh interpreter, as a CLI user's run is.

Run from the checkout root by run.py:

    python3 perfbench/child.py --workload sweep --seed 11 --out FILE
        [--trace --spans-dir DIR] [--smoke]

It imports the package from ./src and builds PrimeModulus(40009); the
monotonic time at which that set-up finished goes into the JSON record
written to --out, so that the parent can time set-up from before it
started this interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import checks
from workloads import WORKLOADS


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _vkey(poly) -> str:
    return ";".join(f"{x},{y}" for x, y in poly.vertices)


def table_record(table) -> dict:
    return {"b": list(table.b), "c": list(table.c),
            "b_rigorous": list(table.b_rigorous),
            "c_rigorous": list(table.c_rigorous),
            "b_provenance": list(table.b_provenance),
            "c_provenance": list(table.c_provenance)}


def kp1_record(report) -> dict:
    return {"verdict": report.verdict,
            "entries": {str(t): [v, ex]
                        for t, (v, ex) in sorted(report.entries.items())}}


def check_item(kind: str, ref: dict, poly, out) -> list[str]:
    """Closed-form invariants, then the frozen output of the polygon's
    class; a unimodular embedding leaves both unchanged."""
    if kind == "kp1":
        return (checks.kp1_invariants(poly.vertices, out)
                + checks.compare_table(ref, kp1_record(out)))
    got = table_record(out)
    return (checks.table_invariants(poly.vertices, got["b"], got["c"],
                                    got["b_rigorous"], got["c_rigorous"])
            + checks.compare_table(ref, got))


def uncertified(kind: str, out) -> int:
    """Entries that are nonzero and not exact in characteristic zero."""
    if kind == "kp1":
        return sum(1 for v, exact in out.entries.values() if v and not exact)
    return sum(1 for v, r in zip(out.b + out.c,
                                 out.b_rigorous + out.c_rigorous)
               if v and not r)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-dir")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from polybetti import corpus, engine, linalg, polygon
    prime = linalg.PrimeModulus(40009)
    setup_done = time.monotonic()

    import multiprocessing

    import numpy
    import sympy
    here = os.path.dirname(os.path.abspath(__file__))
    wl = WORKLOADS[args.workload]
    with open(os.path.join(here, "reference.json")) as fh:
        refs = json.load(fh)[wl.reference_key(args.smoke)]
    options = engine.EngineOptions(
        budget=linalg.ComputeBudget(max_workers=wl.workers()))
    modules = {"engine": engine, "linalg": linalg, "corpus": corpus}

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(args.spans_dir)
        tracer.install(modules)
        wrapped = tracer_mod.installed(modules)
    else:
        # the tracer module is never imported by a timed pass
        wrapped = ["tracer"] if "tracer" in sys.modules else []

    def check(*a):
        if tracer is None:
            return check_item(wl.kind, *a)
        return tracer.run("bench.check", check_item, (wl.kind, *a))

    items = []
    failures = []
    n_uncertified = 0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    polys = wl.inputs(corpus, polygon, args.seed, args.smoke)
    if len(polys) > len(refs):
        raise SystemExit(f"reference.json holds {len(refs)} outputs for "
                         f"{len(polys)} polygons")
    call = engine.verify_kp1 if wl.kind == "kp1" else engine.betti_table
    for ref, poly in zip(refs, polys):
        t1 = time.perf_counter()
        try:
            out = call(poly, prime, options)
            dt = time.perf_counter() - t1
            problems = check(ref, poly, out)
            n_uncertified += uncertified(wl.kind, out)
        except Exception:
            dt = time.perf_counter() - t1
            problems = [traceback.format_exc(limit=3)]
        items.append(dt)
        if problems:
            failures.append({"polygon": _vkey(poly), "problems": problems})
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_self_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_children_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "items": items,
        "failures": failures,
        "uncertified_entries": n_uncertified,
        "wrapped": wrapped,
        "env": {"workers": wl.workers(),
                "start_method": multiprocessing.get_start_method(),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__, "sympy": sympy.__version__},
    }
    if tracer is not None:
        result["trace"] = {"stats": tracer.stats, "counts": tracer.counts,
                           "batches": tracer.batches,
                           "workers": tracer.collect_workers()}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
