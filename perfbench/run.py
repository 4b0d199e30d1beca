"""polybetti benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload big-table|sweep|campaign \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from ./src.
Each pass runs in a fresh interpreter (perfbench/child.py), so caches
start cold as in a CLI run.  Passes repeat while another one still fits
in --seconds, with at least three.  Set-up is timed in every pass and
reported as a median.  Times of passes and of items are taken over the
passes by the workload's pass statistic: the best pass where passes are
long and few, the median where they are short and many (see
workloads.py and README.md).

With --trace 0 the passes are untraced and the last line of standard
output carries the end-to-end metrics.  With --trace 1 untraced and
traced passes alternate, with at least two traced ones so that the
exact counts can be compared, and the last line carries the per-layer
metrics.
Every run writes its full record to perfbench/out/.  --smoke runs tiny
inputs, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, nproc  # noqa: E402

RUN_LIMIT_S = 170          # the whole run must end well inside 180 s
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB", "worker_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "koszul.assembly_s": "s", "koszul.blocks": "count",
    "koszul.cols": "count", "koszul.nnz": "count",
    "linalg.sparse_s": "s", "linalg.sparse_pivots": "count",
    "linalg.dense_s": "s", "linalg.dense_calls": "count",
    "linalg.dense_cells": "count", "linalg.dense_madd_est": "count",
    "linalg.transport_s": "s", "linalg.pools": "count",
    "linalg.tasks": "count", "linalg.pickled_bytes": "B",
    "linalg.worker_busy_s": "s", "linalg.pool_efficiency": "ratio",
    "linalg.worker_pids": "count",
    "engine.plan_s": "s", "engine.closure_s": "s",
    "polygon.symmetry_s": "s", "engine.uncertified_entries": "count",
    "trace.overhead_frac": "ratio", "trace.coverage": "ratio",
}
# counts a later claim may rest on: they must repeat exactly
STEADY_COUNTS = ["koszul.blocks", "koszul.nnz", "linalg.sparse_pivots",
                 "linalg.dense_cells", "linalg.pools",
                 "linalg.pickled_bytes", "engine.uncertified_entries"]
PLAN_SPANS = ["engine.plan_strategy", "engine.effective_plans",
              "engine.peak_block", "engine.middle_profile"]
CLOSURE_SPANS = ["engine.betti_table", "engine.verify_kp1",
                 "engine.resolve_entry_b", "engine.strand_value"]


class PassFailed(RuntimeError):
    pass


def run_child(root: str, out_dir: str, tag: str, args, deadline: float,
              *, trace: bool = False) -> dict:
    """Start one interpreter for a pass; returns its record plus the
    set-up time measured from just before the interpreter started."""
    out = os.path.join(out_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    spans_dir = None
    if trace:
        spans_dir = os.path.join(out_dir, f"{tag}-spans")
        os.makedirs(spans_dir)
        cmd += ["--trace", "--spans-dir", spans_dir]
    env = {k: v for k, v in os.environ.items() if k != "BETTI_WORKERS"}
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {tag} did not finish in time")
    finally:
        if proc.poll() is None:
            # the pass and its pool workers share a process group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise PassFailed(f"pass {tag} exited with code {code}")
    with open(out) as fh:
        rec = json.load(fh)
    os.remove(out)
    if spans_dir:
        shutil.rmtree(spans_dir)
    rec["setup_s"] = rec["setup_done"] - t_spawn
    return rec


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  With a
    few dozen items the plain order statistic jumps across gaps in the
    item-time distribution when two neighbours swap; this one moves
    with all of the items near the quantile."""
    s = sorted(samples)
    n = len(s)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64        # midpoint rule on each order statistic's interval
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(logc + (a - 1) * math.log(x)
                                    + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it,
    estimated by hd_quantile; the maximum when there are fewer than
    eleven samples."""
    n = len(samples)
    if n <= 10:
        return {"value": max(samples), "percentile": 100, "samples": n,
                "beyond": 0}
    pct = math.floor(100 * (1 - 10 / n))
    # samples beyond the nearest-rank percentile
    beyond = n - math.ceil(pct / 100 * n)
    return {"value": hd_quantile(samples, pct / 100), "percentile": pct,
            "samples": n, "beyond": beyond}


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(passes: list[dict], pooled: bool, over) -> tuple[dict,
                                                               dict]:
    """Every pass runs the same items: an item's time is `over` its
    times in the passes, and the median and tail over items are taken
    by hd_quantile.  Pass times are `over` the passes too."""
    med = statistics.median
    items = [over(ts) for ts in zip(*(p["items"] for p in passes))]
    tl = tail(items)
    # a serial pass ranks in its own process, which is then its worker
    worker_rss = [p["rss_children_mb"] if pooled else p["rss_self_mb"]
                  for p in passes]
    return {
        "setup_s": med(p["setup_s"] for p in passes),
        "wall_s": over(p["wall_s"] for p in passes),
        "item_p50_s": hd_quantile(items, 0.5),
        "item_tail_s": tl["value"],
        "cpu_s": over(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(p["rss_self_mb"] for p in passes),
        "worker_rss_mb": med(worker_rss),
    }, tl


def per_layer(rec: dict) -> tuple[dict, dict]:
    """Layer metrics of one traced pass, worker spans included, and the
    per-span calls, total and self seconds they came from."""
    tr = rec["trace"]
    stats: dict[str, list] = {}
    counts = dict(tr["counts"])
    for doc in [{"stats": tr["stats"]}] + tr["workers"]:
        for name, (calls, total, self_s) in doc["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
    for doc in tr["workers"]:
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def self_of(*names):
        return sum(stats[n][2] for n in names if n in stats)

    batch_capacity = sum(w * wall for w, wall in tr["batches"])
    busy = stats.get("linalg.rank", [0, 0.0, 0.0])[1]
    parent_self = sum(st[2] for st in tr["stats"].values())
    m = {
        "koszul.assembly_s": self_of("koszul.coboundary_matrix"),
        "linalg.sparse_s": self_of("linalg.rank"),
        "linalg.dense_s": self_of("linalg.dense_rank_mod"),
        "linalg.transport_s": sum(wall for _, wall in tr["batches"]),
        "linalg.worker_busy_s": busy,
        "linalg.pool_efficiency": busy / batch_capacity
        if batch_capacity else 0.0,
        "linalg.worker_pids": len(tr["workers"]),
        "engine.plan_s": self_of(*PLAN_SPANS),
        "engine.closure_s": self_of(*CLOSURE_SPANS),
        "polygon.symmetry_s": self_of("polygon.symmetry_group"),
        "engine.uncertified_entries": rec["uncertified_entries"],
        "trace.coverage": parent_self / rec["wall_s"],
    }
    for key in ["koszul.blocks", "koszul.cols", "koszul.nnz",
                "linalg.sparse_pivots", "linalg.dense_calls",
                "linalg.dense_cells", "linalg.dense_madd_est",
                "linalg.pools", "linalg.tasks", "linalg.pickled_bytes"]:
        m[key] = counts.get(key, 0)
    layers = {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
              for name, st in sorted(stats.items())}
    return m, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()
    # a terminated run still stops its passes (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polybetti",
                                       "__init__.py")):
        print("perfbench: run from a checkout root holding src/polybetti",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}")
    pass_dir = os.path.join(out_dir, f"{stem}-{os.getpid()}")
    os.makedirs(pass_dir)

    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            # a trace run alternates untraced and traced passes, so that
            # drift in machine speed hits both sides of the overhead
            want_trace = bool(args.trace) and len(untraced) > len(traced)
            tag = f"pass{len(untraced) + len(traced)}"
            rec = run_child(root, pass_dir, tag, args, deadline,
                            trace=want_trace)
            (traced if want_trace else untraced).append(rec)
            elapsed = time.monotonic() - start
            if len(untraced) + len(traced) < MIN_PASSES or \
                    (args.trace and len(traced) < 2):
                continue
            if elapsed + rec["wall_s"] + rec["setup_s"] > args.seconds:
                break
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = []
    if len({p["uncertified_entries"] for p in passes}) > 1:
        problems.append("uncertified_entries differ between passes")
    leaked = [w for p in untraced for w in p["wrapped"]]
    if leaked:
        problems.append(f"tracer present in a timed pass: {leaked}")
    pooled = wl.workers() > 1
    fell_back = pooled and any(p["rss_children_mb"] == 0 for p in untraced)

    e2e, tl = end_to_end(
        untraced, pooled, min if wl.pass_stat == "best" else
        statistics.median)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "env": dict(untraced[0]["env"], git_sha=git_sha(root),
                    nproc=nproc()),
        "pass_stat": wl.pass_stat,
        "mode": "serial" if not pooled
        else ("pooled, fell back to serial" if fell_back else "pooled"),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_walls": {"untraced": [p["wall_s"] for p in untraced],
                       "traced": [p["wall_s"] for p in traced]},
        "end_to_end": e2e,
        "item_tail": tl,
        "pass_items": [p["items"] for p in untraced],
        "pass_cpus": [p["cpu_s"] for p in untraced],
        "uncertified_entries": untraced[0]["uncertified_entries"],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "timed_pass_wrappers": leaked,
        "traced_pass_wrappers": traced[0]["wrapped"] if traced else [],
        "setup_samples": [p["setup_s"] for p in passes],
    }
    if args.trace:
        layer_runs = [per_layer(rec) for rec in traced]
        metrics = {}
        for key, first in layer_runs[0][0].items():
            exact = PER_LAYER_UNITS[key] in ("count", "B")
            metrics[key] = first if exact else statistics.median(
                m[key] for m, _ in layer_runs)
        # medians of alternating passes: one unusually fast pass must not
        # decide the overhead
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        unsteady = [k for k in STEADY_COUNTS
                    if len({m[k] for m, _ in layer_runs}) > 1]
        if unsteady:
            problems.append(f"counts differ between traced passes: "
                            f"{unsteady}")
        if pooled and metrics["linalg.pools"] and \
                not metrics["linalg.worker_pids"]:
            report["mode"] = "pooled, fell back to serial"
        report["per_layer"] = metrics
        report["trace_overhead_s"] = traced_wall - untraced_wall
        report["layers"] = layer_runs[0][1]
    report["problems"] = problems
    correct = failed == 0 and not problems

    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = report["per_layer"] if args.trace else e2e
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"mode={report['mode']} workers={wl.workers()} "
          f"passes={len(untraced)}+{len(traced)}")
    for key, val in e2e.items():
        print(f"  {key:<28} {val:.6g} {END_TO_END_UNITS[key]}")
    print(f"  {'item_tail_percentile':<28} p{tl['percentile']} "
          f"({tl['beyond']} of {tl['samples']} samples beyond)")
    print(f"  {'uncertified_entries':<28} {report['uncertified_entries']} "
          f"count")
    print(f"  {'failed_frac':<28} {report['failed_frac']:.6g} ratio "
          f"({failed} of {attempted})")
    if args.trace:
        for key, val in values.items():
            print(f"  {key:<28} {val:.6g} {units[key]}")
    for prob in problems + [str(f) for f in report["failures"][:3]]:
        print(f"  problem: {prob}")
    print(f"record: {os.path.relpath(os.path.join(out_dir, stem + '.json'))}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
