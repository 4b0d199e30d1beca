"""Per-layer spans for a traced benchmark pass, recorded from outside the
package by wrapping the module attributes the package looks up at call
time.

Only traced passes import this module; timed passes never do, so their
numbers carry no wrapper cost.  Forked pool workers inherit the
wrappers: on the first call in a new process the tracer drops the
inherited state and, at worker exit, writes its totals to
``<spans_dir>/<pid>.json`` for the pass process to collect.
"""
from __future__ import annotations

import functools
import json
import os
import pickle
import time
from multiprocessing import util

MARK = "__perfbench_span__"

# (module, attribute, span name).  Engine-level names are patched in the
# engine namespace because engine imported them by name.
WRAPPED = [
    ("engine", "betti_table", "engine.betti_table"),
    ("engine", "verify_kp1", "engine.verify_kp1"),
    ("engine", "_resolve_entry_b", "engine.resolve_entry_b"),
    ("engine", "strand_value", "engine.strand_value"),
    ("engine", "plan_strategy", "engine.plan_strategy"),
    ("engine", "effective_plans", "engine.effective_plans"),
    ("engine", "peak_block", "engine.peak_block"),
    ("engine", "middle_profile", "engine.middle_profile"),
    ("engine", "symmetry_group", "polygon.symmetry_group"),
    ("engine", "coboundary_matrix", "koszul.coboundary_matrix"),
    ("engine", "rank_batch", "linalg.rank_batch"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "dense_rank_mod", "linalg.dense_rank_mod"),
    ("corpus", "build_corpus", "corpus.build_corpus"),
    ("corpus", "kp1_corpus", "corpus.kp1_corpus"),
]

MEASURE = "trace.measure"   # the tracer's own counting, kept out of layers


class _Frame:
    __slots__ = ("name", "child", "dense_rank")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.dense_rank = 0


class Tracer:
    """Aggregated spans: per name, calls, total and self seconds."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.stack: list[_Frame] = []
        self.stats: dict[str, list] = {}      # name -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.batches: list[tuple[int, float]] = []   # (workers, wall)

    def _enter_process(self) -> None:
        """First call in a forked worker: start clean, flush at exit."""
        self.pid = os.getpid()
        self._reset()
        util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        path = os.path.join(self.spans_dir, f"{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "stats": self.stats,
                       "counts": self.counts}, fh)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, frame: _Frame, dt: float) -> None:
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame.child
        if self.stack:
            self.stack[-1].child += dt

    def run(self, name: str, fn, args=(), kwargs=None, measure=None):
        """Call fn inside a span called name; measure, if given, counts
        what the call did, inside the span but booked as trace.measure."""
        if os.getpid() != self.pid:
            self._enter_process()
        frame = _Frame(name)
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if measure is not None:
                t1 = time.perf_counter()
                measure(self, frame, args, kwargs or {}, result, t1 - t0)
                dm = time.perf_counter() - t1
                frame.child += dm
                st = self.stats.setdefault(MEASURE, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dm
                st[2] += dm
            return result
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self._close(frame, dt)

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(name, fn, args, kwargs, measure)

        setattr(wrapper, MARK, name)
        setattr(module, attr, wrapper)

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in WRAPPED:
            self.wrap(modules[mod_name], attr, name)

    def collect_workers(self) -> list[dict]:
        """Totals flushed by worker processes of this pass."""
        out = []
        for fname in sorted(os.listdir(self.spans_dir)):
            if fname.endswith(".json"):
                with open(os.path.join(self.spans_dir, fname)) as fh:
                    out.append(json.load(fh))
        return out


def installed(modules: dict) -> list[str]:
    """Names of the wrapped attributes that currently carry a tracer."""
    return [f"{mod}.{attr}" for mod, attr, _ in WRAPPED
            if hasattr(getattr(modules[mod], attr), MARK)]


# Counting hooks for Tracer.run: (tracer, frame, args, kwargs, result,
# seconds the call took).

def _measure_assembly(tracer, frame, args, kwargs, m, _):
    tracer.count("koszul.blocks", 1)
    tracer.count("koszul.cols", m.n_cols)
    tracer.count("koszul.nnz", m.nnz)


def _measure_dense(tracer, frame, args, kwargs, r, _):
    rows, cols = args[0].shape
    tracer.count("linalg.dense_calls", 1)
    tracer.count("linalg.dense_cells", rows * cols)
    # row reduction of rank r: pivot k updates at most the rows below it
    # across the columns right of it; an upper bound, computed from sizes
    tracer.count("linalg.dense_madd_est",
                 sum((rows - k - 1) * (cols - k) for k in range(r)))
    if len(tracer.stack) > 1:
        tracer.stack[-2].dense_rank += r


def _measure_rank(tracer, frame, args, kwargs, r, _):
    tracer.count("linalg.sparse_pivots", r - frame.dense_rank)


def _measure_batch(tracer, frame, args, kwargs, outcomes, wall):
    tasks = args[0]
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    workers = budget.max_workers if budget is not None else 0
    pooled = workers > 1 and len(tasks) > 1
    tracer.batches.append((workers if pooled else 1, wall))
    if pooled:
        cap = budget.memory_cap
        tracer.count("linalg.pools", 1)
        tracer.count("linalg.tasks", len(tasks))
        tracer.count("linalg.pickled_bytes", sum(
            len(pickle.dumps((m, cap)))
            for m in tasks))


_MEASURES = {
    "koszul.coboundary_matrix": _measure_assembly,
    "linalg.dense_rank_mod": _measure_dense,
    "linalg.rank": _measure_rank,
    "linalg.rank_batch": _measure_batch,
}
