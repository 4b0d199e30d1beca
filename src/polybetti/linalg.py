"""Exact sparse linear algebra over a prime field.

Only ranks are ever needed downstream; kernels are sized as
``n_cols - rank`` and never materialized.  Every block goes through one
kernel, ``rank``, on the row maps and column sets that
``SparseMatrixFp`` holds: singleton rows and columns are taken as
pivots that only delete (structured Gaussian elimination), Markowitz
pivots follow, and the remainder goes to dense row reduction with
delayed reduction mod p once it is more than DENSE_FILL_CUTOFF full,
counted against at least DENSE_MIN_CELLS cells, so that a small
remainder stays sparse whatever its fill.  ``rank_batch`` ranks a batch
of blocks on a process pool, shared by every batch inside one
``worker_pool`` block, when the batch is large enough to pay for the
pool; smaller batches rank in-process.  A block is anything with
``n_rows``, ``n_cols`` and ``build()``, and ``rank`` consumes what
``build()`` returns: a matrix builds to a copy of itself, and a block
described by its sizes is assembled by the process that ranks it, after
the memory cap has been checked against those sizes.
"""
from __future__ import annotations

import heapq
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# The sparse loop hands its remainder to dense_rank_mod once the
# remainder holds more than DENSE_FILL_CUTOFF times its cells, its cells
# counted as at least DENSE_MIN_CELLS: a smaller remainder must hold
# more than 819 nonzeros.  Finishing the benchmark's remainders both
# ways from their first 20% fill, numpy's per-step overhead made the
# dense path the slower one below about 3,500 cells: it lost all 2,234
# remainders under 2,048 cells, won 6 of the 22 up to 4,096 (every one
# from 3,478 cells) and all 22 above.
DENSE_FILL_CUTOFF = 0.20
DENSE_MIN_CELLS = 4096


class ResourceExceeded(RuntimeError):
    """A rank task would exceed the configured memory budget."""


class InvariantViolation(AssertionError):
    """An internal consistency check failed; raised explicitly so that
    the checks survive ``python -O``."""


def require(condition: bool, message: str) -> None:
    """Raise InvariantViolation(message) unless condition holds; hot
    loops raise it directly so the message is built only on failure."""
    if not condition:
        raise InvariantViolation(message)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 3, 5 and 7, exact for
    n < 3,215,031,751 and so for every modulus below 2^31."""
    bases = (2, 3, 5, 7)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p with 2 <= p < 2^31, so products fit one 64-bit reduction."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2 ** 31):
            raise ValueError(f"modulus {self.p} out of range")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


DEFAULT_PRIME = 40009


@dataclass
class SparseMatrixFp:
    """Sparse matrix over the field with ``modulus.p`` elements, held as
    the rank kernel consumes it: ``rows`` maps each row that has a
    nonzero to ``{column: nonzero residue}``, and ``col_rows`` maps each
    column that has a nonzero to the set of its rows.
    """

    n_rows: int
    n_cols: int
    rows: dict[int, dict[int, int]]
    col_rows: dict[int, set[int]]
    modulus: PrimeModulus

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries,
                     modulus: PrimeModulus) -> "SparseMatrixFp":
        p = modulus.p
        kept = []
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            if v % p:
                kept.append((c, r, v % p))
        rows: dict[int, dict[int, int]] = {}
        col_rows: dict[int, set[int]] = {}
        for c, r, v in sorted(kept):    # column-major, as blocks are built
            if r in col_rows.setdefault(c, set()):
                raise ValueError(f"duplicate row {r} within a column")
            col_rows[c].add(r)
            rows.setdefault(r, {})[c] = v
        return cls(n_rows, n_cols, rows, col_rows, modulus)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.col_rows.values()))

    def build(self) -> "SparseMatrixFp":
        """A copy for ``rank`` to consume, so that this matrix is left as
        it was."""
        return SparseMatrixFp(
            self.n_rows, self.n_cols,
            {r: dict(row) for r, row in self.rows.items()},
            {c: set(rs) for c, rs in self.col_rows.items()}, self.modulus)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for r, row in self.rows.items():
            a[r, list(row)] = list(row.values())
        return a


def dense_rank_mod(a: np.ndarray, p: int) -> int:
    """Row-reduction rank of an integer array mod p.

    The array is reduced with at least as many rows as columns, so there
    are at most ``cols`` pivot steps.  A step reduces mod p only its
    pivot column and pivot row and subtracts their products, each below
    (p - 1)^2, from the trailing block unreduced; the trailing block is
    reduced in full every ``period`` steps, which keeps int64 exact for
    every p < 2^31.
    """
    view = a.T if a.shape[0] < a.shape[1] else a
    a = np.empty(view.shape, dtype=np.int64)
    np.remainder(view, p, out=a)
    n_rows, n_cols = a.shape
    period = (2 ** 63 - 1 - p) // (p - 1) ** 2 - 1
    r = pending = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        col = a[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        piv = int(nz[0])
        if piv:
            a[[r, r + piv]] = a[[r + piv, r]]
        # after the swap the pivot sits at offset 0 and offset piv is zero
        below = nz[1:]
        if below.size:
            inv = pow(int(col[piv]), p - 2, p)
            factors = col[below] * inv % p
            a[below + r, c + 1:] -= factors[:, None] * (a[r, c + 1:] % p)
            pending += 1
            if pending == period:
                a[r + 1:, c + 1:] %= p
                pending = 0
        r += 1
    return r


class _Eliminator:
    """Destructive elimination of one block, in the block's own maps.

    Singleton columns and rows are pivots that cost no arithmetic and
    make no fill: taking one only deletes its row or its column.  They
    are taken first and whenever an elimination creates one.  Otherwise
    the pivot is a Markowitz choice, until the remainder is more than
    DENSE_FILL_CUTOFF full, its cells counted as at least
    DENSE_MIN_CELLS, and goes to ``dense_rank_mod``.
    """

    def __init__(self, m: SparseMatrixFp):
        self.p = m.modulus.p
        # the block's own maps, in the order it was built in (column by
        # column): their insertion order fixes the pivot sequence
        self.rows, self.col_rows = m.rows, m.col_rows
        self.nnz = m.nnz
        self.rank = 0
        self.single_cols = [c for c, rs in m.col_rows.items() if len(rs) == 1]
        self.single_rows = [r for r, row in m.rows.items() if len(row) == 1]
        # (count, column), built after the first structural pass and kept
        # lazily: a popped entry that undercounts is pushed again with the
        # true count; one that overcounts only makes the choice approximate
        self.heap: list[tuple[int, int]] = []

    def _drop_row(self, r: int) -> None:
        row = self.rows.pop(r)
        self.nnz -= len(row)
        for c in row:
            rs = self.col_rows[c]
            rs.discard(r)
            if len(rs) == 1:
                self.single_cols.append(c)
            elif not rs:
                del self.col_rows[c]

    def _drop_col(self, c: int) -> None:
        rs = self.col_rows.pop(c)
        self.nnz -= len(rs)
        for r in rs:
            row = self.rows[r]
            del row[c]
            if len(row) == 1:
                self.single_rows.append(r)
            elif not row:
                del self.rows[r]

    def _structural(self) -> None:
        """Take every singleton pivot, including those it uncovers."""
        while self.single_cols or self.single_rows:
            if self.single_cols:
                c = self.single_cols.pop()
                rs = self.col_rows.get(c)
                if rs is None or len(rs) != 1:
                    continue
                self._drop_row(next(iter(rs)))
            else:
                r = self.single_rows.pop()
                row = self.rows.get(r)
                if row is None or len(row) != 1:
                    continue
                self._drop_col(next(iter(row)))
            self.rank += 1

    def _pick_pivot(self) -> tuple[int, int]:
        """Markowitz on the lightest column: its entry in the lightest
        row.  Searching more columns did not reduce the work."""
        heap, col_rows, rows = self.heap, self.col_rows, self.rows
        while True:
            cnt, c = heapq.heappop(heap)
            rs = col_rows.get(c)
            if rs is None:
                continue
            if len(rs) > cnt:
                heapq.heappush(heap, (len(rs), c))
                continue
            return min(rs, key=lambda r: len(rows[r])), c

    def _eliminate(self, pr: int, pc: int) -> None:
        p, rows, col_rows = self.p, self.rows, self.col_rows
        single_rows = self.single_rows
        piv_row = rows.pop(pr)
        nnz = self.nnz - len(piv_row)
        for c in piv_row:
            col_rows[c].discard(pr)
        inv = pow(piv_row.pop(pc), p - 2, p)
        piv = list(piv_row.items())
        for r in col_rows.pop(pc):
            row = rows[r]
            factor = row.pop(pc) * inv % p
            nnz -= 1
            for c, v in piv:
                old = row.get(c)
                if old is None:
                    row[c] = -factor * v % p
                    col_rows[c].add(r)
                    nnz += 1
                    continue
                new = (old - factor * v) % p
                if new:
                    row[c] = new
                else:
                    del row[c]
                    col_rows[c].discard(r)
                    nnz -= 1
            if len(row) == 1:
                single_rows.append(r)
            elif not row:
                del rows[r]
        for c in piv_row:
            n = len(col_rows[c])
            if n == 1:
                self.single_cols.append(c)
            elif not n:
                del col_rows[c]
        self.nnz = nnz
        self.rank += 1

    def _dense_remainder(self) -> int:
        rows = self.rows.values()
        col_ids = {c: i for i, c in enumerate(self.col_rows)}
        sizes = [len(row) for row in rows]
        n = sum(sizes)
        ii = np.repeat(np.arange(len(sizes)), sizes)
        jj = np.fromiter(map(col_ids.__getitem__, chain.from_iterable(rows)),
                         np.intp, n)
        vv = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                         np.int64, n)
        a = np.zeros((len(sizes), len(col_ids)), dtype=np.int64)
        a[ii, jj] = vv
        return dense_rank_mod(a, self.p)

    def run(self) -> int:
        while True:
            self._structural()
            nr, nc = len(self.rows), len(self.col_rows)
            if not nc:
                return self.rank
            if self.nnz > DENSE_FILL_CUTOFF * max(nr * nc,
                                                  DENSE_MIN_CELLS):
                return self.rank + self._dense_remainder()
            if not self.heap:
                self.heap = [(len(rs), c) for c, rs in self.col_rows.items()]
                heapq.heapify(self.heap)
            self._eliminate(*self._pick_pivot())


def rank(block, memory_cap: int | None = None) -> int:
    """Rank over its prime field of ``block.build()``, which the
    elimination consumes.

    A block whose dense form (8 bytes an entry) exceeds ``memory_cap``
    is refused by its ``n_rows`` and ``n_cols`` before it is built; no
    later step allocates an array larger than that dense form.
    """
    need = 8 * block.n_rows * block.n_cols
    if memory_cap is not None and need > memory_cap:
        raise ResourceExceeded(
            f"a dense {block.n_rows}x{block.n_cols} block needs {need} "
            f"bytes, cap is {memory_cap}")
    return _Eliminator(block.build()).run()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (a pinned process or container may use fewer than the
    machine has), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ComputeBudget:
    """Worker and memory limits for batched rank jobs; BETTI_WORKERS=0,
    like no value, means one worker per usable CPU."""

    max_workers: int = field(default_factory=lambda: int(
        os.environ.get("BETTI_WORKERS", "0")) or _usable_cpus())
    memory_cap: int | None = None

    def __post_init__(self):
        if self.max_workers < 1:
            raise ValueError(
                f"worker count must be at least 1, got {self.max_workers}")
        if self.memory_cap is not None and self.memory_cap < 1:
            raise ValueError(
                f"memory cap must be at least 1 byte, got {self.memory_cap}")


@dataclass(frozen=True)
class RankOutcome:
    """Per-task result of rank_batch; failed tasks carry the error text."""

    rank: int | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _rank_task(args) -> tuple[int | None, str | None]:
    m, memory_cap = args
    try:
        return rank(m, memory_cap=memory_cap), None
    except ResourceExceeded as exc:
        return None, str(exc)


def _rank_chunk(chunk: list) -> list[tuple[int | None, str | None]]:
    return [_rank_task(a) for a in chunk]


# Σ(n_rows + n_cols) over a batch from which it goes to the pool; a
# smaller batch ranks in the calling process.  Forking and joining a
# 2-worker pool costs 16-18 ms, more than a batch below 1,000 takes
# in-process (0.3-5.2 ms on a sweep pass; 1,000-3,999 take 3.7-17 ms).
# Against 4,000 on the benchmark, 2,000 made sweep items slower and
# 8,000 made big-table slower.
POOL_MIN_COST = 4000

# the outermost open worker_pool block: its executor, built by the first
# batch that pools (None until then), and its worker count
_shared: tuple[ProcessPoolExecutor | None, int] | None = None


@contextmanager
def worker_pool(budget: ComputeBudget | None = None):
    """Share one process pool among every rank_batch inside the block.

    The pool has ``budget.max_workers`` processes and is started by the
    first batch that pools, so a block whose batches all rank in-process
    forks nothing.  With one worker, or inside an open block, this does
    nothing and the outer pool is reused.  The workers are joined on
    exit, so none outlives the block.
    """
    global _shared
    budget = budget or ComputeBudget()
    if budget.max_workers <= 1 or _shared is not None:
        yield
        return
    _shared = (None, budget.max_workers)
    try:
        yield
    finally:
        pool = _shared[0]
        _shared = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _chunks(costs: list[int], n_chunks: int) -> list[list[int]]:
    """Task indices dealt largest first, each to the chunk with the least
    work so far (LPT scheduling); chunk k holds the k-th largest task."""
    chunks: list[list[int]] = [[] for _ in range(n_chunks)]
    loads = [(0, k) for k in range(n_chunks)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        load, k = heapq.heappop(loads)
        chunks[k].append(i)
        heapq.heappush(loads, (load + costs[i], k))
    return chunks


def _dispatch(args, costs: list[int]) -> list | None:
    """Run the tasks on the open block's pool, starting it if no batch
    has yet, one future per chunk, the chunk with the largest task
    first.  The tasks of a chunk lost to a dead worker, or never
    submitted because the pool broke, are marked failed, and the broken
    pool is dropped so that the next batch that pools starts live
    workers.  None if no process can be started here."""
    global _shared
    pool, workers = _shared
    results: list = [(None, "worker process died")] * len(args)
    futures = []
    broken = False
    try:
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _shared = (pool, workers)
        for chunk in _chunks(costs, min(len(args), 4 * workers)):
            futures.append((chunk, pool.submit(
                _rank_chunk, [args[i] for i in chunk])))
    except BrokenProcessPool:
        broken = True
    except OSError:     # sandboxes without process spawning run serially
        return None
    for chunk, future in futures:
        try:
            out = future.result()
        except BrokenProcessPool:
            broken = True
            continue
        for i, r in zip(chunk, out):
            results[i] = r
    if broken:
        pool.shutdown(wait=True, cancel_futures=True)
        _shared = (None, workers)
    return results


def rank_batch(tasks: list,
               budget: ComputeBudget | None = None) -> list[RankOutcome]:
    """Ranks of the blocks in input order, each built where it is ranked.
    A task over the memory cap is marked failed unbuilt and the others
    finish; if a worker process dies, every task it left unfinished is
    marked failed.  A batch of several blocks whose n_rows + n_cols sum
    to at least POOL_MIN_COST runs on the pool of an open worker_pool
    block, or else on a pool of its own; any other batch runs serially
    in the calling process, one block built at a time."""
    budget = budget or ComputeBudget()
    args = [(m, budget.memory_cap) for m in tasks]
    costs = [m.n_rows + m.n_cols for m in tasks]
    results = None
    if budget.max_workers > 1 and len(tasks) > 1 \
            and sum(costs) >= POOL_MIN_COST:
        with worker_pool(budget):
            results = _dispatch(args, costs)
    if results is None:
        results = [_rank_task(a) for a in args]
    return [RankOutcome(r, e) for r, e in results]
