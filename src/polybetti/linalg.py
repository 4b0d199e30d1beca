"""Exact sparse linear algebra over a prime field.

Only ranks are ever needed downstream; kernels are sized as
``n_cols - rank`` and never materialized.  Every block goes through one
kernel, ``rank``: singleton rows and columns are taken as pivots that
only delete (structured Gaussian elimination), Markowitz pivots follow
while the matrix stays sparse, and once fill passes DENSE_FILL_CUTOFF
the remainder goes to dense row reduction with delayed reduction mod p.
``rank_batch`` ranks many blocks on a process pool, shared by every
batch inside one ``worker_pool`` block.  A block is anything with
``n_rows``, ``n_cols`` and ``build()``: a matrix builds to itself, and a
block described by its sizes is assembled by the process that ranks
it, after the memory cap has been checked against those sizes.
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

DENSE_FILL_CUTOFF = 0.20


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
    """Column-major sparse matrix over the field with ``modulus.p`` elements.

    Within a column, row indices are strictly increasing and values are
    nonzero mod p.
    """

    n_rows: int
    n_cols: int
    columns: list[list[tuple[int, int]]]
    modulus: PrimeModulus

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries,
                     modulus: PrimeModulus) -> "SparseMatrixFp":
        p = modulus.p
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n_cols)]
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            v %= p
            if v:
                cols[c].append((r, v))
        for col in cols:
            col.sort()
            for (r0, _), (r1, _) in zip(col, col[1:]):
                if r0 == r1:
                    raise ValueError(f"duplicate row {r0} within a column")
        return cls(n_rows, n_cols, cols, modulus)

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def build(self) -> "SparseMatrixFp":
        return self

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for c, col in enumerate(self.columns):
            for r, v in col:
                a[r, c] = v
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
    """Destructive elimination of one block.

    Singleton columns and rows are pivots that cost no arithmetic and
    make no fill: taking one only deletes its row or its column.  They
    are taken first and whenever an elimination creates one.  Otherwise
    the pivot is a Markowitz choice, until fill passes DENSE_FILL_CUTOFF
    and the remainder goes to ``dense_rank_mod``.
    """

    def __init__(self, m: SparseMatrixFp):
        self.p = m.modulus.p
        rows: dict[int, dict[int, int]] = {}
        col_rows: dict[int, set[int]] = {}
        for c, col in enumerate(m.columns):
            if not col:
                continue
            col_rows[c] = {r for r, _ in col}
            for r, v in col:
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: v}
                else:
                    row[c] = v
        self.rows, self.col_rows = rows, col_rows
        self.nnz = m.nnz
        self.rank = 0
        self.single_cols = [c for c, rs in col_rows.items() if len(rs) == 1]
        self.single_rows = [r for r, row in rows.items() if len(row) == 1]
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
            if self.nnz > DENSE_FILL_CUTOFF * nr * nc:
                return self.rank + self._dense_remainder()
            if not self.heap:
                self.heap = [(len(rs), c) for c, rs in self.col_rows.items()]
                heapq.heapify(self.heap)
            self._eliminate(*self._pick_pivot())


def rank(block, memory_cap: int | None = None) -> int:
    """Rank over its prime field of ``block.build()``.

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


@dataclass(frozen=True)
class ComputeBudget:
    """Worker and memory limits for batched rank jobs."""

    max_workers: int = field(default_factory=lambda: int(
        os.environ.get("BETTI_WORKERS", "0")) or (os.cpu_count() or 1))
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


# the pool of the outermost open worker_pool block, with its worker count
_shared: tuple[ProcessPoolExecutor, int] | None = None


@contextmanager
def worker_pool(budget: ComputeBudget | None = None):
    """Share one process pool among every rank_batch inside the block.

    Opens a pool of ``budget.max_workers`` processes unless that is 1 or
    a pool is already open, in which case the outer one is reused.  The
    workers are joined on exit, so none outlives the block.
    """
    global _shared
    budget = budget or ComputeBudget()
    if budget.max_workers <= 1 or _shared is not None:
        yield
        return
    try:
        _shared = (ProcessPoolExecutor(max_workers=budget.max_workers),
                   budget.max_workers)
    except OSError:     # rank_batch runs serially
        yield
        return
    try:
        yield
    finally:
        # _dispatch may have swapped in a fresh pool, or dropped it
        if _shared is not None:
            _shared[0].shutdown(wait=True, cancel_futures=True)
        _shared = None


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


def _dispatch(args) -> list[tuple[int | None, str | None]]:
    """Run the tasks on the open pool, one future per chunk, the chunk
    with the largest task first; a block costs n_rows + n_cols.  The tasks
    of a chunk lost to a dead worker, or never submitted because the
    pool broke, are marked failed, and the broken pool is replaced so
    that later batches in the block get live workers."""
    global _shared
    pool, workers = _shared
    costs = [m.n_rows + m.n_cols for m, _ in args]
    results: list = [(None, "worker process died")] * len(args)
    futures = []
    broken = False
    try:
        for chunk in _chunks(costs, min(len(args), 4 * workers)):
            futures.append((chunk, pool.submit(
                _rank_chunk, [args[i] for i in chunk])))
    except BrokenProcessPool:
        broken = True
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
        _shared = None
        try:
            _shared = (ProcessPoolExecutor(max_workers=workers), workers)
        except OSError:     # later batches in the block run serially
            pass
    return results


def rank_batch(tasks: list,
               budget: ComputeBudget | None = None) -> list[RankOutcome]:
    """Ranks of the blocks in input order, each built where it is ranked.
    A task over the memory cap is marked failed unbuilt and the others
    finish; if a worker process dies, every task it left unfinished is
    marked failed.  Runs on the pool of an open worker_pool block, or
    else on a pool of its own; serially, one block is built at a time."""
    budget = budget or ComputeBudget()
    args = [(m, budget.memory_cap) for m in tasks]
    results = None
    if budget.max_workers > 1 and len(tasks) > 1:
        with worker_pool(budget):
            if _shared is not None:
                try:
                    results = _dispatch(args)
                except OSError:
                    # sandboxes without process spawning run serially
                    pass
    if results is None:
        results = [_rank_task(a) for a in args]
    return [RankOutcome(r, e) for r, e in results]
