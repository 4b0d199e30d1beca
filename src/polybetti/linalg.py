"""Exact sparse linear algebra over a prime field.

Only ranks are ever needed downstream; kernels are sized as
``n_cols - rank`` and never materialized.  Every block goes through one
kernel, ``rank``, on the row maps and column sets that
``SparseMatrixFp`` holds, counted from the pivots the block took before
it was built (``taken``): singleton rows and columns are taken as
pivots that only delete (structured Gaussian elimination), Markowitz
pivots follow, and the remainder goes to dense row reduction with
delayed reduction mod p once it is more than DENSE_FILL_CUTOFF full,
counted against at least DENSE_MIN_CELLS cells, so that a small
remainder stays sparse whatever its fill.  ``rank_batch`` ranks a batch
of blocks on a process pool when the batch's predicted dense cells, Σ
n_rows · n_cols, reach POOL_MIN_CELLS; smaller batches rank
in-process.  The pool belongs to the outermost open
``scope.call_scope``: its first pooled batch starts it, every later
batch inside the scope reuses it, and the scope joins it on exit.  Each
block comes back as a
``(rank, None)`` or ``(None, error text)`` pair.  A block is described
by its predicted ``n_rows`` and ``n_cols`` (``engine.BlockTask``): the
memory cap is checked against those sizes, and only then does the
process that ranks the block call its ``build()``, which assembles a
fresh ``SparseMatrixFp`` for ``rank`` to consume.  numpy is imported by
the dense path alone, and numpy and the pool machinery
(``ProcessPoolExecutor``, ``BrokenProcessPool``) are loaded just before a
pool forks, so a process whose remainders all stay sparse never loads
numpy, and one whose batches all rank in-process never loads
``concurrent.futures``.  The executor is read, and may be patched, as
``concurrent.futures.ProcessPoolExecutor``.
"""
from __future__ import annotations

import heapq
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from . import scope

if TYPE_CHECKING:
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


def is_integer_text(text: str) -> bool:
    """An optional sign, then ASCII digits; int() also reads underscores,
    surrounding blanks and the digits of other scripts."""
    return re.fullmatch(r"[+-]?[0-9]+", text) is not None


def parse_int(text: str) -> int:
    """int(text), refused unless is_integer_text(text); text that int()
    refuses keeps int()'s error."""
    value = int(text)
    if not is_integer_text(text):
        raise ValueError(f"{text!r} is not an integer")
    return value


def is_prime(n: int) -> bool:
    """Trial division: at most 46,341 divisors for a modulus below 2^31."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


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
    column that has a nonzero to the set of its rows.  ``taken`` counts
    pivots already taken out of it: their rows and columns are counted
    in ``n_rows`` and ``n_cols`` but hold no entry, and the rank of the
    matrix is ``taken`` plus the rank of what the maps hold.
    """

    n_rows: int
    n_cols: int
    rows: dict[int, dict[int, int]]
    col_rows: dict[int, set[int]]
    modulus: PrimeModulus
    taken: int = 0

    @property
    def nnz(self) -> int:
        return sum(map(len, self.col_rows.values()))


def dense_rank_mod(a: np.ndarray, p: int) -> int:
    """Row-reduction rank of an integer array mod p.

    The array is reduced with at least as many rows as columns, so there
    are at most ``cols`` pivot steps.  A step reduces mod p only its
    pivot column and pivot row and subtracts their products, each below
    (p - 1)^2, from the trailing block unreduced; the trailing block is
    reduced in full every ``period`` steps, which keeps int64 exact for
    every p < 2^31.
    """
    import numpy as np
    view = a.T if a.shape[0] < a.shape[1] else a
    a = np.empty(view.shape, dtype=np.int64)
    np.remainder(view, p, out=a)
    period = (2 ** 63 - 1 - p) // (p - 1) ** 2 - 1
    r = pending = 0
    for c in range(a.shape[1]):
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
    """Destructive elimination of one block, in the block's own maps,
    its rank counted from the pivots the block has already taken.

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
        self.rank = m.taken
        self.single_cols = [c for c, rs in m.col_rows.items() if len(rs) == 1]
        self.single_rows = [r for r, row in m.rows.items() if len(row) == 1]
        # (count, column), built after the first structural pass and kept
        # lazily: a popped entry that undercounts is pushed again with the
        # true count; one that overcounts only makes the choice approximate
        self.heap: list[tuple[int, int]] = []

    def _structural(self) -> None:
        """Take every singleton pivot, including those it uncovers: a
        singleton column deletes its row, a singleton row its column."""
        rows, col_rows = self.rows, self.col_rows
        single_cols, single_rows = self.single_cols, self.single_rows
        nnz, rank = self.nnz, self.rank
        while single_cols or single_rows:
            if single_cols:
                rs = col_rows.get(single_cols.pop())
                if rs is None or len(rs) != 1:
                    continue
                (r,) = rs
                row = rows.pop(r)
                nnz -= len(row)
                for c in row:
                    rs = col_rows[c]
                    rs.discard(r)
                    if len(rs) == 1:
                        single_cols.append(c)
                    elif not rs:
                        del col_rows[c]
            else:
                row = rows.get(single_rows.pop())
                if row is None or len(row) != 1:
                    continue
                (c,) = row
                rs = col_rows.pop(c)
                nnz -= len(rs)
                for r in rs:
                    row = rows[r]
                    del row[c]
                    if len(row) == 1:
                        single_rows.append(r)
                    elif not row:
                        del rows[r]
            rank += 1
        self.nnz, self.rank = nnz, rank

    def _pick_pivot(self) -> tuple[int, int]:
        """Markowitz on the lightest column: its entry in the lightest
        row, the first such in the column's order.  Searching more
        columns did not reduce the work."""
        heap, col_rows, rows = self.heap, self.col_rows, self.rows
        while True:
            cnt, c = heapq.heappop(heap)
            rs = col_rows.get(c)
            if rs is None:
                continue
            if len(rs) > cnt:
                heapq.heappush(heap, (len(rs), c))
                continue
            it = iter(rs)
            pr = next(it)
            least = len(rows[pr])
            for r in it:
                n = len(rows[r])
                if n < least:
                    pr, least = r, n
            return pr, c

    def _eliminate(self, pr: int, pc: int) -> None:
        p, rows, col_rows = self.p, self.rows, self.col_rows
        single_rows = self.single_rows
        piv_row = rows.pop(pr)
        nnz = self.nnz - len(piv_row)
        pv = piv_row.pop(pc)
        # 1 and -1 are their own inverses, and most pivots are one of them
        inv = pv if pv == 1 or pv == p - 1 else pow(pv, p - 2, p)
        targets = col_rows.pop(pc)
        targets.discard(pr)
        for r in targets:
            row = rows[r]
            factor = row.pop(pc) * inv % p
            nnz -= 1
            for c, v in piv_row.items():
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
        # the pivot row leaves its columns only now, in the same pass
        # that finds the columns the elimination left singleton or empty
        for c in piv_row:
            rs = col_rows[c]
            rs.discard(pr)
            n = len(rs)
            if n == 1:
                self.single_cols.append(c)
            elif not n:
                del col_rows[c]
        self.nnz = nnz
        self.rank += 1

    def _dense_remainder(self) -> int:
        import numpy as np
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
            if self.single_cols or self.single_rows:
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
    """Rank over its prime field of a block described by its sizes
    (``engine.BlockTask``): ``block.build()`` assembles the matrix, and
    the elimination consumes it.

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

    max_workers: int = field(default_factory=lambda: parse_int(
        os.environ.get("BETTI_WORKERS", "0")) or _usable_cpus())
    memory_cap: int | None = None

    def __post_init__(self):
        if self.max_workers < 1:
            raise ValueError(
                f"worker count must be at least 1, got {self.max_workers}")
        if self.memory_cap is not None and self.memory_cap < 1:
            raise ValueError(
                f"memory cap must be at least 1 byte, got {self.memory_cap}")


def _rank_task(args) -> tuple[int | None, str | None]:
    m, memory_cap = args
    try:
        return rank(m, memory_cap=memory_cap), None
    except ResourceExceeded as exc:
        return None, str(exc)


def _rank_chunk(chunk: list) -> list[tuple[int | None, str | None]]:
    return [_rank_task(a) for a in chunk]


# Predicted dense cells, Σ n_rows · n_cols, over a batch from which it
# goes to the pool; a smaller batch ranks in the calling process.  The
# product is the size that rank checks against the memory cap.  On two
# workers, forking and joining a pool costs 12-18 ms, and every sweep
# table that pools when Σ(n_rows + n_cols) >= 4,000 ran 1.9-3.1 times
# as long as in-process.  Even a warm pool lost on sweep's largest
# batch (110 blocks, 400,021 cells): 21-24 ms pooled against 16-20 ms
# in-process.  The smallest big-table batch that pays for the pool
# holds 890,478 cells (5*Sigma, 55-63 ms in-process); at 500,000 one
# Upsilon_4 batch of 295,202 cells (24-26 ms) moves in-process.
# Σ(n_rows + n_cols) cannot tell these apart: the sweep batch reads
# 10,623 on it, the 5*Sigma one 6,998.  In three 50 s runs per
# workload, 1,000,000 left big-table's wall time within noise and
# raised its peak RSS 1.4%.
POOL_MIN_CELLS = 500_000

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


def _dispatch(args, costs: list[int], workers: int) -> list | None:
    """Run the tasks on the open scope's pool, starting it with
    ``workers`` processes if no batch has yet, one future per chunk,
    the chunk with the largest task first.  The tasks of a chunk lost
    to a dead worker, or never submitted because the pool broke, are
    marked failed, and the broken pool is dropped so that the next
    batch that pools starts live workers.  None if no process can be
    started here."""
    # numpy and the pool machinery are loaded just before a pool forks,
    # so that forked workers inherit numpy for their dense remainders
    # instead of each loading it, and a process whose batches all rank
    # in-process loads neither
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool
    pool = scope.pool
    results: list = [(None, "worker process died")] * len(args)
    futures = []
    broken = False
    try:
        if pool is None:
            import numpy  # noqa: F401
            pool = scope.pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers)
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
        scope.pool = None
    return results


def rank_batch(tasks: list, budget: ComputeBudget | None = None
               ) -> list[tuple[int | None, str | None]]:
    """(rank, None) for each block that finished and (None, error text)
    for each that failed, in input order, each block built where it is
    ranked.  A task over the memory cap fails unbuilt and the others
    finish; if a worker process dies, every task it left unfinished
    fails.  A batch of several blocks whose predicted dense cells,
    n_rows · n_cols, sum to at least POOL_MIN_CELLS runs on the pool of
    the outermost open call_scope, started with budget.max_workers
    processes if no batch has yet (outside any scope, the batch opens
    one, so its pool is joined before it returns), dealt to the workers
    by n_rows + n_cols; any other batch runs serially in the calling
    process, one block built at a time."""
    budget = budget or ComputeBudget()
    args = [(m, budget.memory_cap) for m in tasks]
    results = None
    if budget.max_workers > 1 and len(tasks) > 1 and sum(
            m.n_rows * m.n_cols for m in tasks) >= POOL_MIN_CELLS:
        with scope.call_scope():
            results = _dispatch(args, [m.n_rows + m.n_cols for m in tasks],
                                budget.max_workers)
    if results is None:
        results = [_rank_task(a) for a in args]
    return results
