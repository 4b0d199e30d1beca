"""Sparse rank computation over prime fields."""
from __future__ import annotations

import math
import multiprocessing
import os
import random
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybetti import linalg
from polybetti.linalg import (ComputeBudget, PrimeModulus, ResourceExceeded,
                              SparseMatrixFp, _chunks, dense_rank_mod,
                              is_prime, rank, rank_batch, worker_pool)

P40009 = PrimeModulus(40009)


def transpose(m):
    entries = [(c, r, v) for r, row in m.rows.items() for c, v in row.items()]
    return SparseMatrixFp.from_entries(m.n_cols, m.n_rows, entries, m.modulus)


def exact_rank(entries, n_rows, n_cols, p=None):
    """Gaussian elimination over the rationals, or with Python ints over
    the field with p elements when p is given."""
    zero = Fraction(0) if p is None else 0
    m = [[zero] * n_cols for _ in range(n_rows)]
    for r, c, v in entries:
        m[r][c] += v
    if p is not None:
        m = [[x % p for x in row] for row in m]
    rank_ = 0
    row = 0
    for col in range(n_cols):
        piv = next((r for r in range(row, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(n_rows):
            if r != row and m[r][col]:
                if p is None:
                    f = m[r][col] / m[row][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[row])]
                else:
                    f = m[r][col] * pow(m[row][col], p - 2, p) % p
                    m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        row += 1
        rank_ += 1
    return rank_


sign_entries = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),
              st.sampled_from([1, -1])),
    max_size=25)


def build(entries, p=40009, n_rows=8, n_cols=8):
    merged = {}
    for r, c, v in entries:
        merged[(r, c)] = merged.get((r, c), 0) + v
    entries = [(r, c, v) for (r, c), v in merged.items() if v % p]
    return SparseMatrixFp.from_entries(n_rows, n_cols, entries,
                                       PrimeModulus(p)), entries


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_is_prime_near_modulus_cap():
    """The primes from 2147483549 to 2^31 - 1 and their odd neighbours."""
    odd = range(2147483547, 2 ** 31 + 2, 2)
    assert [n for n in odd if is_prime(n)] == \
        [n for n in odd if _trial_division(n)]
    assert is_prime(2147483549) and is_prime(2 ** 31 - 1)
    assert PrimeModulus(2 ** 31 - 1).p == 2147483647


def test_prime_modulus_validation():
    with pytest.raises(ValueError):
        PrimeModulus(40008)
    with pytest.raises(ValueError):
        PrimeModulus(1)
    assert PrimeModulus(2).p == 2


@given(sign_entries)
def test_rank_matches_dense_reference(entries):
    m, merged = build(entries)
    dense = np.zeros((8, 8), dtype=np.int64)
    for r, c, v in merged:
        dense[r, c] += v
    assert rank(m) == dense_rank_mod(dense, 40009)


@given(sign_entries)
def test_rank_equals_transpose_rank(entries):
    m, _ = build(entries)
    assert rank(m) == rank(transpose(m))


@given(sign_entries, st.randoms(use_true_random=False))
def test_rank_permutation_invariant(entries, rng):
    m, merged = build(entries)
    rows = list(range(8))
    cols = list(range(8))
    rng.shuffle(rows)
    rng.shuffle(cols)
    shuffled, _ = build([(rows[r], cols[c], v) for r, c, v in merged])
    assert rank(m) == rank(shuffled)


@given(sign_entries, st.sampled_from([2, 3, 40009]))
def test_semicontinuity_vs_exact_rank(entries, p):
    merged = {}
    for r, c, v in entries:
        merged[(r, c)] = merged.get((r, c), 0) + v
    full = [(r, c, v) for (r, c), v in merged.items() if v]
    m, _ = build([e for e in full if e[2] % p], p=p)
    assert rank(m) <= exact_rank(full, 8, 8)


@given(sign_entries)
def test_elimination_vs_exact_rank_char_zero_size(entries):
    m, merged = build(entries)
    # all entries are +-1 sums below 40009, so mod-p equals exact here
    assert rank(m) == exact_rank(merged, 8, 8) or any(
        abs(v) >= 40009 for _, _, v in merged)


def test_rank_methods_agree():
    rng = np.random.default_rng(11)
    entries = [(int(r), int(c), 1 if rng.random() < 0.5 else -1)
               for r, c in zip(rng.integers(0, 30, 160),
                               rng.integers(0, 30, 160))]
    m, merged = build(entries, n_rows=30, n_cols=30)
    dense = dense_rank_mod(m.to_dense(), 40009)
    assert rank(m) == dense
    assert dense == exact_rank(merged, 30, 30, 40009)


@st.composite
def sign_matrices(draw):
    """+-1 matrices up to 40x30, from about one entry per column (solved
    by structural pivots alone) to half full (densified early)."""
    n_rows = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.03, 0.1, 0.2, 0.5]))
    rng = draw(st.randoms(use_true_random=False))
    return n_rows, n_cols, [
        (r, c, rng.choice((1, -1)))
        for r in range(n_rows) for c in range(n_cols)
        if rng.random() < density]


@settings(max_examples=60, deadline=None)
@given(sign_matrices(), st.sampled_from([2, 3, 40009]))
def test_rank_matches_exact_mod_p(shape, p):
    n_rows, n_cols, entries = shape
    m = SparseMatrixFp.from_entries(n_rows, n_cols, entries, PrimeModulus(p))
    assert rank(m) == exact_rank(entries, n_rows, n_cols, p)


def _count_dense_calls(monkeypatch):
    calls = []

    def counted(a, p):
        calls.append(a.shape)
        return dense_rank_mod(a, p)
    monkeypatch.setattr(linalg, "dense_rank_mod", counted)
    return calls


def test_structural_pivots_need_no_dense_step(monkeypatch):
    calls = _count_dense_calls(monkeypatch)
    # a bidiagonal band: the last column is a singleton, and taking its
    # pivot leaves the column before it a singleton
    n = 40
    entries = [(i, i, 1) for i in range(n)] + \
        [(i + 1, i, -1) for i in range(n - 1)]
    m = SparseMatrixFp.from_entries(n, n, entries, P40009)
    assert rank(m) == exact_rank(entries, n, n) == n
    assert calls == []


def test_dense_block_reaches_dense_step(monkeypatch):
    calls = _count_dense_calls(monkeypatch)
    rng = random.Random(3)
    # 80x60 cells: above the DENSE_MIN_CELLS floor, so half full is dense
    entries = [(r, c, rng.choice((1, -1)))
               for r in range(80) for c in range(60) if rng.random() < 0.5]
    m = SparseMatrixFp.from_entries(80, 60, entries, P40009)
    assert rank(m) == exact_rank(entries, 80, 60, 40009)
    assert len(calls) == 1


def _low_rank(n_rows, n_cols, k, p, rng):
    """Entries of B @ C mod p for random B (n_rows x k) and C (k x
    n_cols), each about half nonzero residues: a matrix of rank at most
    k mod p."""
    def factor(n, m):
        return [[rng.randrange(1, p) if rng.random() < 0.5 else 0
                 for _ in range(m)] for _ in range(n)]
    b, c = factor(n_rows, k), factor(k, n_cols)
    entries = []
    for i, row in enumerate(b):
        for j in range(n_cols):
            v = sum(x * c[t][j] for t, x in enumerate(row) if x) % p
            if v:
                entries.append((i, j, v))
    return entries


# (n_rows, n_cols, k, whether the remainder goes dense): 480 cells stay
# sparse even when full; 72x64 is past the cell floor and full from the
# start
GATE_CASES = [(24, 20, 9, False), (72, 64, 30, True)]


@pytest.mark.parametrize("p", [2, 3, 40009, 2 ** 31 - 1])
@pytest.mark.parametrize("n_rows,n_cols,k,dense", GATE_CASES)
def test_rank_deficient_blocks_either_side_of_the_dense_rule(
        monkeypatch, p, n_rows, n_cols, k, dense):
    calls = _count_dense_calls(monkeypatch)
    entries = _low_rank(n_rows, n_cols, k, p, random.Random(n_rows * p))
    m = SparseMatrixFp.from_entries(n_rows, n_cols, entries, PrimeModulus(p))
    want = exact_rank(entries, n_rows, n_cols, p)
    assert want <= k
    before = m.to_dense()
    assert rank(m) == want
    assert bool(calls) == dense
    # ranking consumes a copy: the caller's matrix is left as it was
    assert np.array_equal(m.to_dense(), before)
    assert rank(m) == want


@pytest.mark.parametrize("p", [40009, 2147483647])
def test_dense_rank_mod_large_entries(p):
    """Products near 2^62 and, at p = 2^31 - 1, a full reduction of the
    trailing block after every step; rank-deficient by construction."""
    rng = random.Random(p)
    basis = [[rng.randrange(p) for _ in range(25)] for _ in range(14)]
    rows = [row[:] for row in basis]
    for _ in range(16):
        coef = [rng.randrange(p) for _ in basis]
        rows.append([sum(k * b[j] for k, b in zip(coef, basis)) % p
                     for j in range(25)])
    rng.shuffle(rows)
    entries = [(i, j, v) for i, row in enumerate(rows)
               for j, v in enumerate(row) if v]
    want = exact_rank(entries, 30, 25, p)
    assert want == 14
    a = np.array(rows, dtype=np.int64)
    assert dense_rank_mod(a, p) == want
    assert dense_rank_mod(a.T, p) == want


def test_memory_cap_raises():
    entries = [(r, c, 1) for r in range(40) for c in range(40)
               if (r + c) % 3]
    m, _ = build(entries, n_rows=40, n_cols=40)
    with pytest.raises(ResourceExceeded):
        rank(m, memory_cap=50)


def test_rank_batch_marks_failures():
    good, _ = build([(0, 0, 1), (1, 1, 1)])
    entries = [(r, c, 1) for r in range(40) for c in range(40)
               if (r + c) % 3]
    bad, _ = build(entries, n_rows=40, n_cols=40)
    out = rank_batch([good, bad, good],
                     ComputeBudget(max_workers=1, memory_cap=1000))
    assert [o.ok for o in out] == [True, False, True]
    assert out[0].rank == 2 and out[2].rank == 2
    assert "cap" in out[1].error


def _mixed_batch():
    """A few large blocks among many 1x1 and empty ones, and one block
    over the memory cap used with it (20,000 bytes)."""
    rng = random.Random(5)
    big = [build([(rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
                  for _ in range(4 * n)], n_rows=n, n_cols=n)[0]
           for n in (30, 45, 20)]
    tiny = [build([(0, 0, k % 3)], n_rows=1, n_cols=1)[0] for k in range(40)]
    empty = [build([], n_rows=r, n_cols=c)[0]
             for r, c in ((0, 0), (3, 0), (0, 4), (2, 2))]
    over, _ = build([(r, r, 1) for r in range(60)], n_rows=60, n_cols=60)
    batch = tiny[:10] + [big[0]] + empty + tiny[10:25] + [over, big[1]] \
        + tiny[25:] + [big[2]]
    return batch, batch.index(over)


def test_rank_batch_pooled_matches_serial(pool_every_batch):
    batch, over = _mixed_batch()
    serial = rank_batch(batch, ComputeBudget(max_workers=1, memory_cap=20000))
    assert [i for i, o in enumerate(serial) if not o.ok] == [over]
    assert [o.rank for o in serial] == [
        None if i == over else rank(m) for i, m in enumerate(batch)]
    budget = ComputeBudget(max_workers=2, memory_cap=20000)
    assert rank_batch(batch, budget) == serial
    with worker_pool(budget):
        assert rank_batch(batch, budget) == serial
        assert rank_batch(batch[::-1], budget) == serial[::-1]
    assert multiprocessing.active_children() == []


def test_chunks_deal_largest_first():
    costs = [3, 0, 9, 1, 1, 7, 2, 0, 5]
    chunks = _chunks(costs, 4)
    assert sorted(i for c in chunks for i in c) == list(range(len(costs)))
    # chunk k starts with the k-th largest task
    assert [costs[c[0]] for c in chunks] == [9, 7, 5, 3]
    loads = [sum(costs[i] for i in c) for c in chunks]
    assert max(loads) - min(loads) <= max(costs)


def test_worker_pool_opens_one_pool_and_joins_it(opened_pools,
                                                 pool_every_batch):
    batch, _ = _mixed_batch()
    budget = ComputeBudget(max_workers=2, memory_cap=20000)
    with worker_pool(budget):
        with worker_pool(budget):       # nested: reuses the outer pool
            rank_batch(batch, budget)
        rank_batch(batch, budget)
        assert multiprocessing.active_children()
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []
    with worker_pool(ComputeBudget(max_workers=1)):
        rank_batch(batch, budget)       # no shared pool: one of its own
    assert len(opened_pools) == 2


def test_broken_shared_pool_fails_the_batch(pool_every_batch):
    batch, _ = _mixed_batch()
    budget = ComputeBudget(max_workers=2, memory_cap=20000)
    with worker_pool(budget):
        rank_batch(batch, budget)       # starts the block's pool
        pool, _ = linalg._shared
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result()
        # the pool is broken before the batch starts: submit raises
        out = rank_batch(batch, budget)
        # the broken pool was replaced: the next batch gets live workers
        assert linalg._shared[0] is not pool
        again = rank_batch(batch, budget)
    assert [o.error for o in out] == ["worker process died"] * len(batch)
    serial = rank_batch(batch, ComputeBudget(max_workers=1, memory_cap=20000))
    assert again == serial
    assert multiprocessing.active_children() == []


def _diagonal(n):
    return build([(i, i, 1) for i in range(n)], n_rows=n, n_cols=n)[0]


def test_only_batches_worth_a_pool_start_one(monkeypatch):
    """A batch below POOL_MIN_COST ranks in-process and starts no pool;
    one at the threshold tries to, and an OSError from that start
    leaves it to rank serially with the same ranks."""
    attempts = []

    class Unavailable:
        def __init__(self, *args, **kwargs):
            attempts.append(kwargs)
            raise OSError("no process spawning here")

    monkeypatch.setattr(linalg, "ProcessPoolExecutor", Unavailable)
    budget = ComputeBudget(max_workers=2)
    half = linalg.POOL_MIN_COST // 4
    small = [_diagonal(half), _diagonal(half - 1)]
    large = [_diagonal(half), _diagonal(half)]
    with worker_pool(budget):
        assert attempts == []
        assert [o.rank for o in rank_batch(small, budget)] == [half, half - 1]
        assert attempts == []
        out = rank_batch(large, budget)
        assert attempts == [{"max_workers": 2}]
    assert out == rank_batch(large, ComputeBudget(max_workers=1))
    assert [o.rank for o in out] == [half, half]
    assert multiprocessing.active_children() == []


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("BETTI_WORKERS", "3")
    assert ComputeBudget().max_workers == 3
    monkeypatch.delenv("BETTI_WORKERS")
    assert ComputeBudget().max_workers >= 1


def test_budget_rejects_nonpositive_limits(monkeypatch):
    for kwargs in ({"max_workers": 0}, {"max_workers": -2},
                   {"memory_cap": 0}, {"memory_cap": -1}):
        with pytest.raises(ValueError):
            ComputeBudget(**kwargs)
    monkeypatch.setenv("BETTI_WORKERS", "-1")
    with pytest.raises(ValueError):
        ComputeBudget()
    assert ComputeBudget(max_workers=1, memory_cap=1).memory_cap == 1


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv("BETTI_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    assert ComputeBudget().max_workers == 3
    monkeypatch.setenv("BETTI_WORKERS", "0")      # 0 means the usable CPUs
    assert ComputeBudget().max_workers == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ComputeBudget().max_workers == 64
