"""Shared fixtures: model polygons, frozen reference tables, corpora."""
from __future__ import annotations

import concurrent.futures
import json
import os

import pytest
from hypothesis import settings

from polybetti import engine, linalg
from polybetti.corpus import build_corpus, oracle_corpus
from polybetti.engine import EngineOptions
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import named_polygon

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

# Reference tables for the model polygons, frozen from independent
# computation (brute-force reference + closed forms).  b and c are in
# ascending position order 1..n-3.
REFERENCE_TABLES = {
    "Sigma": ([], []),
    "Upsilon": ([0], [1]),
    "2*Sigma": ([6, 8, 3], [0, 0, 0]),
    "3*Sigma": ([27, 105, 189, 189, 105, 27, 0],
                [1, 0, 0, 0, 0, 0, 0]),
    "4*Sigma": ([75, 536, 1947, 4488, 7095, 7920, 6237, 3344, 1089, 120,
                 0, 0],
                [3, 24, 55, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "5*Sigma": ([165, 1830, 10710, 41616, 117300, 250920, 417690, 548080,
                 568854, 464100, 291720, 134640, 39780, 4858, 375, 0, 0, 0],
                [6, 90, 595, 2160, 4200, 2002, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                 0, 0, 0]),
    "Upsilon_2": ([7, 8, 3, 0], [3, 8, 6, 0]),
    "2*Upsilon": ([24, 84, 126, 84, 20, 0, 0], [4, 21, 36, 20, 0, 0, 0]),
    "Upsilon_3": ([30, 120, 210, 189, 105, 27, 0, 0],
                  [6, 40, 105, 147, 105, 21, 0, 0]),
    "Upsilon_4": ([81, 598, 2223, 5148, 7920, 8172, 6237, 3344, 1089, 120,
                   0, 0, 0],
                  [10, 117, 612, 1859, 3630, 4950, 4488, 2376, 450, 55,
                   0, 0, 0]),
}


@pytest.fixture(scope="session")
def prime():
    return PrimeModulus(40009)


@pytest.fixture(scope="session")
def serial_options():
    """Engine options with a single worker: per-matrix work in the unit
    tests is tiny, so pool startup would dominate."""
    return EngineOptions(budget=ComputeBudget(max_workers=1))


@pytest.fixture()
def opened_pools(monkeypatch):
    """Every ProcessPoolExecutor that linalg constructs during the test."""
    opened = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return opened


@pytest.fixture()
def pool_every_batch(monkeypatch):
    """Send every batch of more than one block to the pool.  The models
    the pool tests use are small, and their batches would otherwise
    rank in-process and never reach a worker."""
    monkeypatch.setattr(linalg, "POOL_MIN_CELLS", 0)


@pytest.fixture()
def built_blocks(monkeypatch, tmp_path):
    """Record every block the engine builds, in forked pool workers too,
    as [pid, spec strand, position, bidegree, map, rows, cols]; returns
    the reader of the records so far."""
    log = tmp_path / "built.jsonl"
    real = engine.coboundary_matrix

    def recording(spec, ab, prime, which="right", **kwargs):
        m = real(spec, ab, prime, which, **kwargs)
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), spec.strand, spec.ell, list(ab),
                                 which, m.n_rows, m.n_cols]) + "\n")
        return m

    monkeypatch.setattr(engine, "coboundary_matrix", recording)

    def read() -> list[list]:
        if not log.exists():
            return []
        return [json.loads(line) for line in log.read_text().splitlines()]

    return read


@pytest.fixture(scope="session")
def models():
    return {name: named_polygon(name) for name in REFERENCE_TABLES}


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic mixed corpus, lattice-point counts 4..9."""
    return build_corpus(seed=7, count=40, n_min=4, n_max=9, box=4)


@pytest.fixture(scope="session")
def tiny_corpus():
    """First slice of the brute-force-sized corpus."""
    return oracle_corpus()[:25]
