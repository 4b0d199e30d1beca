"""Test blocks given by their nonzero entries, and the dense view of a
built matrix.

The engine ranks only ``engine.BlockTask`` blocks, which assemble a
coboundary where they are ranked.  ``EntryBlock`` has the same
interface (``n_rows``, ``n_cols``, ``build()``), so ``linalg.rank`` and
``rank_batch`` take it too: each ``build()`` makes a fresh
``SparseMatrixFp`` for the rank to consume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polybetti.linalg import PrimeModulus, SparseMatrixFp


@dataclass(frozen=True)
class EntryBlock:
    """A matrix over the field with ``modulus.p`` elements, given by its
    ``(row, column, value)`` entries; a value that is 0 mod p is
    dropped, and two entries at one cell are refused."""

    n_rows: int
    n_cols: int
    entries: list[tuple[int, int, int]]
    modulus: PrimeModulus

    def build(self) -> SparseMatrixFp:
        p = self.modulus.p
        kept = []
        for r, c, v in self.entries:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
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
        return SparseMatrixFp(self.n_rows, self.n_cols, rows, col_rows,
                              self.modulus)


def to_dense(m: SparseMatrixFp) -> np.ndarray:
    """The residues of a built matrix as an int64 array."""
    a = np.zeros((m.n_rows, m.n_cols), dtype=np.int64)
    for r, row in m.rows.items():
        a[r, list(row)] = list(row.values())
    return a
