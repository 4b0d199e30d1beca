"""Brute-force reference for tiny polygons.

Everything here is deliberately independent of the production path:
points are ordered by (x, y) instead of (y, x), wedge bases are tuples
of points instead of bit masks, signs alternate starting with +1
instead of -1, matrices are dense over the full unsplit complex, and
row reduction is a separate plain implementation.  Agreement with the
engine is therefore meaningful evidence of correctness.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import PrimeModulus, require
from .polygon import LatticePolygon, Point, dilate, interior_hull
from .table import BettiTable

SIZE_CAP = 8


class TooLarge(ValueError):
    """The polygon exceeds the brute-force size cap."""


def _check_size(poly: LatticePolygon) -> None:
    if poly.n_points > SIZE_CAP:
        raise TooLarge(
            f"{poly.n_points} lattice points exceeds the cap {SIZE_CAP}")


def _points_xy(poly: LatticePolygon) -> list[Point]:
    return sorted(poly.points, key=lambda pt: (pt[0], pt[1]))


def _support(poly: LatticePolygon, q: int, twisted: bool) -> list[Point]:
    if q == 0:
        return [] if twisted else [(0, 0)]
    region = dilate(poly, q)
    pts = interior_hull(region).points if twisted else region.points
    return sorted(pts, key=lambda pt: (pt[0], pt[1]))


def _plain_rank(matrix: np.ndarray, p: int) -> int:
    """Fraction-free-style row reduction mod p, written from scratch."""
    a = matrix.copy() % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if a[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[pivot, rank]] = a[[rank, pivot]]
        scale = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * scale) % p
        for row in range(rows):
            if row != rank and a[row, col]:
                a[row] = (a[row] - a[row, col] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass
class DenseComplexSlice:
    """The two dense coboundary matrices around one (p, q) position,
    with the bidegrees of every basis vector recorded for splitting."""

    incoming: np.ndarray
    outgoing: np.ndarray
    left_bidegrees: list[Point]
    middle_bidegrees: list[Point]
    right_bidegrees: list[Point]

    def check_composition(self) -> None:
        prod = self.outgoing.astype(np.int64) @ self.incoming.astype(np.int64)
        require(not prod.any(), "consecutive coboundaries do not compose to 0")


def _basis(points: list[Point], p: int, support: list[Point]):
    """Full tensor basis: (wedge tuple, monomial), plus bidegrees."""
    elems = []
    degrees = []
    for wedge in itertools.combinations(points, p):
        wx = sum(v[0] for v in wedge)
        wy = sum(v[1] for v in wedge)
        for u in support:
            elems.append((wedge, u))
            degrees.append((wx + u[0], wy + u[1]))
    return elems, degrees


def _dense_map(points: list[Point], p: int, src: list[Point],
               dst: list[Point]) -> tuple[np.ndarray, list[Point], list[Point]]:
    """Matrix of the omission map from p-wedges over src to (p-1)-wedges
    over dst; signs alternate +1, -1, ... along the wedge."""
    cols, col_deg = _basis(points, p, src)
    rows, row_deg = _basis(points, p - 1, dst) if p >= 1 else ([], [])
    row_index = {elem: i for i, elem in enumerate(rows)}
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, (wedge, u) in enumerate(cols):
        for s, v in enumerate(wedge):
            shorter = wedge[:s] + wedge[s + 1:]
            target = (shorter, (u[0] + v[0], u[1] + v[1]))
            i = row_index.get(target)
            if i is None:
                continue
            a[i, j] += 1 if s % 2 == 0 else -1
    return a, row_deg, col_deg


def complex_slice(poly: LatticePolygon, p: int, q: int,
                  twisted: bool = False) -> DenseComplexSlice:
    _check_size(poly)
    points = _points_xy(poly)
    below = _support(poly, q - 1, twisted)
    mid = _support(poly, q, twisted)
    above = _support(poly, q + 1, twisted)
    incoming, mid_deg, left_deg = _dense_map(points, p + 1, below, mid)
    outgoing, right_deg, mid_deg2 = _dense_map(points, p, mid, above)
    if p >= 0 and incoming.size and outgoing.size:
        require(mid_deg2 == mid_deg,
                "the two maps order the middle basis differently")
    if not incoming.size:
        n_mid = len(mid_deg2)
        incoming = np.zeros((n_mid, 0), dtype=np.int64)
        mid_deg = mid_deg2
    slice_ = DenseComplexSlice(incoming, outgoing, left_deg, mid_deg,
                               right_deg)
    slice_.check_composition()
    return slice_


def oracle_betti(poly: LatticePolygon, prime: PrimeModulus) -> BettiTable:
    """Full table from the unreduced, unsplit complexes."""
    _check_size(poly)
    n = poly.n_points
    width = max(n - 3, 0)
    b_vals = []
    for ell in range(1, width + 1):
        sl = complex_slice(poly, ell, 1, twisted=False)
        rank_in = _plain_rank(sl.incoming, prime.p)
        require(rank_in == math.comb(n, ell + 1), "incoming map not injective")
        ker = len(sl.middle_bidegrees) - _plain_rank(sl.outgoing, prime.p)
        b_vals.append(ker - rank_in)
    c_vals = []
    for ell in range(1, width + 1):
        sl = complex_slice(poly, ell - 1, 1, twisted=True)
        require(not sl.incoming.size
                or _plain_rank(sl.incoming, prime.p) == 0,
                "twisted incoming map is not zero")
        c_vals.append(len(sl.middle_bidegrees)
                      - _plain_rank(sl.outgoing, prime.p))
    return BettiTable(
        n=n, b=b_vals, c=c_vals, prime=prime,
        b_provenance=["computed"] * width,
        c_provenance=["computed"] * width,
        b_rigorous=[v == 0 for v in b_vals],
        c_rigorous=[v == 0 for v in c_vals])


def oracle_bigraded(poly: LatticePolygon, strand: str, ell: int,
                    prime: PrimeModulus) -> dict[Point, int]:
    """Bidegree refinement by splitting the dense complex afterwards;
    only nonzero values are reported."""
    _check_size(poly)
    n = poly.n_points
    if not (1 <= ell <= n - 3):
        raise ValueError(f"position {ell} outside 1..{n - 3}")
    if strand == "b":
        sl = complex_slice(poly, ell, 1, twisted=False)
    elif strand == "c":
        sl = complex_slice(poly, ell - 1, 1, twisted=True)
    else:
        raise ValueError(f"strand must be 'b' or 'c', got {strand!r}")
    out: dict[Point, int] = {}
    for ab in sorted(set(sl.middle_bidegrees)):
        mid_idx = [i for i, d in enumerate(sl.middle_bidegrees) if d == ab]
        row_idx = [i for i, d in enumerate(sl.right_bidegrees) if d == ab]
        left_idx = [i for i, d in enumerate(sl.left_bidegrees) if d == ab]
        outgoing = sl.outgoing[np.ix_(row_idx, mid_idx)] \
            if row_idx and mid_idx else np.zeros((len(row_idx), len(mid_idx)),
                                                 dtype=np.int64)
        incoming = sl.incoming[np.ix_(mid_idx, left_idx)] \
            if mid_idx and left_idx else np.zeros((len(mid_idx), len(left_idx)),
                                                  dtype=np.int64)
        val = (len(mid_idx) - _plain_rank(outgoing, prime.p)
               - _plain_rank(incoming, prime.p))
        if val:
            out[ab] = val
    return out
