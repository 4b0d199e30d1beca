"""Bigraded Koszul coboundary machinery over lattice-polygon supports.

Basis elements of the p-th wedge power are bit masks over the fixed
point order of the wedge support; the tensor cofactor is implicit (the
bidegree minus the wedge sum) and must lie in the coefficient support.
The coboundary drops any term whose shifted cofactor leaves the target
support.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .linalg import PrimeModulus, ResourceExceeded, SparseMatrixFp, require
from .polygon import (LatticePolygon, Point, PointSet, cross, dilate,
                      dilate_hull, hull_points, interior_hull, minkowski_hull,
                      negate_hull, order_key, sigma_point)


class NotInPolygon(ValueError):
    """A removal candidate is not a lattice point of the polygon."""


class InvalidPlan(ValueError):
    """A removal plan failed re-verification of its certificate."""


@dataclass(frozen=True)
class SupportTriple:
    """One coboundary map: p-wedges over A with coefficients in B,
    landing on (p-1)-wedges with coefficients in C.

    A wedge degree beyond the support size is allowed and denotes the
    zero space; point removal shrinks the support, so top positions
    land there."""

    wedge_support: PointSet
    source_support: PointSet
    target_support: PointSet
    wedge_degree: int

    def __post_init__(self):
        if self.wedge_degree < 0:
            raise ValueError(
                f"wedge degree {self.wedge_degree} must be nonnegative")


@dataclass(frozen=True)
class ComplexSpec:
    """Three-term complex around one homological position.

    ``left`` maps into the middle term, ``right`` maps out of it; the
    strand value at a bidegree is the middle cohomology there.
    ``region`` is the hull of all bidegrees the middle term can meet,
    and symmetries of the polygon act on bidegrees through its linear
    part plus ``translate_degree`` times its shift.
    """

    kind: str
    ell: int
    left: SupportTriple
    right: SupportTriple
    region: tuple[Point, ...]
    translate_degree: int

    def __post_init__(self):
        require(self.left.wedge_support == self.right.wedge_support,
                "the two maps use different wedge supports")
        require(self.left.target_support == self.right.source_support,
                "the left map does not land in the middle term")
        require(self.left.wedge_degree == self.right.wedge_degree + 1,
                "wedge degrees do not step down by one")

    @property
    def wedge_support(self) -> PointSet:
        return self.left.wedge_support


@dataclass(frozen=True)
class RemovalPlan:
    """Lattice points removed from every support, with the geometric
    certificate that makes the removal exact."""

    removed: tuple[Point, ...]
    certificate: str

    def __post_init__(self):
        kinds = {"empty": 0, "single": 1, "opposite_pair": 2, "triangle": 3}
        if self.certificate not in kinds:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if len(self.removed) != kinds[self.certificate]:
            raise ValueError(
                f"{self.certificate} plan must remove "
                f"{kinds[self.certificate]} points, got {len(self.removed)}")


EMPTY_PLAN = RemovalPlan((), "empty")


def verify_plan(poly: LatticePolygon, plan: RemovalPlan) -> None:
    pts = poly.points
    for p in plan.removed:
        if p not in pts:
            raise InvalidPlan(f"{p} is not a lattice point of the polygon")
    if plan.certificate == "empty":
        return
    if plan.certificate == "single":
        return
    if plan.certificate == "opposite_pair":
        if not regular_pair(poly, *plan.removed):
            raise InvalidPlan(f"{plan.removed} is not a regular pair")
    elif not regular_triple(poly, *plan.removed):
        raise InvalidPlan(f"{plan.removed} is not a regular triple")


def regular_pair(poly: LatticePolygon, p: Point, q: Point) -> bool:
    """Both half-planes of line pq must clip the polygon to a triangle
    with p, q as two of its vertices, or to the bare segment pq."""
    if p == q:
        raise ValueError("the two points must be distinct")
    pts = poly.points
    if p not in pts or q not in pts:
        raise NotInPolygon(f"{p} or {q} outside the polygon")
    d = (q[0] - p[0], q[1] - p[1])
    t_lo, t_hi = None, None
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        base = cross(a, b, p)
        slope = (b[0] - a[0]) * d[1] - (b[1] - a[1]) * d[0]
        if slope == 0:
            require(base >= 0, "polygon edge parallel to pq faces away")
            continue
        bound = Fraction(-base, slope)
        if slope > 0:
            t_lo = bound if t_lo is None else max(t_lo, bound)
        else:
            t_hi = bound if t_hi is None else min(t_hi, bound)
    if t_lo != 0 or t_hi != 1:
        return False
    pos = sum(1 for v in verts if cross(p, q, v) > 0)
    neg = sum(1 for v in verts if cross(p, q, v) < 0)
    return pos <= 1 and neg <= 1


def regular_triple(poly: LatticePolygon, p: Point, q: Point, r: Point) -> bool:
    """True exactly when the polygon is a triangle with vertices p, q, r."""
    if len({p, q, r}) != 3:
        raise ValueError("the three points must be distinct")
    pts = poly.points
    for x in (p, q, r):
        if x not in pts:
            raise NotInPolygon(f"{x} outside the polygon")
    return len(poly.vertices) == 3 and set(poly.vertices) == {p, q, r}


def pair_criterion_by_enumeration(poly: LatticePolygon, p: Point, q: Point,
                                  q_max: int = 4) -> bool:
    """Containment form of pair regularity, checked degree by degree:
    every lattice point of (kΔ - p) ∩ (kΔ - q) lies in (k-1)Δ."""
    for k in range(1, q_max + 1):
        big = dilate(poly, k).points
        small = dilate(poly, k - 1)
        shared = ({(x - p[0], y - p[1]) for x, y in big}
                  & {(x - q[0], y - q[1]) for x, y in big})
        if not all(small.contains(pt) for pt in shared):
            return False
    return True


def triple_criterion_by_enumeration(poly: LatticePolygon, p: Point, q: Point,
                                    r: Point, q_max: int = 4) -> bool:
    """Containment form of triple regularity, checked degree by degree:
    the first pair passes its criterion, and every lattice point of
    kΔ ∩ ((kΔ + p - r) ∪ (kΔ + q - r)) lies in
    (p + (k-1)Δ) ∪ (q + (k-1)Δ)."""
    if not pair_criterion_by_enumeration(poly, p, q, q_max):
        return False
    for k in range(1, q_max + 1):
        big = dilate(poly, k).points
        small = dilate(poly, k - 1)
        shifted = ({(x + p[0] - r[0], y + p[1] - r[1]) for x, y in big}
                   | {(x + q[0] - r[0], y + q[1] - r[1]) for x, y in big})
        for x, y in set(big) & shifted:
            if not (small.contains((x - p[0], y - p[1]))
                    or small.contains((x - q[0], y - q[1]))):
                return False
    return True


@lru_cache(maxsize=None)
def _plain_region(poly: LatticePolygon, q: int) -> PointSet:
    if q == 0:
        return PointSet.of([(0, 0)])
    return dilate(poly, q).points


@lru_cache(maxsize=None)
def _twisted_region(poly: LatticePolygon, q: int) -> PointSet:
    if q == 0:
        return PointSet.of([])
    return interior_hull(dilate(poly, q)).points


def reduced_supports(poly: LatticePolygon, plan: RemovalPlan, kind: str,
                     q: int) -> PointSet:
    """Degree-q coefficient support after quotienting out the removed
    points: the full region minus its translates by each removed point.

    The differences are not convex, so everything is by enumeration.
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    verify_plan(poly, plan)
    if kind == "plain":
        base = _plain_region(poly, q)
        shift_base = _plain_region(poly, q - 1) if q >= 1 else PointSet.of([])
    elif kind == "twisted":
        base = _twisted_region(poly, q)
        shift_base = _twisted_region(poly, q - 1) if q >= 1 else PointSet.of([])
    else:
        raise ValueError(f"unknown support kind {kind!r}")
    gone: set[Point] = set()
    for px, py in plan.removed:
        gone.update((px + x, py + y) for x, y in shift_base)
    return base.difference(gone)


def _wedge_points(poly: LatticePolygon, plan: RemovalPlan) -> PointSet:
    return poly.points.difference(plan.removed)


def linear_strand_spec(poly: LatticePolygon, ell: int,
                       plan: RemovalPlan = EMPTY_PLAN) -> ComplexSpec:
    """Complex whose middle cohomology at each bidegree contributes to
    the row-one entry at homological position ell.

    Positions past the last table column are legal: the complex exists
    and its cohomology vanishes, which the dimension dump relies on.
    """
    if ell < 1:
        raise ValueError(f"position must be at least 1, got {ell}")
    a = _wedge_points(poly, plan)
    s0 = reduced_supports(poly, plan, "plain", 0)
    s1 = reduced_supports(poly, plan, "plain", 1)
    s2 = reduced_supports(poly, plan, "plain", 2)
    return ComplexSpec(
        kind="primal_b", ell=ell,
        left=SupportTriple(a, s0, s1, ell + 1),
        right=SupportTriple(a, s1, s2, ell),
        region=dilate_hull(poly.vertices, ell + 1),
        translate_degree=ell + 1)


def twisted_strand_spec(poly: LatticePolygon, ell: int,
                        plan: RemovalPlan = EMPTY_PLAN) -> ComplexSpec:
    """Complex computing the row-two entry at position ell through the
    interior-twisted modules; the incoming term is always zero."""
    if ell < 1:
        raise ValueError(f"position must be at least 1, got {ell}")
    a = _wedge_points(poly, plan)
    s0 = reduced_supports(poly, plan, "twisted", 0)
    s1 = reduced_supports(poly, plan, "twisted", 1)
    s2 = reduced_supports(poly, plan, "twisted", 2)
    region = minkowski_hull(dilate_hull(poly.vertices, ell - 1),
                            interior_hull(poly).hull)
    return ComplexSpec(
        kind="dual_c", ell=ell,
        left=SupportTriple(a, s0, s1, ell),
        right=SupportTriple(a, s1, s2, ell - 1),
        region=region,
        translate_degree=ell)


def twisted_quadratic_spec(poly: LatticePolygon, ell: int) -> ComplexSpec:
    """Audit complex: the interior-twisted counterpart of the row-one
    entry at position ell, sitting in wedge degree N - 3 - ell."""
    n = poly.n_points
    if not (1 <= ell <= n - 3):
        raise ValueError(f"position {ell} outside 1..{n - 3}")
    a = poly.points
    p_mid = n - 3 - ell
    s1 = _twisted_region(poly, 1)
    s2 = _twisted_region(poly, 2)
    s3 = _twisted_region(poly, 3)
    region = minkowski_hull(dilate_hull(poly.vertices, p_mid),
                            interior_hull(dilate(poly, 2)).hull)
    return ComplexSpec(
        kind="custom", ell=ell,
        left=SupportTriple(a, s1, s2, p_mid + 1),
        right=SupportTriple(a, s2, s3, p_mid),
        region=region,
        translate_degree=p_mid + 2)


def reduced_complex_spec(poly: LatticePolygon, plan: RemovalPlan, kind: str,
                         ell: int) -> ComplexSpec:
    if kind == "primal_b":
        return linear_strand_spec(poly, ell, plan)
    if kind == "dual_c":
        return twisted_strand_spec(poly, ell, plan)
    raise ValueError(f"unknown complex kind {kind!r}")


def enumerate_bidegrees(spec: ComplexSpec) -> list[Point]:
    """All lattice points of the middle term's bidegree region."""
    return sorted(hull_points(spec.region), key=order_key)


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@lru_cache(maxsize=4)
def _mask_layer(support: PointSet, p: int
                ) -> tuple[np.ndarray, np.ndarray, dict[Point, int]]:
    """All p-subsets of support as uint64 masks grouped by coordinate
    sum: (masks, offsets, index), bucket k being masks[offsets[k]:
    offsets[k + 1]], buckets in order_key order of their sums, index
    mapping a sum to its bucket; in a bucket, combinations order.

    Bounded because a worker needs only the layers of the entry it is
    ranking; treat the arrays as read-only.
    """
    n = len(support)
    if n > 64:
        raise ResourceExceeded(
            f"a wedge support of {n} points does not fit 64-bit masks")
    xy = np.array(support.points, dtype=np.int64).reshape(n, 2)
    # in combinations order the q-subsets of range(s, n) are the last
    # comb(n - s, q), so layer q joins each point s to such a tail
    masks = np.zeros(1, dtype=np.uint64)
    sums = np.zeros((1, 2), dtype=np.int64)
    for q in range(1, min(p, n - p) + 1):
        tails = [(s, len(masks) - comb(n - s - 1, q - 1))
                 for s in range(n - q + 1)]
        masks = np.concatenate([masks[t:] | _BITS[s] for s, t in tails])
        sums = np.concatenate([sums[t:] + xy[s] for s, t in tails])
    if 2 * p > n:   # complements of the (n - p)-subsets, in reverse order
        masks = masks[::-1] ^ np.uint64((1 << n) - 1)
        sums = xy.sum(axis=0) - sums[::-1]
    order = np.lexsort(sums.T)      # stable: by (y, x), then as generated
    masks, sums = masks[order], sums[order]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = (sums[1:, 0] != sums[:-1, 0]) | (sums[1:, 1] != sums[:-1, 1])
    starts = first.nonzero()[0]
    index = {pt: k for k, pt in enumerate(map(tuple, sums[starts].tolist()))}
    return masks, np.concatenate((starts, [len(masks)])), index


def wedge_basis(support: PointSet, coeffs: PointSet, p: int,
                ab: Point) -> np.ndarray:
    """Masks of the p-wedges at bidegree ab whose cofactor ab - sum lies
    in coeffs: the bucket slices in order, so the basis order is the
    layer's."""
    if not 0 <= p <= len(support):
        return np.zeros(0, dtype=np.uint64)
    masks, offsets, index = _mask_layer(support, p)
    ks = sorted(k for k in (index.get((ab[0] - cx, ab[1] - cy))
                            for cx, cy in coeffs) if k is not None)
    return np.concatenate([masks[:0]] + [masks[offsets[k]:offsets[k + 1]]
                                         for k in ks])


def coboundary_matrix(spec: ComplexSpec, ab: Point, prime: PrimeModulus,
                      which: str = "right") -> SparseMatrixFp:
    """Matrix of the outgoing (or incoming) coboundary at one bidegree.

    The s-th omission carries sign (-1)^s, s counted from 1 along the
    increasing wedge order.  A term whose shifted cofactor leaves the
    target support is dropped: its mask is not a row, the row buckets
    being those with cofactor in it.  Columns have at most p entries.
    One pass over each column's omissions fills the row maps and the
    column sets that ``linalg.rank`` eliminates on.
    """
    triple = spec.right if which == "right" else spec.left
    a, p = triple.wedge_support, triple.wedge_degree
    cols = wedge_basis(a, triple.source_support, p, ab)
    row_masks = wedge_basis(a, triple.target_support, p - 1, ab)
    row_of = dict(zip(row_masks.tolist(), range(len(row_masks))))
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    minus = prime.p - 1
    flip = minus ^ 1        # v ^= flip swaps 1 and p - 1 (no-op at p = 2)
    for j, w in enumerate(cols.tolist() if row_of else ()):
        v, rest, hits = minus, w, []
        while rest:
            low = rest & -rest
            rest ^= low
            r = row_of.get(w ^ low)
            if r is not None:
                hits.append(r)
                row = rows.get(r)
                if row is None:
                    rows[r] = {j: v}
                else:
                    row[j] = v
            v ^= flip
        if hits:
            col_rows[j] = set(hits)
    return SparseMatrixFp(len(row_masks), len(cols), rows, col_rows, prime)


@lru_cache(maxsize=64)
def _wedge_layers(a: PointSet) -> tuple[dict, ...]:
    """Bidegree counts of the bare wedge powers of a, degrees 0..len(a).

    Cached because the planner asks for the same support at every
    homological position; treat the returned dicts as read-only.
    """
    coeffs: list[dict[Point, int]] = [{(0, 0): 1}]
    for px, py in a:
        coeffs.append({})
        for t in range(len(coeffs) - 2, -1, -1):
            target = coeffs[t + 1]
            for (x, y), cnt in coeffs[t].items():
                key = (x + px, y + py)
                target[key] = target.get(key, 0) + cnt
    return tuple(coeffs)


def basis_dimension_polynomial(a: PointSet, b: PointSet,
                               p: int) -> dict[Point, int]:
    """Bidegree dimension counts of the p-wedge tensor space over a with
    coefficients in b: the degree-p coefficient of the product
    generating polynomial.  Empty, the zero space, when p is negative or
    exceeds the support size.
    """
    layers = _wedge_layers(a)
    if not 0 <= p < len(layers):
        return {}
    conv: dict[Point, int] = {}
    for (x, y), cnt in layers[p].items():
        for bx, by in b:
            key = (x + bx, y + by)
            conv[key] = conv.get(key, 0) + cnt
    return conv


def side_profile(triple: SupportTriple) -> dict[Point, int]:
    """Per-bidegree column count of one map: the dimension of its source."""
    return basis_dimension_polynomial(triple.wedge_support,
                                      triple.source_support,
                                      triple.wedge_degree)


def target_profile(triple: SupportTriple) -> dict[Point, int]:
    """Per-bidegree row count of one map: the dimension of its target."""
    return basis_dimension_polynomial(triple.wedge_support,
                                      triple.target_support,
                                      triple.wedge_degree - 1)


def middle_profile(spec: ComplexSpec) -> dict[Point, int]:
    """Per-bidegree dimension of the middle term, by generating function."""
    return side_profile(spec.right)


def peak_block(spec: ComplexSpec) -> int:
    prof = middle_profile(spec)
    return max(prof.values(), default=0)


def choose_removal(poly: LatticePolygon, kind: str = "primal_b",
                   ell: int | None = None) -> RemovalPlan:
    """Best exact removal the geometry allows.

    Triangles give up their three vertices; quadrangles one diagonal
    pair; anything else a single vertex.  Ties are broken by the
    predicted size of the largest middle bidegree block, peak memory
    being the binding constraint, then by point order.
    """
    verts = poly.vertices
    if ell is None:
        ell = max(1, (poly.n_points - 2) // 2)

    def peak_for(plan: RemovalPlan) -> int:
        return peak_block(reduced_complex_spec(poly, plan, kind, ell))

    if len(verts) == 3:
        plan = RemovalPlan(tuple(sorted(verts, key=order_key)), "triangle")
        verify_plan(poly, plan)
        return plan
    if len(verts) == 4:
        pairs = [(verts[0], verts[2]), (verts[1], verts[3])]
        plans = [RemovalPlan(tuple(sorted(pr, key=order_key)), "opposite_pair")
                 for pr in pairs]
        for plan in plans:
            verify_plan(poly, plan)
        return min(plans, key=lambda pl: (peak_for(pl), pl.removed))
    plans = [RemovalPlan((v,), "single") for v in verts]
    return min(plans, key=lambda pl: (peak_for(pl), pl.removed))


def support_window(poly: LatticePolygon, p: int, q: int,
                   twisted: bool) -> set[Point]:
    """Bidegrees where the (p, q) cohomology can be nonzero at all: the
    natural region intersected with its reflection through the total
    point sum."""
    n = poly.n_points
    sigma = sigma_point(poly)
    if twisted:
        first = minkowski_hull(dilate_hull(poly.vertices, p),
                               interior_hull(dilate(poly, q)).hull
                               if q >= 1 else ((0, 0),))
        second = dilate_hull(poly.vertices, n - p - q)
    else:
        first = dilate_hull(poly.vertices, p + q)
        inner = (interior_hull(dilate(poly, 3 - q)).hull
                 if 3 - q >= 1 else ((0, 0),))
        second = minkowski_hull(dilate_hull(poly.vertices, n - 3 - p), inner)
    flipped = {(sigma[0] + x, sigma[1] + y)
               for x, y in hull_points(negate_hull(second))}
    return set(hull_points(first)) & flipped
