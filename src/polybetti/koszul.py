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
from itertools import count

from .linalg import PrimeModulus, SparseMatrixFp, require
from .polygon import (LatticePolygon, Point, PointSet, cross, dilate,
                      dilate_hull, hull_points, interior_hull, minkowski_hull,
                      negate_hull, order_key, sigma_point)
from .scope import scoped_cache


@dataclass(frozen=True)
class ComplexSpec:
    """Three-term complex around one homological position: term i
    (i = 0, 1, 2) is the (top - i)-wedges over wedge_support with
    coefficients in supports[i].  The left map runs from term 0 into
    the middle term, the right map from it to term 2; the strand value
    at a bidegree is the middle cohomology there.

    A wedge degree beyond the support size is allowed and denotes the
    zero space; point removal shrinks the support, so top positions
    land there.  ``removed`` lists the polygon points left out of the
    wedge support, whose layer counts deflate from the full support's.
    ``translate_degree`` is the middle term's total degree, its wedge
    degree plus its coefficient degree: symmetries of the polygon act on
    bidegrees through their linear part plus that many times their
    shift.
    """

    strand: str                 # "b", "c", or "mirror" for the audit
    ell: int
    wedge_support: PointSet
    supports: tuple[PointSet, PointSet, PointSet]
    top: int
    translate_degree: int
    removed: tuple[Point, ...] = ()

    def __post_init__(self):
        if self.top < 1:
            raise ValueError(f"top wedge degree {self.top} must be at least 1")
        # deflation divides out one factor per removed point, so a point
        # also in the support would be merged into it, not divided out
        require(not any(p in self.wedge_support for p in self.removed),
                "removed points overlap the wedge support")


@scoped_cache()
def verify_plan(poly: LatticePolygon, removed: tuple[Point, ...]) -> None:
    """Raise ValueError unless quotienting out the removed points is
    exact for poly: each is a lattice point of it, two are a regular
    pair and three a regular triple.  One point needs nothing more,
    every variable being a nonzerodivisor on the toric ring.  Cached
    per polygon and plan: a plan that fails is never cached, so it fails
    again on every call."""
    pts = poly.points
    for p in removed:
        if p not in pts:
            raise ValueError(f"{p} is not a lattice point of the polygon")
    if len(removed) > 3:
        raise ValueError(f"{removed} removes more than three points")
    if len(removed) == 2 and not regular_pair(poly, *removed):
        raise ValueError(f"{removed} is not a regular pair")
    if len(removed) == 3 and not regular_triple(poly, *removed):
        raise ValueError(f"{removed} is not a regular triple")


def regular_pair(poly: LatticePolygon, p: Point, q: Point) -> bool:
    """Both half-planes of line pq must clip the polygon to a triangle
    with p, q as two of its vertices, or to the bare segment pq."""
    if p == q:
        raise ValueError("the two points must be distinct")
    pts = poly.points
    if p not in pts or q not in pts:
        raise ValueError(f"{p} or {q} outside the polygon")
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
            raise ValueError(f"{x} outside the polygon")
    return len(poly.vertices) == 3 and set(poly.vertices) == {p, q, r}


def _dilate_contains(poly: LatticePolygon, k: int):
    """Membership test of kΔ, k >= 0; 0Δ is the origin alone."""
    return dilate(poly, k).contains if k else lambda pt: pt == (0, 0)


def pair_criterion_by_enumeration(poly: LatticePolygon, p: Point, q: Point,
                                  q_max: int = 4) -> bool:
    """Containment form of pair regularity, checked degree by degree:
    every lattice point of (kΔ - p) ∩ (kΔ - q) lies in (k-1)Δ."""
    for k in range(1, q_max + 1):
        big = dilate(poly, k).points
        small = _dilate_contains(poly, k - 1)
        shared = ({(x - p[0], y - p[1]) for x, y in big}
                  & {(x - q[0], y - q[1]) for x, y in big})
        if not all(small(pt) for pt in shared):
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
        small = _dilate_contains(poly, k - 1)
        shifted = ({(x + p[0] - r[0], y + p[1] - r[1]) for x, y in big}
                   | {(x + q[0] - r[0], y + q[1] - r[1]) for x, y in big})
        for x, y in set(big) & shifted:
            if not (small((x - p[0], y - p[1]))
                    or small((x - q[0], y - q[1]))):
                return False
    return True


def _region(poly: LatticePolygon, twisted: bool, q: int) -> PointSet:
    """Degree-q coefficient support, plain or interior-twisted."""
    if q == 0:
        return PointSet.of([] if twisted else [(0, 0)])
    dilated = dilate(poly, q)
    return interior_hull(dilated).points if twisted else dilated.points


def bidegree_hull(poly: LatticePolygon, p: int, q: int,
                  twisted: bool) -> tuple[Point, ...]:
    """Hull of the bidegrees of p-wedges with coefficients in degree q:
    pΔ + qΔ plain, pΔ + int(qΔ) interior-twisted, q >= 1."""
    if not twisted:
        return dilate_hull(poly.vertices, p + q)
    return minkowski_hull(dilate_hull(poly.vertices, p),
                          interior_hull(dilate(poly, q)).hull)


@scoped_cache()
def reduced_supports(poly: LatticePolygon, removed: tuple[Point, ...],
                     twisted: bool, q: int) -> PointSet:
    """Degree-q coefficient support, plain or interior-twisted, after
    quotienting out the removed points: the full region minus its
    translates by each removed point.

    The differences are not convex, so everything is by enumeration.
    Cached per polygon and plan, so a plan is verified and its supports
    built once per table, not once per position.
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    verify_plan(poly, removed)
    base = _region(poly, twisted, q)
    if not removed:
        return base
    shift_base = _region(poly, twisted, q - 1) if q >= 1 else PointSet.of([])
    gone: set[Point] = set()
    for px, py in removed:
        gone.update((px + x, py + y) for x, y in shift_base)
    return base.difference(gone)


@scoped_cache()
def strand_spec(poly: LatticePolygon, strand: str, ell: int,
                removed: tuple[Point, ...] = ()) -> ComplexSpec:
    """Complex whose middle cohomology at each bidegree contributes to
    the table entry at homological position ell: row one ("b") through
    the plain modules, row two ("c") through the interior-twisted ones,
    one wedge degree lower, where the incoming term is always zero.

    Positions past the last table column are legal: the complex exists
    and its cohomology vanishes, which the dimension dump relies on.
    Cached per polygon: routing and the entry it routes share a spec.
    """
    if strand not in ("b", "c"):
        raise ValueError(f"unknown strand {strand!r}")
    if ell < 1:
        raise ValueError(f"position must be at least 1, got {ell}")
    twisted = strand == "c"
    a = poly.points.difference(removed) if removed else poly.points
    top = ell if twisted else ell + 1       # the incoming map's wedge degree
    return ComplexSpec(strand, ell, a, tuple(
        reduced_supports(poly, removed, twisted, q) for q in range(3)),
        top, top, removed)


def twisted_quadratic_spec(poly: LatticePolygon, ell: int) -> ComplexSpec:
    """Audit complex: the interior-twisted counterpart of the row-one
    entry at position ell, sitting in wedge degree N - 3 - ell."""
    n = poly.n_points
    if not (1 <= ell <= n - 3):
        raise ValueError(f"position {ell} outside 1..{n - 3}")
    p_mid = n - 3 - ell
    return ComplexSpec("mirror", ell, poly.points, tuple(
        _region(poly, True, q) for q in (1, 2, 3)), p_mid + 1, p_mid + 2)


def enumerate_bidegrees(poly: LatticePolygon,
                        spec: ComplexSpec) -> list[Point]:
    """All lattice points of the hull of the bidegrees the middle term
    can meet: its wedge degree top - 1 over poly, its coefficient degree
    the rest of translate_degree, interior-twisted off row one."""
    p = spec.top - 1
    hull = bidegree_hull(poly, p, spec.translate_degree - p,
                         spec.strand != "b")
    return sorted(hull_points(hull), key=order_key)


@scoped_cache(maxsize=4)
def _mask_layer(support: PointSet, p: int) -> dict[Point, list[int]]:
    """All p-subsets of support as int masks, bucketed by coordinate
    sum: a dict from sum to bucket, its keys in order_key order; in a
    bucket, combinations order.

    Bounded because a worker needs only the layers of the entry it is
    ranking; treat the buckets as read-only.
    """
    n = len(support)
    xs = [x for x, _ in support]
    ys = [y for _, y in support]
    x0, y0 = min(xs, default=0), min(ys, default=0)
    # a sum of points packed y-major into one int, so that int order is
    # order_key order: the x part of a sum never carries into the y part
    width = n * (max(xs, default=0) - x0) + 1
    packed = [(y - y0) * width + x - x0 for x, y in support]
    # below[q]: the q-subsets of range(s, n) bucketed by packed sum, in
    # combinations order: those holding s, each s joined to a (q - 1)-
    # subset of range(s + 1, n), before those that do not.  Only the
    # degrees that can still reach k at s = 0 are kept.
    k = min(p, n - p)
    below: dict[int, dict[int, list[int]]] = {0: {0: [0]}}
    for s in range(n - 1, -1, -1):
        bit, key, above = 1 << s, packed[s], below
        below = {}
        for q in range(max(0, k - s), min(k, n - s) + 1):
            out = {v + key: [w | bit for w in bucket]
                   for v, bucket in above.get(q - 1, {}).items()}
            # the subsets without s keep their buckets; got, if any, is a
            # list made just above, so extending it changes no shared one
            for v, bucket in above.get(q, {}).items():
                got = out.get(v)
                if got is None:
                    out[v] = bucket
                else:
                    got += bucket
            below[q] = out
    layer = below[k]
    if 2 * p > n:   # complements of the (n - p)-subsets, in reverse order
        full, total = (1 << n) - 1, sum(packed)
        layer = {total - v: [full ^ w for w in reversed(layer.pop(v))]
                 for v in list(layer)}
    return {(v % width + p * x0, v // width + p * y0): layer[v]
            for v in sorted(layer)}


def _buckets(support: PointSet, coeffs: PointSet, p: int, ab: Point):
    """(cofactor, bucket) for every nonempty bucket of p-wedges at
    bidegree ab whose cofactor ab - sum lies in coeffs, in order_key
    order of the sums: coeffs walked backwards."""
    if not 0 <= p <= len(support):
        return
    layer = _mask_layer(support, p)
    x, y = ab
    for c in reversed(coeffs.points):
        bucket = layer.get((x - c[0], y - c[1]))
        if bucket:
            yield c, bucket


def wedge_basis(support: PointSet, coeffs: PointSet, p: int,
                ab: Point) -> list[int]:
    """Masks of the p-wedges at bidegree ab whose cofactor ab - sum lies
    in coeffs: the buckets in order, so the basis order is the
    layer's."""
    return [w for _, bucket in _buckets(support, coeffs, p, ab)
            for w in bucket]


@scoped_cache(maxsize=16)
def _reach(wedge: PointSet, source: PointSet, target: PointSet
           ) -> tuple[dict[Point, int], dict[Point, int]]:
    """Two masks over the wedge points, both read off the supports.
    For each cofactor c in source, the points x with c + x in target:
    the omissions of a column with cofactor c that land on a row.  For
    each cofactor d in target, the points x with d - x in source: the
    insertions that take a row with cofactor d to a column.

    Bounded because a pool worker may serve many polygons in one
    scope; one call uses fewer."""
    pts = list(enumerate(wedge))
    reach = {c: sum(1 << i for i, (x, y) in pts
                    if (c[0] + x, c[1] + y) in target)
             for c in source}
    coreach = {d: sum(1 << i for i, (x, y) in pts
                      if (d[0] - x, d[1] - y) in source)
               for d in target}
    return reach, coreach


def coboundary_matrix(spec: ComplexSpec, ab: Point, prime: PrimeModulus,
                      which: str = "right") -> SparseMatrixFp:
    """Matrix of the outgoing (or incoming) coboundary at one bidegree,
    with the pivots that singleton rows force taken before any entry is
    built.

    The s-th omission carries sign (-1)^s, s counted from 1 along the
    increasing wedge order.  A term whose shifted cofactor leaves the
    target support is dropped: its mask is not a row, the row buckets
    being those with cofactor in it, and the column's reach mask skips
    it.  Columns have at most p entries.  One pass over each column's
    omissions fills the row maps and the column sets that
    ``linalg.rank`` eliminates on.

    A row w' with cofactor d meets the columns w' | x for x in
    coreach[d] & ~w'; when that is one point, the row's one entry is a
    pivot in its column.  Each such column has a singleton row of its
    own, so all of them are pivots at once: they count in ``taken`` and
    in ``n_cols`` and are left empty, and no other entry of theirs is
    built.  The rank is unchanged.
    """
    i = 1 if which == "right" else 0
    a, p = spec.wedge_support, spec.top - i
    source, target = spec.supports[i], spec.supports[i + 1]
    cols = _buckets(a, source, p, ab)
    row_buckets = list(_buckets(a, target, p - 1, ab))
    if not row_buckets:
        return SparseMatrixFp(0, sum(len(bucket) for _, bucket in cols), {},
                              {}, prime)
    reach, coreach = _reach(a, source, target)
    row_of: dict[int, int] = {}
    forced: set[int] = set()
    for d, bucket in row_buckets:
        row_of.update(zip(bucket, count(len(row_of))))
        free_mask = coreach[d]
        for w in bucket:
            free = free_mask & ~w
            if free and not free & (free - 1):
                forced.add(w | free)
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    minus = prime.p - 1
    j = 0
    for c, bucket in cols:
        hit_mask = reach[c]
        for w in bucket:
            if w in forced:
                j += 1
                continue
            rest, hits = w & hit_mask, []
            while rest:
                low = rest & -rest
                rest ^= low
                r = row_of[w ^ low]
                hits.append(r)
                # (-1)^s, s - 1 being the number of points below low
                v = 1 if (w & (low - 1)).bit_count() & 1 else minus
                row = rows.get(r)
                if row is None:
                    rows[r] = {j: v}
                else:
                    row[j] = v
            if hits:
                col_rows[j] = set(hits)
            j += 1
    return SparseMatrixFp(len(row_of), j, rows, col_rows, prime,
                          len(forced))


def _deflate(low: list[dict], v: Point) -> list[dict]:
    """Layers of a support, degree by degree, from the same degrees of
    the support with v added: the product divided by (1 + z s^v), whose
    degree-t coefficient is F_t - s^v G_(t-1), exactly, term by term.
    Counts that cancel to zero are dropped, as the product never holds
    them."""
    vx, vy = v
    out = [low[0]]
    for layer in low[1:]:
        get = out[-1].get
        cur = {}
        for key, cnt in layer.items():
            cnt -= get((key[0] - vx, key[1] - vy), 0)
            if cnt:
                cur[key] = cnt
        out.append(cur)
    return out


@scoped_cache()
def _wedge_layers(a: PointSet, removed: tuple[Point, ...]
                  ) -> tuple[dict, ...]:
    """Bidegree counts of the bare wedge powers of a, degrees 0 to
    len(a) // 2; basis_dimension_polynomial mirrors a higher degree.

    They are deflated, one removed point at a time, from those of the
    full support a ∪ removed, which every removal candidate and
    position shares; with nothing removed they are multiplied out point
    by point.  Cached because the planner asks for the same support at
    every homological position; treat the returned dicts as read-only.
    The cache keys a call without removed apart, so always pass it.
    """
    half = len(a) // 2
    if removed:
        full = PointSet.of(a.points + removed)
        low = _wedge_layers(full, ())[:half + 1]
        for v in removed:
            low = _deflate(low, v)
    else:
        low = [{(0, 0): 1}]
        for px, py in a:
            if len(low) <= half:
                low.append({})
            for t in range(len(low) - 2, -1, -1):
                target = low[t + 1]
                for (x, y), cnt in low[t].items():
                    key = (x + px, y + py)
                    target[key] = target.get(key, 0) + cnt
    return tuple(low)


def basis_dimension_polynomial(a: PointSet, b: PointSet, p: int,
                               removed: tuple[Point, ...] = ()
                               ) -> dict[Point, int]:
    """Bidegree dimension counts of the p-wedge tensor space over a with
    coefficients in b: the degree-p coefficient of the product
    generating polynomial.  Empty, the zero space, when p is negative or
    exceeds the support size.  removed, the points a lacks, lets its
    layers deflate from the full support's.
    """
    low, n = _wedge_layers(a, removed), len(a)
    if not (0 <= p <= n and b):
        return {}
    if p < len(low):
        layer = low[p]
    else:   # a p-subset is the complement of an (n - p)-subset
        sx, sy = sum(x for x, _ in a), sum(y for _, y in a)
        layer = {(sx - x, sy - y): cnt
                 for (x, y), cnt in low[n - p].items()}
    # sums packed y-major into ints, x taken from the least x sum so that
    # it never carries into y: ints add and hash faster than tuples
    x0 = min(x for x, _ in layer) + min(x for x, _ in b)
    width = max(x for x, _ in layer) + max(x for x, _ in b) - x0 + 1
    shifts = [y * width + x for x, y in b]
    conv: dict[int, int] = {}
    get = conv.get
    for (x, y), cnt in layer.items():
        base = y * width + x - x0
        for key in shifts:
            key += base
            conv[key] = get(key, 0) + cnt
    return {(key % width + x0, key // width): cnt
            for key, cnt in conv.items()}


def term_profile(spec: ComplexSpec, i: int) -> dict[Point, int]:
    """Per-bidegree dimension of term i, by generating function: the
    column count of the map out of it, the row count of the one in."""
    return basis_dimension_polynomial(spec.wedge_support, spec.supports[i],
                                      spec.top - i, spec.removed)


def middle_profile(spec: ComplexSpec) -> dict[Point, int]:
    """Per-bidegree dimension of the middle term, by generating function."""
    return term_profile(spec, 1)


def peak_block(spec: ComplexSpec) -> int:
    prof = middle_profile(spec)
    return max(prof.values(), default=0)


@scoped_cache()
def choose_removal(poly: LatticePolygon,
                   strand: str = "b") -> tuple[Point, ...]:
    """Best exact removal the geometry allows, its points in order_key
    order.

    Triangles give up their three vertices; quadrangles one diagonal
    pair; anything else a single vertex.  Ties are broken by the
    predicted size of the largest middle bidegree block at the middle
    position, peak memory being the binding constraint, then by point
    order.  Cached like the other per-polygon geometry, so a (polygon,
    strand) asked for positionally is planned once.
    """
    verts = poly.vertices
    ell = max(1, (poly.n_points - 2) // 2)
    if len(verts) == 3:
        plans = [verts]
    elif len(verts) == 4:
        plans = [(verts[0], verts[2]), (verts[1], verts[3])]
    else:
        plans = [(v,) for v in verts]
    plans = [tuple(sorted(pl, key=order_key)) for pl in plans]
    for removed in plans:
        verify_plan(poly, removed)
    if len(plans) == 1:         # a triangle's corners: nothing to size
        return plans[0]
    return min(plans, key=lambda removed: (
        peak_block(strand_spec(poly, strand, ell, removed)), removed))


def support_window(poly: LatticePolygon, p: int,
                   twisted: bool) -> set[Point]:
    """Bidegrees where the degree-1 cohomology of p-wedges can be nonzero
    at all: its bidegree hull intersected with the reflection, through
    the total point sum, of its dual's, which sits in wedge degree
    n - 3 - p with coefficients in degree 2 and the other twist."""
    sx, sy = sigma_point(poly)
    dual = bidegree_hull(poly, poly.n_points - 3 - p, 2, not twisted)
    flipped = {(sx + x, sy + y) for x, y in hull_points(negate_hull(dual))}
    return set(hull_points(bidegree_hull(poly, p, 1, twisted))) & flipped
