"""Exact geometry of convex lattice polygons in ZZ^2.

Lattice points are plain ``(x, y)`` tuples of ints.  Point sets carry a
fixed total order, lexicographic by ``(y, x)``; every wedge basis and
matrix layout downstream inherits that order.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .linalg import is_integer_text, require
from .scope import scoped_cache

Point = tuple[int, int]


class DimensionError(ValueError):
    """A construction that needs a two-dimensional polygon got less."""


def order_key(pt: Point) -> tuple[int, int]:
    """Sort key realizing the (y, x)-lexicographic order."""
    return (pt[1], pt[0])


def cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[Point]:
    """Strict convex hull, counterclockwise, no three collinear vertices.

    Degenerate inputs give back one point or the two segment endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts

    def chain(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class PointSet:
    """A finite set of lattice points in the fixed (y, x) order."""

    points: tuple[Point, ...]

    @classmethod
    def of(cls, pts) -> "PointSet":
        return cls(tuple(sorted(set(pts), key=order_key)))

    @cached_property
    def _members(self) -> frozenset[Point]:
        return frozenset(self.points)

    def __reduce__(self):
        # the points alone: the member set is rebuilt where it is tested,
        # not pickled with every spec sent to a worker
        return PointSet, (self.points,)

    def __contains__(self, pt) -> bool:
        return pt in self._members

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __bool__(self) -> bool:
        return bool(self.points)

    def difference(self, removed) -> "PointSet":
        gone = set(removed)
        return PointSet(tuple(p for p in self.points if p not in gone))


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon given by its counterclockwise vertex cycle;
    always two-dimensional."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise DimensionError(
                f"hull of {list(self.vertices)} is not two-dimensional")
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i - 1]
            b = self.vertices[i]
            c = self.vertices[(i + 1) % n]
            if cross(a, b, c) <= 0:
                raise DimensionError(
                    "vertices must be strictly convex counterclockwise")

    @cached_property
    def area2(self) -> int:
        """Twice the Euclidean area (shoelace), an exact integer."""
        v = self.vertices
        return sum(v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1]
                   for i in range(len(v)))

    @cached_property
    def boundary_count(self) -> int:
        v = self.vertices
        return sum(math.gcd(abs(v[i][0] - v[i - 1][0]),
                            abs(v[i][1] - v[i - 1][1]))
                   for i in range(len(v)))

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def _row_range(self, y: int) -> tuple[int, int]:
        """First and last lattice x of row y: the ceiling of the least
        and the floor of the greatest edge crossing, each crossing
        px + (y - py)(qx - px)/(qy - py) rounded by integer division."""
        los: list[int] = []
        his: list[int] = []
        v = self.vertices
        n = len(v)
        for i in range(n):
            (px, py), (qx, qy) = v[i], v[(i + 1) % n]
            if py == qy:
                if py == y:
                    los.append(min(px, qx))
                    his.append(max(px, qx))
            elif min(py, qy) <= y <= max(py, qy):
                num = px * (qy - py) + (y - py) * (qx - px)
                den = qy - py
                if den < 0:
                    num, den = -num, -den
                los.append(-(-num // den))
                his.append(num // den)
        return min(los), max(his)

    @cached_property
    def points(self) -> PointSet:
        out: list[Point] = []
        x0, y0, x1, y1 = self.bbox
        for y in range(y0, y1 + 1):
            lo, hi = self._row_range(y)
            out.extend((x, y) for x in range(lo, hi + 1))
        ps = PointSet(tuple(out))     # rows in turn: already in (y, x) order
        require(self.area2 == 2 * len(ps) - self.boundary_count - 2,
                "point count disagrees with Pick's formula")
        return ps

    @property
    def n_points(self) -> int:
        return len(self.points)

    def contains(self, pt: Point) -> bool:
        v = self.vertices
        n = len(v)
        return all(cross(v[i], v[(i + 1) % n], pt) >= 0 for i in range(n))

    def strictly_contains(self, pt: Point) -> bool:
        v = self.vertices
        n = len(v)
        return all(cross(v[i], v[(i + 1) % n], pt) > 0 for i in range(n))


def from_vertices(pts) -> LatticePolygon:
    """Convex hull of the given points as a polygon; order is irrelevant."""
    hull = convex_hull(pts)
    if len(hull) < 3:
        raise DimensionError(f"hull of {sorted(set(pts))} is not two-dimensional")
    return LatticePolygon(tuple(hull))


@dataclass(frozen=True)
class InteriorHull:
    """Strictly interior lattice points together with their hull; dim
    is the hull's dimension, -1 when there are no interior points."""

    points: PointSet
    hull: tuple[Point, ...]

    @property
    def dim(self) -> int:
        return min(len(self.hull), 3) - 1


@scoped_cache()
def interior_hull(poly: LatticePolygon) -> InteriorHull:
    inner = [p for p in poly.points if poly.strictly_contains(p)]
    return InteriorHull(PointSet.of(inner), tuple(convex_hull(inner)))


@scoped_cache()
def dilate(poly: LatticePolygon, q: int) -> LatticePolygon:
    """The q-fold dilation qΔ, q >= 1; the single point 0Δ is not a
    polygon, so callers that reach degree 0 handle it themselves."""
    if q < 1:
        raise ValueError(f"dilation factor must be positive, got {q}")
    if q == 1:
        return poly
    return LatticePolygon(tuple((q * x, q * y) for x, y in poly.vertices))


def segment_points(a: Point, b: Point) -> list[Point]:
    """All lattice points on the closed segment from a to b."""
    g = math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
    if g == 0:
        return [a]
    dx, dy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    return [(a[0] + i * dx, a[1] + i * dy) for i in range(g + 1)]


def hull_points(hull: tuple[Point, ...]) -> list[Point]:
    """Lattice points of a hull that may be a point, segment, or polygon."""
    if not hull:
        return []
    if len(hull) == 1:
        return [hull[0]]
    if len(hull) == 2:
        return segment_points(hull[0], hull[1])
    return list(LatticePolygon(tuple(hull)).points)


def minkowski_hull(*hulls: tuple[Point, ...]) -> tuple[Point, ...]:
    """Hull of the Minkowski sum of hulls; empty if any summand is empty."""
    acc: tuple[Point, ...] = ((0, 0),)
    for h in hulls:
        if not h:
            return ()
        acc = tuple(convex_hull({(x + hx, y + hy)
                                 for x, y in acc for hx, hy in h}))
    return acc


def dilate_hull(hull: tuple[Point, ...], q: int) -> tuple[Point, ...]:
    if q == 0:
        return ((0, 0),) if hull else ()
    return tuple((q * x, q * y) for x, y in hull)


def negate_hull(hull: tuple[Point, ...]) -> tuple[Point, ...]:
    return tuple(convex_hull([(-x, -y) for x, y in hull]))


def _width(verts, u: Point) -> int:
    """Strip height of the vertices along direction u."""
    vals = [u[0] * x + u[1] * y for x, y in verts]
    return max(vals) - min(vals)


def _least_shears(verts, b1: Point, b2: Point) -> list[int]:
    """Every integer k, in increasing order, at which width(b2 - k b1)
    is least.  The width is convex in k, so the minimizers form one run,
    and it is at least |k| width(b1) - width(b2), so the run lies in
    |k| <= 2 width(b2) // width(b1).  Bisection finds the first k whose
    step to k + 1 does not descend; the run is walked from there."""
    def along(k: int) -> int:
        return _width(verts, (b2[0] - k * b1[0], b2[1] - k * b1[1]))

    lo = -(2 * _width(verts, b2) // _width(verts, b1))
    hi = -lo
    while lo < hi:
        mid = (lo + hi) // 2
        if along(mid + 1) >= along(mid):
            hi = mid
        else:
            lo = mid + 1
    least, shears = along(lo), [lo]
    while along(shears[-1] + 1) == least:
        shears.append(shears[-1] + 1)
    return shears


def _reduced_basis(verts) -> tuple[Point, Point]:
    """A basis (b1, b2) of the integer directions, Gauss-reduced for the
    width, a norm on the directions of a two-dimensional polygon:
    width(b1) <= width(b2) <= width(b2 - k b1) for every integer k
    (Kaib and Schnorr, J. Algorithms 21, 1996).  Each step shears b2 by
    its first least shear against b1, and swaps the two while b2 is the
    narrower; the steps are Euclid's, logarithmic in the coordinates."""
    b1, b2 = (1, 0), (0, 1)
    if _width(verts, b1) > _width(verts, b2):
        b1, b2 = b2, b1
    while True:
        k = _least_shears(verts, b1, b2)[0]
        b2 = (b2[0] - k * b1[0], b2[1] - k * b1[1])
        if _width(verts, b2) >= _width(verts, b1):
            return b1, b2
        b1, b2 = b2, b1


@scoped_cache()
def lattice_width_data(poly: LatticePolygon) -> tuple[int, tuple[Point, ...]]:
    """Lattice width plus all primitive directions attaining it.

    Directions are normalized up to sign: first coordinate positive, or
    zero with positive second coordinate.  Let N be the width and
    (b1, b2) the reduced basis: N(b1) <= N(b2) <= N(b2 + k b1) for
    every integer k.  The width is λ = N(b1), and its directions are the
    primitive u1 b1 + u2 b2 of width λ with 0 <= u1 <= 2 and |u2| <= 2,
    a window that does not grow with the embedding.

    Proof.  N is a norm on real directions.  Take u2 != 0 and k the
    integer nearest u1/u2: N(u) = |u2| N(b2 + (u1/u2) b1) >=
    |u2| (N(b2 + k b1) - N(b1)/2) >= |u2| (N(b2) - N(b1)/2).  For
    |u2| = 1, u1/u2 = k and N(u) = N(b2 + k b1) >= N(b2); for |u2| >= 2,
    N(u) >= 2 N(b2) - N(b1) >= N(b2).  A primitive u with u2 = 0 is
    +-b1, so the width is λ.  A width direction with u2 != 0 forces
    N(b2) = λ, and then λ >= |u2| λ/2, so |u2| <= 2.  Exchanging b1 and
    b2, as N(b1 + j b2) >= λ for every j, gives |u1| <= 2.  The bound is
    reached: 0,1 6,4 6,7 0,4 has the standard basis as its reduced
    basis and (1, -2) among its four width directions.
    """
    verts = poly.vertices
    b1, b2 = _reduced_basis(verts)
    width = _width(verts, b1)
    dirs: list[Point] = []
    for u1 in range(3):
        for u2 in range(-2, 3):
            if (u1 == 0 and u2 <= 0) or math.gcd(u1, u2) != 1:
                continue
            d = (u1 * b1[0] + u2 * b2[0], u1 * b1[1] + u2 * b2[1])
            if _width(verts, d) == width:
                dirs.append(d if d[0] > 0 or (d[0] == 0 and d[1] > 0)
                            else (-d[0], -d[1]))
    return width, tuple(sorted(dirs))


def lattice_width(poly: LatticePolygon) -> int:
    """Minimal strip height over primitive directions."""
    return lattice_width_data(poly)[0]


@dataclass(frozen=True)
class AffineUnimodularMap:
    """x -> matrix @ x + shift with an integer matrix of determinant +-1."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    shift: Point

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if abs(a * d - b * c) != 1:
            raise ValueError(f"matrix {self.matrix} is not unimodular")

    def __call__(self, pt: Point) -> Point:
        (a, b), (c, d) = self.matrix
        x, y = pt
        return (a * x + b * y + self.shift[0], c * x + d * y + self.shift[1])


def _affine_from_triples(src, dst) -> AffineUnimodularMap | None:
    """Integer affine map sending the three src points, which span a
    triangle, to dst, if one exists."""
    (s0, s1, s2), (t0, t1, t2) = src, dst
    e1 = (s1[0] - s0[0], s1[1] - s0[1])
    e2 = (s2[0] - s0[0], s2[1] - s0[1])
    f1 = (t1[0] - t0[0], t1[1] - t0[1])
    f2 = (t2[0] - t0[0], t2[1] - t0[1])
    det = e1[0] * e2[1] - e1[1] * e2[0]
    # matrix @ (e1 | e2) = (f1 | f2), solved through the adjugate
    a_num = f1[0] * e2[1] - f2[0] * e1[1]
    b_num = f2[0] * e1[0] - f1[0] * e2[0]
    c_num = f1[1] * e2[1] - f2[1] * e1[1]
    d_num = f2[1] * e1[0] - f1[1] * e2[0]
    if any(v % det for v in (a_num, b_num, c_num, d_num)):
        return None
    mat = ((a_num // det, b_num // det), (c_num // det, d_num // det))
    if abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) != 1:
        return None
    lin = AffineUnimodularMap(mat, (0, 0))
    lx, ly = lin(s0)
    return AffineUnimodularMap(mat, (t0[0] - lx, t0[1] - ly))


@scoped_cache()
def symmetry_group(poly: LatticePolygon) -> tuple[AffineUnimodularMap, ...]:
    """All integer affine unimodular maps fixing the point set setwise."""
    verts = poly.vertices
    k = len(verts)
    pts = frozenset(p for p in poly.points)
    found: list[AffineUnimodularMap] = []
    for offset in range(k):
        for eps in (1, -1):
            dst = tuple(verts[(eps * i + offset) % k] for i in range(3))
            m = _affine_from_triples(verts[:3], dst)
            if m is None:
                continue
            if all(m(p) in pts for p in pts):
                found.append(m)
    uniq = {(m.matrix, m.shift): m for m in found}
    return tuple(uniq[key] for key in sorted(uniq))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def strip_placements(poly: LatticePolygon) -> tuple[tuple[Point, ...], ...]:
    """Point tuples of every normalized placement used for canonicalization.

    For each width direction u (both signs), each x-axis sign s, and
    each shear k attaining the minimal horizontal extent, the polygon
    is mapped into the strip RR x [0, lw] and translated so minima sit
    at zero.  Each placement is checked to be a unimodular image of the
    point set.

    The horizontal extent after shear k is the width of s row1 + k u,
    row1 completing u to a unimodular basis, so `_least_shears` finds
    every least k on the vertices alone, at a cost logarithmic in how
    skewed the embedding is.
    """
    w, dirs = lattice_width_data(poly)
    base_pts = list(poly.points)
    out: list[tuple[Point, ...]] = []
    for u in sorted(set(dirs) | {(-a, -b) for a, b in dirs}):
        u1, u2 = u
        g, x, y = _xgcd(u2, u1)
        row1 = (x, -y)
        require(g == 1 and row1[0] * u2 - row1[1] * u1 == 1,
                f"direction {u} does not extend to a unimodular basis")
        for s in (1, -1):
            lin = ((s * row1[0], s * row1[1]), (u1, u2))
            coords = [(lin[0][0] * px + lin[0][1] * py,
                       lin[1][0] * px + lin[1][1] * py)
                      for px, py in base_pts]
            for k in _least_shears(poly.vertices, (-u1, -u2), lin[0]):
                mat = ((lin[0][0] + k * u1, lin[0][1] + k * u2), (u1, u2))
                moved = [(cx + k * cy, cy) for cx, cy in coords]
                min_x = min(p[0] for p in moved)
                min_y = min(p[1] for p in moved)
                final = tuple(sorted(((px - min_x, py - min_y)
                                      for px, py in moved), key=order_key))
                amap = AffineUnimodularMap(mat, (-min_x, -min_y))
                require(set(map(amap, base_pts)) <= set(final),
                        "placement map misses the placed points")
                out.append(final)
    require(all(max(p[1] for p in pl) == w for pl in out),
            "a placement is not as tall as the lattice width")
    return tuple(out)


@scoped_cache()
def canonical_form(poly: LatticePolygon) -> tuple[Point, ...]:
    """Canonical point tuple under unimodular equivalence.

    Equivalent polygons give identical tuples: the candidate placements
    are constructed equivalence-invariantly and the lexicographically
    smallest point tuple is selected.  Equal tuples prove equivalence,
    since every placement is checked to be a unimodular image.
    """
    return min(strip_placements(poly))


@dataclass(frozen=True)
class PolygonClass:
    """Recognized model family of a polygon."""

    tag: str
    params: tuple[int, ...]


def standard_triangle(d: int) -> LatticePolygon:
    """The triangle with legs of length d on the axes."""
    if d < 1:
        raise ValueError("side length must be positive")
    return LatticePolygon(((0, 0), (d, 0), (0, d)))


def upsilon_triangle(d: int = 1) -> LatticePolygon:
    """The d-fold dilation of the triangle (-1,-1), (1,0), (0,1)."""
    if d < 1:
        raise ValueError("dilation factor must be positive")
    return LatticePolygon(((-d, -d), (d, 0), (0, d)))


def upsilon_indexed(d: int) -> LatticePolygon:
    """The triangle (-1,-1), (d,0), (0,d)."""
    if d < 1:
        raise ValueError("index must be positive")
    return LatticePolygon(((-1, -1), (d, 0), (0, d)))


def lawrence_prism(a: int, b: int) -> LatticePolygon:
    """The height-one trapezoid with rows of length a and b, a >= b >= 0."""
    if not (a >= b >= 0 and a > 0):
        raise ValueError("rows must satisfy a >= b >= 0 and a > 0")
    if b == 0:
        return LatticePolygon(((0, 0), (a, 0), (0, 1)))
    return LatticePolygon(((0, 0), (a, 0), (b, 1), (0, 1)))


def classify(poly: LatticePolygon) -> PolygonClass:
    """Recognize the model families used throughout the verification runs."""
    n = poly.n_points
    d = math.isqrt(poly.area2)
    if d * d == poly.area2 and 2 * n == (d + 1) * (d + 2):
        if canonical_form(poly) == canonical_form(standard_triangle(d)):
            return PolygonClass("Sigma_multiple", (d,))
    d = math.isqrt(poly.area2 + 1) - 1
    if d >= 1 and poly.area2 == d * d + 2 * d and 2 * n == d * d + 3 * d + 4:
        if canonical_form(poly) == canonical_form(upsilon_indexed(d)):
            return PolygonClass("Upsilon_d", (d,))
    if poly.area2 == 12 and n == 10:
        if canonical_form(poly) == canonical_form(upsilon_triangle(2)):
            return PolygonClass("TwoUpsilon", (2,))
    if lattice_width(poly) == 1:
        for b in range((n - 2) // 2 + 1):
            a = n - 2 - b      # a >= max(b, 1), as n >= 3
            if canonical_form(poly) == canonical_form(lawrence_prism(a, b)):
                return PolygonClass("LawrencePrism", (a, b))
    return PolygonClass("Other", ())


def translate_count(inner: PointSet, outer: LatticePolygon) -> int:
    """Number of nonzero shifts v with inner + v inside outer; inner is
    not empty."""
    in_xs = [p[0] for p in inner]
    in_ys = [p[1] for p in inner]
    x0, y0, x1, y1 = outer.bbox
    count = 0
    outer_pts = outer.points
    for vx in range(x0 - min(in_xs), x1 - max(in_xs) + 1):
        for vy in range(y0 - min(in_ys), y1 - max(in_ys) + 1):
            if (vx, vy) == (0, 0):
                continue
            if all((px + vx, py + vy) in outer_pts for px, py in inner):
                count += 1
    return count


def prune_vertex(poly: LatticePolygon, pt: Point) -> LatticePolygon:
    """Hull of the point set with one vertex dropped."""
    if pt not in poly.vertices:
        raise ValueError(f"{pt} is not a vertex of the polygon")
    return from_vertices([p for p in poly.points if p != pt])


def sigma_point(poly: LatticePolygon) -> Point:
    """Componentwise sum of all lattice points."""
    xs = sum(p[0] for p in poly.points)
    ys = sum(p[1] for p in poly.points)
    return (xs, ys)


_MODEL_RE = re.compile(
    r"^(?:(?P<mult>\d+)\*)?(?P<base>Sigma|Upsilon)(?:_(?P<index>\d+))?$")


def named_polygon(name: str) -> LatticePolygon:
    """Model polygons by name: "Sigma", "d*Sigma", "Upsilon", "Upsilon_d", "2*Upsilon"."""
    m = _MODEL_RE.match(name.strip())
    if m is None:
        raise ValueError(f"unrecognized model name: {name!r}")
    mult = int(m.group("mult")) if m.group("mult") else 1
    index = m.group("index")
    if index is not None and m.group("mult"):
        raise ValueError(f"cannot combine a multiple with an index: {name!r}")
    if m.group("base") == "Sigma":
        if index is not None:
            raise ValueError(f"unrecognized model name: {name!r}")
        return standard_triangle(mult)
    if index is not None:
        return upsilon_indexed(int(index))
    return upsilon_triangle(mult)


def _coordinate(value) -> int:
    """A coordinate as an int: integers, integral floats and strings of
    ASCII digits with an optional sign (is_integer_text) pass; bools,
    nulls, fractions and other strings are refused, not coerced."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, str))
            or isinstance(value, float) and not value.is_integer()
            or isinstance(value, str) and not is_integer_text(value)):
        raise ValueError(f"coordinate {value!r} is not an integer")
    return int(value)


def parse_polygon(text: str) -> LatticePolygon:
    """Polygon from JSON {"vertices": [[x, y], ...]} or inline "x,y x,y ...".
    Malformed input of either form raises ValueError."""
    text = text.strip()
    if text.startswith("{"):
        verts = json.loads(text)["vertices"]
        if not isinstance(verts, list):
            raise ValueError("vertices must be a list of [x, y] pairs")
        pts = []
        for v in verts:
            if not (isinstance(v, list) and len(v) == 2):
                raise ValueError(f"vertex {v!r} is not an [x, y] pair")
            pts.append((_coordinate(v[0]), _coordinate(v[1])))
    else:
        pts = []
        for chunk in text.replace(";", " ").split():
            try:
                x, y = map(_coordinate, chunk.split(","))
            except ValueError:
                raise ValueError(f"vertex {chunk!r} is not an x,y pair of "
                                 f"integers") from None
            pts.append((x, y))
    if not pts:
        raise ValueError("no vertices given")
    return from_vertices(pts)
