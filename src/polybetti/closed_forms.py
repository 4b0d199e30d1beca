"""Closed-form Betti entries, zero regions, bounds, and predictors.

Everything here is polygon combinatorics with exact big-integer
arithmetic — no linear algebra, no floating point.  The engine uses
these as shortcuts; the test suite uses them as independent checks on
computed tables.  Proven formulas and conjectural predictors are kept
apart through the ``conjectural`` flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .koszul import basis_dimension_polynomial
from .linalg import DEFAULT_PRIME, PrimeModulus, require
from .polygon import (LatticePolygon, Point, PointSet, PolygonClass,
                      classify, dilate, interior_hull, lattice_width,
                      translate_count)
from .table import BettiTable


class PathologicalPolygon(ValueError):
    """The two smallest polygons, whose linear strands vanish entirely."""


@dataclass(frozen=True)
class EntryPrediction:
    """One predicted table entry; ``conjectural`` separates unproven
    predictors from theorems."""

    index: int
    strand: str
    value: int | None
    source: str
    conjectural: bool = False

    def __post_init__(self):
        if self.strand not in ("b", "c"):
            raise ValueError(f"strand must be 'b' or 'c', got {self.strand!r}")
        if self.value is not None and self.value < 0:
            raise ValueError("entry values are nonnegative")


def _interior_dim(poly: LatticePolygon) -> int:
    return interior_hull(poly).dim


def _n_interior(poly: LatticePolygon) -> int:
    return len(interior_hull(poly).points)


def antidiagonal_difference(poly: LatticePolygon, ell: int) -> int:
    """b_ell - c_(n-1-ell), straight from the Euler characteristic of
    the strand; out-of-range partners read as zero."""
    n = poly.n_points
    if not (1 <= ell <= n - 2):
        raise ValueError(f"position {ell} outside 1..{n - 2}")
    return ell * comb(n - 1, ell + 1) - comb(n - 3, ell - 1) * poly.area2


def antidiagonal_difference_bigraded(poly: LatticePolygon,
                                     ell: int) -> dict[Point, int]:
    """Bidegree slices of the strand Euler characteristic: the
    alternating sums of wedge-tensor dimensions, keyed by (a, b)."""
    n = poly.n_points
    if not (1 <= ell <= n - 2):
        raise ValueError(f"position {ell} outside 1..{n - 2}")
    pts = poly.points
    out: dict[Point, int] = {}
    for j in range(0, ell + 2):
        coeff = PointSet.of([(0, 0)]) if j == 0 else dilate(poly, j).points
        layer = basis_dimension_polynomial(pts, coeff, ell + 1 - j)
        sign = -1 if j % 2 == 0 else 1
        for ab, v in layer.items():
            out[ab] = out.get(ab, 0) + sign * v
    return out


def hering_schenck_zero_region(poly: LatticePolygon) -> frozenset[int]:
    """Quadratic-strand positions forced to zero by the boundary count."""
    if _n_interior(poly) == 0:
        raise ValueError("empty interior: the whole quadratic row is zero")
    n = poly.n_points
    lo = n + 1 - poly.boundary_count
    return frozenset(range(max(lo, 1), n - 2))


def _c_last_value(poly: LatticePolygon) -> int:
    n = poly.n_points
    if poly.boundary_count > 3:
        return 0
    if _interior_dim(poly) == 2:
        return 1
    return n - 3


def six_easy_entries(poly: LatticePolygon) -> list[EntryPrediction]:
    """The six entries with elementary formulas: both ends of each
    strand plus the second position of each."""
    n = poly.n_points
    n_int = _n_interior(poly)
    out: list[EntryPrediction] = []

    def add(index, strand, value, source):
        if 1 <= index <= n - 3:
            out.append(EntryPrediction(index, strand, value, source))

    add(1, "b", comb(n - 1, 2) - poly.area2, "first_linear_entry")
    add(n - 3, "b", 0 if n_int else n - 3, "last_linear_entry")
    add(1, "c", n_int, "interior_count")
    add(2, "c", (n - 3) * (n_int - 1) if n_int else 0, "second_quadratic_entry")
    if n >= 4:
        c_last = _c_last_value(poly)
        add(n - 3, "c", c_last, "last_quadratic_entry")
        add(2, "b", 2 * comb(n - 1, 3) - (n - 3) * poly.area2 + c_last,
            "second_linear_entry")
    return out


def _b_coefficient(poly: LatticePolygon) -> Fraction:
    """Case split behind the penultimate linear entry; a half-integer in
    the one-interior-point case, with integral products downstream."""
    n = poly.n_points
    dim = _interior_dim(poly)
    if dim == -1:
        return Fraction(n - 2)
    if dim == 0:
        return Fraction(n - 1, 2)
    # Upsilon_2 is the one triangle whose penultimate linear entry
    # survives a two-dimensional interior
    if dim == 1 or classify(poly) == PolygonClass("Upsilon_d", (2,)):
        return Fraction(1)
    return Fraction(0)


def entry_bN4(poly: LatticePolygon) -> tuple[EntryPrediction, EntryPrediction]:
    """The penultimate linear entry and its companion third quadratic
    entry, from the same case split."""
    n = poly.n_points
    if n < 4:
        raise ValueError(f"needs at least 4 lattice points, got {n}")
    coef = _b_coefficient(poly)
    b_val = (n - 4) * coef
    c_val = (n - 4) * (Fraction((n - 3) * poly.area2, 2)
                       - Fraction((n - 1) * (n - 2), 2) + coef)
    if b_val.denominator != 1 or c_val.denominator != 1:
        raise ValueError(
            f"non-integral entry from coefficient {coef}; N = {n}")
    b_pred = EntryPrediction(n - 4, "b", int(b_val), "penultimate_linear_entry")
    c_pred = EntryPrediction(3, "c", int(c_val), "third_quadratic_entry")
    return b_pred, c_pred


def eagon_northcott_table(poly: LatticePolygon,
                          prime: PrimeModulus | None = None) -> BettiTable:
    """Full table of a polygon without interior points: the resolution
    is forced and both strands are closed-form."""
    if _n_interior(poly):
        raise ValueError("polygon has interior lattice points")
    n = poly.n_points
    width = n - 3
    b = [p * comb(n - 2, p + 1) for p in range(1, width + 1)]
    return BettiTable(
        n=n, b=b, c=[0] * width,
        prime=prime or PrimeModulus(DEFAULT_PRIME),
        b_provenance=["eagon_northcott"] * width,
        c_provenance=["zero_by_shape"] * width,
        b_rigorous=[True] * width,
        c_rigorous=[True] * width)


def _exceptional_family(poly: LatticePolygon) -> bool:
    cls = classify(poly)
    if cls.tag == "Sigma_multiple" and cls.params[0] >= 2:
        return True
    if cls.tag == "Upsilon_d" and cls.params[0] >= 2:
        return True
    return cls.tag == "TwoUpsilon"


def _reject_pathological(poly: LatticePolygon) -> None:
    cls = classify(poly)
    if cls.tag == "Sigma_multiple" and cls.params[0] == 1:
        raise PathologicalPolygon("the basic triangle has no linear strand")
    if cls.tag == "Upsilon_d" and cls.params[0] == 1:
        raise PathologicalPolygon(
            "the reflexive basic triangle has no linear strand")


def scroll_strand_lower_bound(poly: LatticePolygon) -> int:
    """Largest linear-strand position guaranteed nonzero by the ambient
    rational normal scroll of a width-minimal projection."""
    _reject_pathological(poly)
    n = poly.n_points
    w = lattice_width(poly)
    if _exceptional_family(poly):
        return n - w - 1
    return n - w - 2


def kp1_predicted_first_zero(poly: LatticePolygon) -> int:
    """Predicted first vanishing position counted from the right end of
    the linear strand; conjectural."""
    _reject_pathological(poly)
    w = lattice_width(poly)
    return w + 1 if _exceptional_family(poly) else w + 2


def veronese_predictions(d: int) -> tuple[int, int | None]:
    """Predicted extreme entries for the d-fold standard triangle: the
    last nonzero linear entry, and the first nonzero quadratic entry
    when the interior is nonempty.  Conjectural."""
    if d < 2:
        raise ValueError("needs d >= 2")
    b_num = d ** 3 * (d * d - 1)
    require(b_num % 8 == 0, "d^3 (d^2 - 1) is not divisible by 8")
    b_last = b_num // 8
    if d < 3:
        return b_last, None
    n_int = (d - 1) * (d - 2) // 2
    return b_last, comb(n_int + 8, 9)


def veronese_prediction_entries(d: int) -> list[EntryPrediction]:
    b_last, c_first = veronese_predictions(d)
    out = [EntryPrediction(d * (d + 1) // 2, "b", b_last,
                           "squared_triangle_last_linear", conjectural=True)]
    if c_first is not None:
        out.append(EntryPrediction((d - 1) * (d - 2) // 2, "c", c_first,
                                   "squared_triangle_first_quadratic",
                                   conjectural=True))
    return out


def cg_lower_bound(poly: LatticePolygon) -> int:
    """Lower bound for the first nonzero quadratic entry, counted from
    translates of the interior hull inside the polygon."""
    inner = interior_hull(poly)
    if not inner.points:
        raise ValueError("no interior lattice points")
    k = len(inner.points) - 1
    t = translate_count(inner.points, poly)
    return comb(k + t, k)


def minimal_degree_predicate(poly: LatticePolygon) -> bool:
    """True exactly when the associated surface has minimal degree,
    equivalently when the interior is empty."""
    empty = _n_interior(poly) == 0
    require(empty == (poly.area2 == poly.n_points - 2),
            "empty interior disagrees with Pick's formula")
    return empty
