"""Closed-form entry predictions against the frozen reference tables."""
from __future__ import annotations

from math import comb

import pytest

from conftest import REFERENCE_TABLES
from polybetti.closed_forms import (EntryPrediction, PathologicalPolygon,
                                    antidiagonal_difference,
                                    antidiagonal_difference_bigraded,
                                    cg_lower_bound, eagon_northcott_table,
                                    entry_bN4, hering_schenck_zero_region,
                                    kp1_predicted_first_zero,
                                    minimal_degree_predicate,
                                    scroll_strand_lower_bound,
                                    six_easy_entries, veronese_predictions,
                                    veronese_prediction_entries)
from polybetti.engine import betti_table
from polybetti.polygon import (interior_hull, lawrence_prism, named_polygon,
                               parse_polygon)


def frozen_entry(name, strand, index):
    b, c = REFERENCE_TABLES[name]
    arr = b if strand == "b" else c
    return arr[index - 1] if 1 <= index <= len(arr) else 0


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_antidiagonal_difference_matches_frozen_tables(name):
    poly = named_polygon(name)
    n = poly.n_points
    for ell in range(1, n - 1):
        expected = (frozen_entry(name, "b", ell)
                    - frozen_entry(name, "c", n - 1 - ell))
        assert antidiagonal_difference(poly, ell) == expected
    with pytest.raises(ValueError, match="outside 1"):
        antidiagonal_difference(poly, 0)
    with pytest.raises(ValueError, match="outside 1"):
        antidiagonal_difference(poly, n - 1)


@pytest.mark.parametrize("name,ell", [("Upsilon_2", 2), ("Upsilon_2", 4),
                                      ("2*Upsilon", 3), ("2*Sigma", 1)])
def test_bigraded_difference_sums_to_the_scalar(name, ell):
    poly = named_polygon(name)
    profile = antidiagonal_difference_bigraded(poly, ell)
    assert sum(profile.values()) == antidiagonal_difference(poly, ell)
    with pytest.raises(ValueError, match="outside 1"):
        antidiagonal_difference_bigraded(poly, poly.n_points - 1)


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_six_easy_entries_match_frozen_tables(name):
    poly = named_polygon(name)
    preds = six_easy_entries(poly)
    # small polygons can predict one slot twice; the values must agree
    seen = {}
    for p in preds:
        assert seen.setdefault((p.strand, p.index), p.value) == p.value
    for p in preds:
        assert not p.conjectural
        assert p.value == frozen_entry(name, p.strand, p.index), \
            (p.strand, p.index, p.source)
    by_source = {p.source for p in preds}
    if poly.n_points >= 6:
        assert {"first_linear_entry", "last_linear_entry", "interior_count",
                "second_quadratic_entry", "last_quadratic_entry",
                "second_linear_entry"} <= by_source


def test_six_easy_entries_with_three_boundary_points(prime, serial_options):
    """A two-dimensional interior and three boundary points: the last
    quadratic entry is 1."""
    poly = parse_polygon("0,0 4,1 1,3")
    assert (poly.n_points, poly.boundary_count) == (8, 3)
    assert interior_hull(poly).dim == 2
    table = betti_table(poly, prime, serial_options)
    assert (table.c[4], table.c_provenance[4]) == (1, "computed")
    preds = six_easy_entries(poly)
    assert ("c", 5, 1) in {(p.strand, p.index, p.value) for p in preds}
    for p in preds:
        assert p.value == getattr(table, f"{p.strand}_entry")(p.index), \
            (p.strand, p.index, p.source)


@pytest.mark.parametrize("name", [n for n in sorted(REFERENCE_TABLES)
                                  if named_polygon(n).n_points >= 7])
def test_penultimate_linear_pair_matches_frozen_tables(name):
    poly = named_polygon(name)
    b_pred, c_pred = entry_bN4(poly)
    n = poly.n_points
    assert (b_pred.index, b_pred.strand) == (n - 4, "b")
    assert (c_pred.index, c_pred.strand) == (3, "c")
    assert b_pred.value == frozen_entry(name, "b", n - 4)
    assert c_pred.value == frozen_entry(name, "c", 3)


def test_penultimate_pair_needs_four_points():
    with pytest.raises(ValueError, match="needs at least 4 lattice points"):
        entry_bN4(named_polygon("Sigma"))


HS_CASES = [
    # (model, first zero region, equality position)
    ("Upsilon_3", {7, 8}, 6),
    ("2*Upsilon", {5, 6, 7}, 4),
    ("4*Sigma", set(range(4, 13)), 3),
    ("5*Sigma", set(range(7, 19)), 6),
    ("Upsilon", set(), 1),
]


@pytest.mark.parametrize("name,region,eq_pos", HS_CASES)
def test_boundary_count_zero_region_frozen(name, region, eq_pos):
    poly = named_polygon(name)
    assert set(hering_schenck_zero_region(poly)) == region
    assert len(interior_hull(poly).points) == eq_pos
    # the bound is attained on these models: nonzero there, zero above
    assert frozen_entry(name, "c", eq_pos) != 0
    for j in region:
        assert frozen_entry(name, "c", j) == 0


def test_boundary_count_needs_interior_points():
    with pytest.raises(ValueError, match="empty interior"):
        hering_schenck_zero_region(named_polygon("2*Sigma"))
    with pytest.raises(ValueError, match="empty interior"):
        hering_schenck_zero_region(lawrence_prism(3, 1))


def test_eagon_northcott_tables_frozen():
    table = eagon_northcott_table(named_polygon("2*Sigma"))
    assert table.b == [6, 8, 3] and table.c == [0, 0, 0]
    assert all(table.b_rigorous) and all(table.c_rigorous)
    assert set(table.b_provenance) == {"eagon_northcott"}
    assert set(table.c_provenance) == {"zero_by_shape"}
    prism = eagon_northcott_table(lawrence_prism(3, 1))
    n = lawrence_prism(3, 1).n_points
    assert prism.b == [p * comb(n - 2, p + 1) for p in range(1, n - 2)]
    with pytest.raises(ValueError, match="has interior lattice points"):
        eagon_northcott_table(named_polygon("3*Sigma"))


SCROLL_CASES = [
    ("3*Sigma", 6, 7), ("4*Sigma", 10, 11), ("5*Sigma", 15, 16),
    ("Upsilon_3", 6, 7), ("Upsilon_4", 10, 11), ("2*Upsilon", 5, 6),
    ("Upsilon_2", 3, 4), ("2*Sigma", 3, 4),
]


@pytest.mark.parametrize("name,bound,first_zero", SCROLL_CASES)
def test_scroll_bound_marks_last_guaranteed_nonzero(name, bound, first_zero):
    poly = named_polygon(name)
    assert scroll_strand_lower_bound(poly) == bound
    assert frozen_entry(name, "b", bound) != 0
    # conjectural first zero, converted from right-count to position
    n = poly.n_points
    assert n + 1 - kp1_predicted_first_zero(poly) == first_zero
    if first_zero <= n - 3:
        assert frozen_entry(name, "b", first_zero) == 0


def test_pathological_models_are_rejected():
    for name in ("Sigma", "Upsilon"):
        with pytest.raises(PathologicalPolygon):
            scroll_strand_lower_bound(named_polygon(name))
        with pytest.raises(PathologicalPolygon):
            kp1_predicted_first_zero(named_polygon(name))


def test_veronese_predictions_frozen():
    assert veronese_predictions(2) == (3, None)
    assert veronese_predictions(3) == (27, 1)
    assert veronese_predictions(4) == (120, 55)
    assert veronese_predictions(5) == (375, 2002)
    with pytest.raises(ValueError, match="needs d >= 2"):
        veronese_predictions(1)
    for d in (2, 3, 4, 5):
        entries = veronese_prediction_entries(d)
        assert all(e.conjectural for e in entries)
        b_entry = entries[0]
        assert (b_entry.strand, b_entry.index) == ("b", d * (d + 1) // 2)
        name = f"{d}*Sigma" if d > 1 else "Sigma"
        assert b_entry.value == frozen_entry(name, "b", b_entry.index)
        if d >= 3:
            c_entry = entries[1]
            assert (c_entry.strand, c_entry.index) == \
                ("c", (d - 1) * (d - 2) // 2)
            assert c_entry.value == frozen_entry(name, "c", c_entry.index)
        else:
            assert len(entries) == 1


def test_translate_lower_bound_frozen_values():
    assert cg_lower_bound(named_polygon("3*Sigma")) == 1
    assert cg_lower_bound(named_polygon("4*Sigma")) == 55
    assert cg_lower_bound(named_polygon("5*Sigma")) == 2002
    with pytest.raises(ValueError, match="no interior lattice points"):
        cg_lower_bound(named_polygon("2*Sigma"))


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_translate_bound_below_attained_value(name):
    poly = named_polygon(name)
    b, c = REFERENCE_TABLES[name]
    if not any(c):
        return
    pos = len(interior_hull(poly).points)
    assert cg_lower_bound(poly) <= frozen_entry(name, "c", pos)


def test_minimal_degree_predicate():
    assert minimal_degree_predicate(named_polygon("2*Sigma"))
    assert minimal_degree_predicate(named_polygon("Sigma"))
    assert minimal_degree_predicate(lawrence_prism(4, 2))
    assert not minimal_degree_predicate(named_polygon("Upsilon"))
    assert not minimal_degree_predicate(named_polygon("3*Sigma"))
    assert not minimal_degree_predicate(parse_polygon("0,0 2,0 2,2 0,2"))


def test_prediction_dataclass_shape():
    p = EntryPrediction(2, "b", 5, "first_linear_entry")
    assert not p.conjectural
    assert (p.index, p.strand, p.value) == (2, "b", 5)
