"""Koszul coboundary complexes, removal plans, and regularity tests."""
from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REFERENCE_TABLES
from entry_blocks import to_dense
from polybetti.corpus import build_corpus, removal_corpus
from polybetti.engine import BlockTask
from polybetti.koszul import (ComplexSpec, InvalidPlan, NotInPolygon,
                              SupportTriple,
                              _deflate, _mask_layer, _wedge_layers,
                              basis_dimension_polynomial,
                              choose_removal, coboundary_matrix,
                              enumerate_bidegrees, middle_profile,
                              pair_criterion_by_enumeration, peak_block,
                              reduced_supports, regular_pair, regular_triple,
                              side_profile, strand_spec, support_window,
                              target_profile, triple_criterion_by_enumeration,
                              twisted_quadratic_spec, verify_plan,
                              wedge_basis)
from polybetti.linalg import (ComputeBudget, PrimeModulus, dense_rank_mod,
                              rank, rank_batch)
from polybetti.polygon import (PointSet, from_vertices, lawrence_prism,
                               named_polygon, order_key, parse_polygon)


def spec_for(poly, kind, ell):
    """The complex a test case names: the row-one strand (primal_b), the
    row-two strand (dual_b) or the mirror audit complex (dual_c)."""
    if kind == "dual_c":
        return twisted_quadratic_spec(poly, ell)
    return strand_spec(poly, {"primal_b": "b", "dual_b": "c"}[kind], ell)


P40009 = PrimeModulus(40009)


def signed_map(spec, ab, which):
    """The coboundary at ab as an integer array, its entries lifted from
    the field with 40009 elements to -1, 0 and 1."""
    a = to_dense(coboundary_matrix(spec, ab, P40009, which))
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
        masks = source_basis(spec.right, ab)
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
    # past half the support size a layer is built from complements; the
    # wide, negative triangle checks that packed sums never carry
    for poly in (named_polygon("Upsilon_2"), from_vertices([(-7, -1), (2, 0),
                                                            (-5, 1)])):
        pts = poly.points.points
        for p in range(len(pts) + 1):
            layer = _mask_layer(PointSet(pts), p)

            def wsum(c):
                return (sum(pts[i][0] for i in c), sum(pts[i][1] for i in c))

            want = sorted(combinations(range(len(pts)), p),
                          key=lambda c: order_key(wsum(c)))
            # buckets keyed in order_key order of their sums
            assert [m for bucket in layer.values() for m in bucket] == \
                [sum(1 << i for i in c) for c in want]
            assert list(layer) == sorted(set(map(wsum, want)), key=order_key)
            for s, bucket in layer.items():
                assert all(wsum([i for i in range(len(pts))
                                 if m >> i & 1]) == s for m in bucket)


# the kinds of removal plan by their number of points, as test ids and
# in tests/data/removal_plans.json
PLAN_NAMES = {1: "single", 2: "opposite_pair", 3: "triangle"}

# one reduced spec per kind of plan: removal leaves non-convex supports,
# where dropped terms are the rule rather than the edge
REDUCED_CASES = [
    ("2*Sigma", "b", 2, 3),
    ("0,0 2,0 2,1 0,2", "b", 2, 2),
    ("0,0 2,0 3,1 1,3 0,2", "c", 2, 1),
]


def _assembly_specs():
    for name, kind, ell in SPEC_CASES:
        yield spec_for(named_polygon(name), kind, ell)
    for name, strand, ell, n_removed in REDUCED_CASES:
        poly = (named_polygon(name) if "*" in name else parse_polygon(name))
        removed = choose_removal(poly, strand)
        assert len(removed) == n_removed
        yield strand_spec(poly, strand, ell, removed)


@pytest.mark.parametrize("spec", list(_assembly_specs()),
                         ids=["-".join(map(str, c)) for c in SPEC_CASES]
                         + [PLAN_NAMES[c[3]] for c in REDUCED_CASES])
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
    return ComplexSpec(strand="custom", ell=1,
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
                assert np.array_equal(to_dense(m), expected)


def _presolve_specs():
    """Every strand spec of Upsilon_3 and 2*Upsilon, the REDUCED_CASES
    specs and twelve random complexes."""
    for name in ("Upsilon_3", "2*Upsilon"):
        poly = named_polygon(name)
        for strand in ("b", "c"):
            for ell in range(1, poly.n_points - 2):
                yield strand_spec(poly, strand, ell)
    for name, strand, ell, _ in REDUCED_CASES:
        poly = (named_polygon(name) if "*" in name else parse_polygon(name))
        yield strand_spec(poly, strand, ell, choose_removal(poly, strand))
    for seed in range(12):
        yield _random_spec(random.Random(seed))


def _presolve_blocks():
    """(spec, bidegree, map) for every block of _presolve_specs that has
    a row and a column."""
    for spec in _presolve_specs():
        for which, triple in (("left", spec.left), ("right", spec.right)):
            bidegrees = (_reachable_bidegrees(triple)
                         if spec.strand == "custom"
                         else enumerate_bidegrees(spec))
            for ab in bidegrees:
                m = coboundary_matrix(spec, ab, P40009, which)
                if m.rows:
                    yield spec, ab, which


@pytest.mark.parametrize("p", [2, 3, 40009])
def test_forced_pivots_and_elimination_rank_the_full_map(p):
    """The pivots a presolved block took, plus the rank its elimination
    adds, equal the dense rank of the full map, on every block."""
    prime = PrimeModulus(p)
    taken = 0
    for spec, ab, which in _presolve_blocks():
        full = coboundary_matrix(spec, ab, prime, which)
        want = dense_rank_mod(to_dense(full), p)
        block = BlockTask(spec, ab, prime, which, full.n_rows, full.n_cols)
        taken += block.build().taken
        assert rank(block) == want, (spec.strand, spec.ell, ab, which)
    assert taken > 1000


def test_taken_columns_are_those_of_the_singleton_rows():
    """A presolved block leaves out exactly the columns that the full
    map's singleton rows hit, counts them as taken, and holds every
    other entry of the full map."""
    for spec, ab, which in _presolve_blocks():
        full = coboundary_matrix(spec, ab, P40009, which)
        pre = coboundary_matrix(spec, ab, P40009, which, presolve=True)
        forced = {c for row in full.rows.values() if len(row) == 1
                  for c in row}
        assert set(full.col_rows) - set(pre.col_rows) == forced
        assert pre.taken == len(forced)
        assert (pre.n_rows, pre.n_cols) == (full.n_rows, full.n_cols)
        kept = {(r, c): v for r, row in full.rows.items()
                for c, v in row.items() if c not in forced}
        assert {(r, c): v for r, row in pre.rows.items()
                for c, v in row.items()} == kept
        assert {c: rs for c, rs in pre.col_rows.items()} == {
            c: rs for c, rs in full.col_rows.items() if c not in forced}


def test_wedge_support_over_64_points_matches_the_definition():
    """Masks are Python ints, so a support of more than 64 points builds
    like any other: blocks of the 65-point triangle at bidegrees whose
    wedges hold its 65th point, (0, 1) at bit 64, against reference_map,
    at p = 3 and 40009, and ranked in a batch as the dense kernel ranks
    the reference."""
    poly = from_vertices([(0, 0), (63, 0), (0, 1)])
    assert poly.points.points[64] == (0, 1) and poly.n_points == 65
    spec = strand_spec(poly, "b", 2)
    cases = []
    for ab in ((5, 1), (64, 1), (100, 1)):
        for which, triple in (("left", spec.left), ("right", spec.right)):
            assert any(w >> 64 for w in source_basis(triple, ab))
            cases.append((ab, which, reference_map(triple, ab)))
    for p in (3, 40009):
        prime = PrimeModulus(p)
        tasks, want_ranks = [], []
        for ab, which, (n_rows, n_cols, want) in cases:
            expected = np.zeros((n_rows, n_cols), dtype=np.int64)
            for (r, c), v in want.items():
                expected[r, c] = v % p
            m = coboundary_matrix(spec, ab, prime, which)
            assert np.array_equal(to_dense(m), expected)
            tasks.append(BlockTask(spec, ab, prime, which, n_rows, n_cols))
            want_ranks.append(dense_rank_mod(expected, p))
        assert rank_batch(tasks, ComputeBudget(max_workers=1)) == [
            (rk, None) for rk in want_ranks]


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
    plans = list(permutations(poly.vertices))
    for twisted in (False, True):
        for q in (1, 2, 3):
            supports = {reduced_supports(poly, plan, twisted, q)
                        for plan in plans}
            assert len(supports) == 1
    profiles = {tuple(sorted(middle_profile(
        strand_spec(poly, "b", 2, plan)).items()))
        for plan in plans}
    assert len(profiles) == 1


def test_removal_shrinks_supports_and_keeps_exactness_data():
    poly = named_polygon("3*Sigma")
    removed = choose_removal(poly, "b")
    assert len(removed) == 3 and set(removed) == set(poly.vertices)
    full = strand_spec(poly, "b", 3)
    red = strand_spec(poly, "b", 3, removed)
    assert sum(middle_profile(red).values()) < sum(
        middle_profile(full).values())
    assert peak_block(red) <= peak_block(full)


def test_choose_removal_certificates_by_shape():
    sigma = named_polygon("2*Sigma")
    assert set(choose_removal(sigma)) == set(sigma.vertices)
    square = parse_polygon("0,0 1,0 1,1 0,1")
    removed = choose_removal(square)
    assert set(removed) in ({(0, 0), (1, 1)}, {(1, 0), (0, 1)})
    verify_plan(square, removed)
    prism = lawrence_prism(3, 1)
    assert len(choose_removal(prism)) == 2
    pentagon = parse_polygon("0,0 2,0 3,1 1,3 0,2")
    removed = choose_removal(pentagon)
    assert len(removed) == 1 and removed[0] in pentagon.vertices
    verify_plan(pentagon, removed)


def test_verify_plan_rejects_invalid_plans():
    square = parse_polygon("0,0 1,0 1,1 0,1")
    with pytest.raises(InvalidPlan):
        verify_plan(square, ((0, 0), (1, 0)))
    with pytest.raises(InvalidPlan):
        verify_plan(square, ((5, 5),))
    with pytest.raises(InvalidPlan):
        verify_plan(square, ((0, 0), (1, 0), (1, 1)))
    with pytest.raises(InvalidPlan):
        verify_plan(square, ((0, 0), (1, 0), (0, 1), (1, 1)))


def test_oversized_wedge_degree_is_the_zero_space():
    pts = PointSet.of([(0, 0), (1, 0), (0, 1)])
    triple = SupportTriple(pts, pts, pts, wedge_degree=5)
    assert len(source_basis(triple, (1, 1))) == 0
    spec = ComplexSpec(strand="custom", ell=1,
                       left=SupportTriple(pts, pts, pts, 6), right=triple,
                       region=((0, 0),), translate_degree=0)
    m = coboundary_matrix(spec, (1, 1), P40009, "right")
    assert m.n_cols == 0 and m.nnz == 0
    with pytest.raises(ValueError):
        SupportTriple(pts, pts, pts, wedge_degree=-1)


def test_positions_past_the_last_column_still_build():
    poly = named_polygon("Sigma")
    spec = strand_spec(poly, "b", 1)
    assert enumerate_bidegrees(spec)
    far = strand_spec(poly, "b", 5)
    assert far.right.wedge_degree == 5
    with pytest.raises(ValueError):
        strand_spec(poly, "b", 0)


def test_quotient_gives_the_same_profile_totals():
    # removal changes block shapes, not the cohomology; as a cheap proxy
    # check the Euler characteristic per bidegree region stays consistent
    poly = named_polygon("2*Sigma")
    plan = choose_removal(poly, "b")
    full = strand_spec(poly, "b", 2)
    red = strand_spec(poly, "b", 2, plan)

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
    window = support_window(poly, 2, twisted=False)
    assert all(ab in window for ab, v in out.bigraded.items() if v)
    out = compute_c(poly, 2, prime)
    window = support_window(poly, 1, twisted=True)
    assert all(ab in window for ab, v in out.bigraded.items() if v)


def product_layers(points) -> list[dict]:
    """Wedge-layer counts multiplied out one point at a time: the
    reference deflated layers must equal."""
    layers = [{(0, 0): 1}]
    for px, py in points:
        grown = [dict(layer) for layer in layers] + [{}]
        for t, layer in enumerate(layers):
            for (x, y), cnt in layer.items():
                key = (x + px, y + py)
                grown[t + 1][key] = grown[t + 1].get(key, 0) + cnt
        layers = grown
    return layers


def deflated(full: PointSet, removed) -> list[dict]:
    """Every layer deflated: the division is exact, so the top degree
    of each quotient comes out empty."""
    layers = product_layers(full)
    for v in removed:
        *layers, top = _deflate(layers, v)
        assert top == {}
    return layers


def layers_of(a: PointSet, removed=()) -> list[dict]:
    """Every degree of a's wedge layers as basis_dimension_polynomial
    reads them, coefficients at the origin alone: the low degrees
    _wedge_layers caches and the mirrored high ones."""
    origin = PointSet.of([(0, 0)])
    return [basis_dimension_polynomial(a, origin, p, removed)
            for p in range(len(a) + 1)]


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
               min_size=2, max_size=12), st.data())
def test_deflated_layers_equal_the_product(pts, data):
    full = PointSet.of(pts)
    k = data.draw(st.integers(1, min(3, len(full) - 1)))
    removed = tuple(data.draw(st.permutations(full.points))[:k])
    reduced = product_layers(full.difference(removed))
    assert deflated(full, removed) == reduced
    assert layers_of(full) == product_layers(full)
    assert layers_of(full.difference(removed), removed) == reduced


small_sets = st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    max_size=7).map(PointSet.of)


@given(small_sets, small_sets, st.integers(-1, 8))
def test_dimension_counts_match_enumeration(a, b, p):
    want: dict = {}
    for combo in combinations(a.points, p) if p >= 0 else ():
        x, y = sum(q[0] for q in combo), sum(q[1] for q in combo)
        for bx, by in b:
            want[(x + bx, y + by)] = want.get((x + bx, y + by), 0) + 1
    assert basis_dimension_polynomial(a, b, p) == want


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_model_layers_deflate_to_the_product(name):
    """Every model's support with one, two and three points removed,
    the vertices first: deflated and multiplied-out counts agree at
    every degree, and so do the layers _wedge_layers deflates for the
    reduced support and its removed points, from a cold cache."""
    poly = named_polygon(name)
    full = poly.points
    assert layers_of(full) == product_layers(full)
    # only the degrees up to half the support are held
    assert _wedge_layers(full, ()) == tuple(
        product_layers(full)[:len(full) // 2 + 1])
    rng = random.Random(name)
    for k in range(1, min(3, len(full) - 1) + 1):
        for removed in (poly.vertices[:k],
                        tuple(rng.sample(full.points, k))):
            reduced = full.difference(removed)
            expected = product_layers(reduced)
            assert deflated(full, removed) == expected
            _wedge_layers.cache_clear()
            assert layers_of(reduced, removed) == expected


def seeded_shapes(per_shape=6):
    """Seeded quadrilaterals, pentagons and hexagons."""
    drawn = build_corpus(1919, 600, n_min=6, n_max=12, box=5,
                         max_vertices=8)
    return [poly for k in (4, 5, 6)
            for poly in [q for q in drawn if len(q.vertices) == k][:per_shape]]


def test_choose_removal_plans_are_frozen():
    """The plan is written into the checkpoint header, so it must not
    move: tests/data/removal_plans.json holds the plans of every
    removal_corpus() polygon and of the seeded shapes as sized on
    multiplied-out layers, and the deflated sizing picks the same."""
    frozen = json.loads((Path(__file__).parent / "data" /
                         "removal_plans.json").read_text())
    polys = removal_corpus() + seeded_shapes()
    assert [rec["vertices"] for rec in frozen] == [
        [list(v) for v in poly.vertices] for poly in polys]
    for warm in (False, True):
        choose_removal.cache_clear()
        _wedge_layers.cache_clear()
        for rec, poly in zip(frozen, polys):
            if warm:    # the full layers cached, as routing leaves them
                _wedge_layers(poly.points, ())
            for strand in "bc":
                want = tuple(map(tuple, rec[strand]["removed"]))
                assert PLAN_NAMES[len(want)] == rec[strand]["certificate"]
                assert choose_removal(poly, strand) == want, poly.vertices
