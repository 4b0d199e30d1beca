"""Koszul coboundary complexes, removal plans, and regularity tests."""
from __future__ import annotations

import json
import random
from functools import cache
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
from polybetti.koszul import (ComplexSpec, _deflate, _mask_layer,
                              _wedge_layers, basis_dimension_polynomial,
                              choose_removal, coboundary_matrix,
                              enumerate_bidegrees, middle_profile,
                              pair_criterion_by_enumeration, peak_block,
                              reduced_supports, regular_pair, regular_triple,
                              strand_spec, support_window, term_profile,
                              triple_criterion_by_enumeration,
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
    """The built coboundary at ab as an integer array, its entries
    lifted from the field with 40009 elements to -1, 0 and 1."""
    a = to_dense(coboundary_matrix(spec, ab, P40009, which))
    return np.where(a > P40009.p // 2, a - P40009.p, a)


def source_basis(spec, which, ab):
    """The column basis of the map at ab: wedges of the source term."""
    i = 1 if which == "right" else 0
    return wedge_basis(spec.wedge_support, spec.supports[i], spec.top - i,
                       ab)


@cache
def _subsets(pts, q):
    """Every q-subset of range(len(pts)) by itertools.combinations, with
    the coordinate sum of its points."""
    return [(w, (sum(pts[k][0] for k in w), sum(pts[k][1] for k in w)))
            for w in combinations(range(len(pts)), q)] if q >= 0 else []


@cache
def reference_map(spec, which, ab):
    """The coboundary at ab straight from its definition: p-subsets by
    itertools.combinations whose cofactor lies in the source support,
    ordered by coordinate sum (order_key) and then as generated; the
    s-th omission, s from 1, has sign (-1)^s and is kept when its
    shifted cofactor lies in the target support.  The right map has
    p = top - 1 and runs from supports[1] to supports[2], the left map
    p = top and from supports[0] to supports[1].  Cached, as several
    tests check the same blocks; treat the result as read-only."""
    i = 1 if which == "right" else 0
    pts = spec.wedge_support.points
    p = spec.top - i
    source, target = spec.supports[i], spec.supports[i + 1]

    def basis(coeffs, q):
        out = [(w, t) for w, t in _subsets(pts, q)
               if (ab[0] - t[0], ab[1] - t[1]) in coeffs]
        return [w for w, t in sorted(out, key=lambda wt: order_key(wt[1]))]

    cols = basis(source, p)
    rows = basis(target, p - 1)
    row_of = {w: r for r, w in enumerate(rows)}
    entries = {}
    for j, w in enumerate(cols):
        x = ab[0] - sum(pts[k][0] for k in w)
        y = ab[1] - sum(pts[k][1] for k in w)
        for s in range(1, p + 1):
            # omitting the s-th point adds it back to the cofactor
            cof = (x + pts[w[s - 1]][0], y + pts[w[s - 1]][1])
            if cof in target:
                entries[(row_of[w[:s - 1] + w[s:]], j)] = (-1) ** s
    return len(rows), len(cols), entries


def reference_array(spec, which, ab):
    """reference_map at ab as an integer array of -1, 0 and 1."""
    n_rows, n_cols, entries = reference_map(spec, which, ab)
    a = np.zeros((n_rows, n_cols), dtype=np.int64)
    for rc, v in entries.items():
        a[rc] = v
    return a


def forced_columns(a):
    """The columns that a's singleton rows hit: the pivots
    coboundary_matrix takes before it builds an entry."""
    return {int(np.flatnonzero(row)[0]) for row in a
            if np.count_nonzero(row) == 1}


def assert_built_as_defined(m, spec, which, ab):
    """m, built at ab, is reference_map there modulo m's prime with the
    forced columns emptied, and counts those columns as taken; its
    column sets index the same nonzeros as its rows."""
    want = reference_array(spec, which, ab) % m.modulus.p
    forced = forced_columns(want)
    want[:, sorted(forced)] = 0
    assert (m.n_rows, m.n_cols) == want.shape
    assert np.array_equal(to_dense(m), want)
    assert m.taken == len(forced)
    assert {(r, c) for c, rs in m.col_rows.items() for r in rs} == {
        (r, c) for r, row in m.rows.items() for c in row}
    assert m.nnz == np.count_nonzero(want)


SPEC_CASES = [
    ("2*Sigma", "primal_b", 2),
    ("2*Sigma", "dual_b", 2),
    ("Upsilon_2", "primal_b", 2),
    ("Upsilon_2", "dual_c", 3),
]


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES)
def test_composition_is_zero_over_the_integers(name, kind, ell):
    poly = named_polygon(name)
    spec = spec_for(poly, kind, ell)
    for ab in enumerate_bidegrees(poly, spec):
        left = reference_array(spec, "left", ab)
        right = reference_array(spec, "right", ab)
        assert left.shape[0] == right.shape[1]
        assert not (right @ left).any()


@pytest.mark.parametrize("name,kind,ell", SPEC_CASES)
def test_basis_count_matches_generating_function(name, kind, ell):
    poly = named_polygon(name)
    spec = spec_for(poly, kind, ell)
    middle = middle_profile(spec)
    left_cols = term_profile(spec, 0)
    below = term_profile(spec, 2)
    for ab in enumerate_bidegrees(poly, spec):
        assert len(source_basis(spec, "right", ab)) == middle.get(ab, 0)
        assert len(source_basis(spec, "left", ab)) == left_cols.get(ab, 0)
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
    poly = named_polygon(name)
    spec = spec_for(poly, kind, ell)
    for ab in enumerate_bidegrees(poly, spec):
        for which, p in (("left", spec.top), ("right", spec.top - 1)):
            a = signed_map(spec, ab, which)
            assert set(np.unique(a)) <= {-1, 0, 1}
            assert (np.count_nonzero(a, axis=0) <= p).all()


def test_basis_elements_are_increasing_wedges():
    poly = named_polygon("Upsilon_2")
    spec = spec_for(poly, "primal_b", 2)
    pts = spec.wedge_support.points
    for ab in enumerate_bidegrees(poly, spec):
        masks = source_basis(spec, "right", ab)
        assert len(set(masks)) == len(masks)
        keys = []
        for mask in masks:
            wedge = [pt for i, pt in enumerate(pts) if mask >> i & 1]
            assert len(wedge) == spec.top - 1
            wsum = (sum(w[0] for w in wedge), sum(w[1] for w in wedge))
            assert (ab[0] - wsum[0], ab[1] - wsum[1]) in spec.supports[1]
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
    """(polygon, spec) for every SPEC_CASES and REDUCED_CASES complex."""
    for name, kind, ell in SPEC_CASES:
        poly = named_polygon(name)
        yield poly, spec_for(poly, kind, ell)
    for name, strand, ell, n_removed in REDUCED_CASES:
        poly = (named_polygon(name) if "*" in name else parse_polygon(name))
        removed = choose_removal(poly, strand)
        assert len(removed) == n_removed
        yield poly, strand_spec(poly, strand, ell, removed)


@pytest.mark.parametrize("poly,spec", list(_assembly_specs()),
                         ids=["-".join(map(str, c)) for c in SPEC_CASES]
                         + [PLAN_NAMES[c[3]] for c in REDUCED_CASES])
def test_assembly_matches_the_definition(poly, spec):
    prime = PrimeModulus(40009)
    for ab in enumerate_bidegrees(poly, spec):
        for which in ("left", "right"):
            m = coboundary_matrix(spec, ab, prime, which)
            assert_built_as_defined(m, spec, which, ab)


def _random_spec(rng):
    """A complex over random small supports: a wedge support of 3-7
    points of a 4x5 box, non-convex coefficient supports drawn from a
    5x5 box, and a wedge degree from 0 to one past the support size."""
    box = [(x, y) for x in range(5) for y in range(5)]
    wedge = PointSet.of(rng.sample(box[:20], rng.randint(3, 7)))
    b, c, d = (PointSet.of(rng.sample(box, rng.randint(1, 12)))
               for _ in range(3))
    p = rng.randint(0, len(wedge) + 1)
    return ComplexSpec("custom", 1, wedge, (d, b, c), p + 1, 0)


def _reachable_bidegrees(spec, which):
    """Every bidegree where the map has a column, and one where it has
    none."""
    i = 1 if which == "right" else 0
    pts = spec.wedge_support.points
    sums = {(sum(pts[k][0] for k in w), sum(pts[k][1] for k in w))
            for w in combinations(range(len(pts)), spec.top - i)}
    return sorted({(x + bx, y + by) for x, y in sums
                   for bx, by in spec.supports[i]} | {(-9, -9)})


@pytest.mark.parametrize("seed", range(12))
def test_blocks_match_an_independent_construction(seed):
    """Every block of a random small complex against reference_map, at
    p = 3, where a wrong omission sign shows (at p = 2 it would not),
    and at p = 40009."""
    rng = random.Random(seed)
    spec = _random_spec(rng)
    for which in ("left", "right"):
        for ab in _reachable_bidegrees(spec, which):
            for p in (3, 40009):
                m = coboundary_matrix(spec, ab, PrimeModulus(p), which)
                assert_built_as_defined(m, spec, which, ab)


def _forced_pivot_specs():
    """Every strand spec of Upsilon_3 and 2*Upsilon, the REDUCED_CASES
    specs and twelve random complexes, each with its bidegrees; None for
    a random complex, whose bidegrees are each map's own
    (_reachable_bidegrees)."""
    for name in ("Upsilon_3", "2*Upsilon"):
        poly = named_polygon(name)
        for strand in ("b", "c"):
            for ell in range(1, poly.n_points - 2):
                spec = strand_spec(poly, strand, ell)
                yield spec, enumerate_bidegrees(poly, spec)
    for name, strand, ell, _ in REDUCED_CASES:
        poly = (named_polygon(name) if "*" in name else parse_polygon(name))
        spec = strand_spec(poly, strand, ell, choose_removal(poly, strand))
        yield spec, enumerate_bidegrees(poly, spec)
    for seed in range(12):
        yield _random_spec(random.Random(seed)), None


def _forced_pivot_blocks():
    """(spec, bidegree, map) for every block of _forced_pivot_specs whose
    map, as defined, has a nonzero."""
    for spec, bidegrees in _forced_pivot_specs():
        for which in ("left", "right"):
            for ab in (_reachable_bidegrees(spec, which) if bidegrees is None
                       else bidegrees):
                if reference_map(spec, which, ab)[2]:
                    yield spec, ab, which


@pytest.mark.parametrize("p", [2, 3, 40009])
def test_forced_pivots_and_elimination_rank_the_full_map(p):
    """The pivots a block took before it was built, plus the rank its
    elimination adds, equal the dense rank of the map as defined, on
    every block."""
    prime = PrimeModulus(p)
    taken = 0
    for spec, ab, which in _forced_pivot_blocks():
        full = reference_array(spec, which, ab)
        want = dense_rank_mod(full, p)
        block = BlockTask(spec, ab, prime, which, *full.shape)
        taken += block.build().taken
        assert rank(block) == want, (spec.strand, spec.ell, ab, which)
    assert taken > 1000


def test_taken_columns_are_those_of_the_singleton_rows():
    """A block leaves out exactly the columns that the defined map's
    singleton rows hit, counts them as taken, and holds every other
    entry of the defined map."""
    for spec, ab, which in _forced_pivot_blocks():
        m = coboundary_matrix(spec, ab, P40009, which)
        assert_built_as_defined(m, spec, which, ab)


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
        for which in ("left", "right"):
            assert any(w >> 64 for w in source_basis(spec, which, ab))
            cases.append((ab, which))
    for p in (3, 40009):
        prime = PrimeModulus(p)
        tasks, want_ranks = [], []
        for ab, which in cases:
            full = reference_array(spec, which, ab)
            m = coboundary_matrix(spec, ab, prime, which)
            assert_built_as_defined(m, spec, which, ab)
            tasks.append(BlockTask(spec, ab, prime, which, *full.shape))
            want_ranks.append(dense_rank_mod(full, p))
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
    with pytest.raises(ValueError, match="outside the polygon"):
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
    with pytest.raises(ValueError, match="is not a regular pair"):
        verify_plan(square, ((0, 0), (1, 0)))
    with pytest.raises(ValueError, match="is not a lattice point"):
        verify_plan(square, ((5, 5),))
    with pytest.raises(ValueError, match="is not a regular triple"):
        verify_plan(square, ((0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError, match="removes more than three points"):
        verify_plan(square, ((0, 0), (1, 0), (0, 1), (1, 1)))


def test_oversized_wedge_degree_is_the_zero_space():
    pts = PointSet.of([(0, 0), (1, 0), (0, 1)])
    spec = ComplexSpec("custom", 1, pts, (pts, pts, pts), 6, 0)
    assert len(source_basis(spec, "right", (1, 1))) == 0
    m = coboundary_matrix(spec, (1, 1), P40009, "right")
    assert m.n_cols == 0 and m.nnz == 0
    # the right map of top 1 lands on the zero space of (-1)-wedges
    assert ComplexSpec("custom", 1, pts, (pts, pts, pts), 1, 0)
    with pytest.raises(ValueError, match="must be at least 1"):
        ComplexSpec("custom", 1, pts, (pts, pts, pts), 0, 0)


def test_positions_past_the_last_column_still_build():
    poly = named_polygon("Sigma")
    spec = strand_spec(poly, "b", 1)
    assert enumerate_bidegrees(poly, spec)
    far = strand_spec(poly, "b", 5)
    assert far.top - 1 == 5
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
        left = term_profile(spec, 0)
        mid = middle_profile(spec)
        right = term_profile(spec, 1)
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
