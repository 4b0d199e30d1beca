"""Lattice-polygon geometry: hulls, counts, width, symmetries, models."""
from __future__ import annotations

import json
import math
import pickle
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polybetti.corpus import build_corpus
from polybetti.linalg import InvariantViolation
from polybetti.polygon import (AffineUnimodularMap, DimensionError,
                               LatticePolygon, PointSet, canonical_form, classify,
                               convex_hull, dilate, from_vertices,
                               interior_hull, lattice_width,
                               lattice_width_data, lawrence_prism,
                               named_polygon, parse_polygon, prune_vertex,
                               sigma_point, standard_triangle,
                               symmetry_group, upsilon_indexed,
                               upsilon_triangle, _reduced_basis, _width)

points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


def polygon_from(pts):
    try:
        return from_vertices(pts)
    except (DimensionError, ValueError):
        return None


random_polygons = st.lists(points, min_size=3, max_size=8).map(
    polygon_from).filter(lambda p: p is not None)

unimodular_maps = st.tuples(
    st.sampled_from([(1, 0, 0, 1), (0, -1, 1, 0), (1, 1, 0, 1),
                     (1, 0, 1, 1), (0, 1, 1, 0), (2, 1, 1, 1)]),
    points).map(lambda t: AffineUnimodularMap(
        ((t[0][0], t[0][1]), (t[0][2], t[0][3])), t[1]))


def test_model_point_sets_are_frozen():
    assert named_polygon("Sigma").vertices == ((0, 0), (1, 0), (0, 1))
    assert set(named_polygon("Upsilon").vertices) == {(-1, -1), (1, 0),
                                                      (0, 1)}
    assert set(named_polygon("Upsilon_3").vertices) == {(-1, -1), (3, 0),
                                                        (0, 3)}
    assert set(named_polygon("2*Upsilon").vertices) == {(-2, -2), (2, 0),
                                                        (0, 2)}
    assert set(named_polygon("3*Sigma").vertices) == {(0, 0), (3, 0),
                                                      (0, 3)}
    with pytest.raises(ValueError):
        named_polygon("3*Upsilon_2")
    with pytest.raises(ValueError):
        named_polygon("Koszul")


def test_model_lattice_point_counts():
    expected = {"Sigma": 3, "Upsilon": 4, "2*Sigma": 6, "Upsilon_2": 7,
                "3*Sigma": 10, "2*Upsilon": 10, "Upsilon_3": 11,
                "4*Sigma": 15, "Upsilon_4": 16, "5*Sigma": 21}
    for name, n in expected.items():
        assert named_polygon(name).n_points == n


def test_from_vertices_rejects_degenerate():
    with pytest.raises(DimensionError):
        from_vertices([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(DimensionError):
        from_vertices([(1, 1)])


def test_parse_polygon_formats():
    inline = parse_polygon("0,0 2,0 0,2")
    as_json = parse_polygon('{"vertices": [[0, 0], [2, 0], [0, 2]]}')
    assert inline == as_json == named_polygon("2*Sigma")
    with pytest.raises(ValueError):
        parse_polygon("")


@given(random_polygons)
def test_pick_identity(poly):
    assert poly.area2 == 2 * poly.n_points - poly.boundary_count - 2
    inner = interior_hull(poly)
    assert poly.n_points == len(inner.points) + poly.boundary_count


@given(random_polygons)
def test_vertices_strictly_convex(poly):
    verts = poly.vertices
    k = len(verts)
    for i in range(k):
        o, a, b = verts[i], verts[(i + 1) % k], verts[(i + 2) % k]
        assert ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0])) > 0


@given(random_polygons, st.integers(1, 5))
def test_ehrhart_agreement(poly, q):
    """Pick's theorem on the q-fold dilation: (area2 q^2 + boundary q + 2)/2
    points."""
    num = poly.area2 * q * q + poly.boundary_count * q + 2
    assert num % 2 == 0
    assert num // 2 == len(dilate(poly, q).points)


def test_minkowski_point_sum(small_corpus):
    for poly in small_corpus:
        if poly.n_points > 12:
            continue
        sums = {(a[0] + b[0], a[1] + b[1])
                for a in poly.points for b in poly.points}
        assert set(dilate(poly, 2).points) <= sums


@given(random_polygons, unimodular_maps)
def test_canonical_form_is_class_invariant(poly, phi):
    image = from_vertices([phi(v) for v in poly.vertices])
    assert canonical_form(poly) == canonical_form(image)


def test_lattice_width_models():
    cases = {"Sigma": 1, "2*Sigma": 2, "3*Sigma": 3, "4*Sigma": 4,
             "5*Sigma": 5, "Upsilon": 2, "2*Upsilon": 4, "Upsilon_2": 3,
             "Upsilon_3": 4, "Upsilon_4": 5}
    for name, w in cases.items():
        assert lattice_width(named_polygon(name)) == w, name


@given(random_polygons, unimodular_maps)
def test_lattice_width_is_invariant(poly, phi):
    image = from_vertices([phi(v) for v in poly.vertices])
    assert lattice_width(poly) == lattice_width(image)


def test_lattice_width_data_is_frozen():
    """tests/data/lattice_widths.json holds [vertices, width, directions]
    for build_corpus(7000, 40, n_min=3, n_max=20, box=6, max_vertices=7)
    and a product of four seeded shears of each, as the whole-window
    search gave them."""
    frozen = json.loads((Path(__file__).parent / "data" /
                         "lattice_widths.json").read_text())
    assert len(frozen) == 80
    for verts, w, dirs in frozen:
        poly = from_vertices([tuple(v) for v in verts])
        assert lattice_width_data(poly) == (w, tuple(map(tuple, dirs))), verts


def test_lattice_width_data_on_a_far_sheared_image():
    """A polygon and its image under a matrix with entries near 10^4:
    the same width, and the directions of the image are those of the
    polygon under the inverse transpose."""
    poly = parse_polygon("0,0 3,0 4,2 2,4 0,3")
    m = ((89, 144), (55, 89))           # determinant 1
    image = from_vertices([(m[0][0] * x + m[0][1] * y,
                            m[1][0] * x + m[1][1] * y) for x, y in poly.vertices])
    shear = ((1, 0), (97, 1))
    far = from_vertices([(x, shear[1][0] * x + y) for x, y in image.vertices])
    assert max(abs(c) for v in far.vertices for c in v) > 10_000
    w, dirs = lattice_width_data(poly)

    def normal(d):
        return d if d[0] > 0 or (d[0] == 0 and d[1] > 0) else (-d[0], -d[1])

    # u . v = (M^-T u) . (M v), M = shear @ m, M^-T = [[a, b], [c, d]]
    mm = ((m[0][0], m[0][1]),
          (shear[1][0] * m[0][0] + m[1][0], shear[1][0] * m[0][1] + m[1][1]))
    inv_t = ((mm[1][1], -mm[1][0]), (-mm[0][1], mm[0][0]))
    moved = tuple(sorted(normal((inv_t[0][0] * a + inv_t[0][1] * b,
                                 inv_t[1][0] * a + inv_t[1][1] * b))
                         for a, b in dirs))
    assert lattice_width_data(far) == (w, moved)
    # the canonical form too, and of the polygon under x -> x + 5000y
    sheared = from_vertices([(x + 5000 * y, y) for x, y in poly.vertices])
    assert lattice_width(sheared) == w
    for placed in (far, sheared):
        assert canonical_form(placed) == canonical_form(poly)


def _edge_window_width_data(poly):
    """The width and its directions by the edge-vector window search
    that the 5x5 window replaced, kept as a reference.  It is valid in
    any basis of directions, and runs in the reduced one, where its
    window is small: two independent edge vectors bound every direction
    whose strip height could be least."""
    b1, b2 = _reduced_basis(poly.vertices)
    assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == 1
    verts = [(b1[0] * x + b1[1] * y, b2[0] * x + b2[1] * y)
             for x, y in poly.vertices]
    cap = min(_width(verts, (1, 0)), _width(verts, (0, 1)))
    v0, v1, v2 = verts[0], verts[1], verts[2]
    e1 = (v1[0] - v0[0], v1[1] - v0[1])
    e2 = (v2[0] - v0[0], v2[1] - v0[1])
    det = abs(e1[0] * e2[1] - e1[1] * e2[0])
    bound_1 = ((abs(e1[1]) + abs(e2[1])) * cap) // det + 1
    bound_2 = ((abs(e1[0]) + abs(e2[0])) * cap) // det + 1
    best = None
    dirs = []
    for u1 in range(bound_1 + 1):
        for u2 in range(-bound_2, bound_2 + 1):
            if u1 == 0 and u2 <= 0:
                continue
            if math.gcd(u1, abs(u2)) != 1:
                continue
            w = _width(verts, (u1, u2))
            if best is None or w < best:
                best, dirs = w, [(u1, u2)]
            elif w == best:
                dirs.append((u1, u2))
    assert best is not None and best <= cap
    out = []
    for u1, u2 in dirs:
        d = (u1 * b1[0] + u2 * b2[0], u1 * b1[1] + u2 * b2[1])
        out.append(d if d[0] > 0 or (d[0] == 0 and d[1] > 0)
                   else (-d[0], -d[1]))
    return best, tuple(sorted(out))


def _unimodular_image(poly, rng):
    """poly under a seeded product of up to six elementary unimodular
    matrices and a shift."""
    gens = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)),
            ((1, 0), (-1, 1)), ((0, -1), (1, 0)))
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 6)):
        (a, b), (c, d) = rng.choice(gens)
        m = ((a * m[0][0] + b * m[1][0], a * m[0][1] + b * m[1][1]),
             (c * m[0][0] + d * m[1][0], c * m[0][1] + d * m[1][1]))
    phi = AffineUnimodularMap(m, (rng.randint(-20, 20), rng.randint(-20, 20)))
    return from_vertices(map(phi, poly.vertices))


def test_lattice_width_data_matches_the_edge_window_search():
    """The 5x5 window agrees with the edge-vector window on a seeded
    corpus slice and an image of each, and on the parallelogram
    0,1 6,4 6,7 0,4, whose reduced basis is the standard one and whose
    four width directions include (1, -2), outside a 3x3 window."""
    rng = random.Random(27)
    polys = build_corpus(1, 200, n_min=3, n_max=30, box=8, max_vertices=8)
    polys += [_unimodular_image(p, rng) for p in polys]
    parallelogram = parse_polygon("0,1 6,4 6,7 0,4")
    assert _reduced_basis(parallelogram.vertices) == ((1, 0), (0, 1))
    assert lattice_width_data(parallelogram) == (
        6, ((0, 1), (1, -2), (1, -1), (1, 0)))
    polys.append(parallelogram)
    for m in (((1, 3), (0, 1)), ((5, 2), (2, 1))):
        phi = AffineUnimodularMap(m, (0, 0))
        polys.append(from_vertices(map(phi, parallelogram.vertices)))
    for poly in polys:
        assert lattice_width_data(poly) == _edge_window_width_data(poly), \
            poly.vertices


def test_lattice_width_recursion(small_corpus):
    for poly in small_corpus:
        inner = interior_hull(poly)
        if inner.dim != 2:
            continue
        inner_poly = from_vertices(list(inner.points))
        assert lattice_width(poly) == lattice_width(inner_poly) + 2


def test_symmetry_group_is_a_group(models):
    for poly in models.values():
        group = symmetry_group(poly)
        pts = set(poly.points)
        table = {g: {v: g(v) for v in pts} for g in group}
        for g in group:
            assert set(table[g].values()) == pts
        # closure under composition, checked on the point action
        actions = {tuple(sorted(table[g].items())) for g in group}
        for g in group:
            for h in group:
                comp = tuple(sorted((v, table[g][table[h][v]])
                                    for v in pts))
                assert comp in actions


def test_symmetry_group_orders():
    assert len(symmetry_group(named_polygon("Sigma"))) == 6
    assert len(symmetry_group(named_polygon("2*Sigma"))) == 6
    assert len(symmetry_group(named_polygon("Upsilon"))) == 6
    square = from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(symmetry_group(square)) == 8


def test_classify_models():
    assert classify(named_polygon("3*Sigma")).tag == "Sigma_multiple"
    assert classify(named_polygon("3*Sigma")).params == (3,)
    got = classify(from_vertices([(-1, -1), (2, 0), (0, 2)]))
    assert (got.tag, got.params) == ("Upsilon_d", (2,))
    assert classify(named_polygon("2*Upsilon")).tag == "TwoUpsilon"
    assert classify(lawrence_prism(3, 1)).tag == "LawrencePrism"
    assert classify(from_vertices([(0, 0), (3, 0), (1, 2), (0, 1)])).tag \
        == "Other"


FAMILY_MODELS = (
    [(standard_triangle(d), ("Sigma_multiple", (d,))) for d in (2, 3, 4)]
    + [(upsilon_indexed(d), ("Upsilon_d", (d,))) for d in (1, 2, 3)]
    + [(upsilon_triangle(2), ("TwoUpsilon", (2,))),
       (lawrence_prism(3, 1), ("LawrencePrism", (3, 1))),
       # as many points and as much area as 2*Sigma, but width one
       (lawrence_prism(4, 0), ("LawrencePrism", (4, 0)))])


@given(unimodular_maps)
def test_classify_is_unimodular_invariant(phi):
    for model, expected in FAMILY_MODELS:
        image = from_vertices([phi(v) for v in model.vertices])
        got = classify(image)
        assert (got.tag, got.params) == expected, model


def test_interior_hull_shapes():
    assert interior_hull(named_polygon("2*Sigma")).dim == -1
    assert interior_hull(named_polygon("Upsilon")).dim == 0
    assert interior_hull(named_polygon("3*Sigma")).points.points == ((1, 1),)
    inner4 = interior_hull(named_polygon("4*Sigma"))
    assert inner4.dim == 2 and len(inner4.points) == 3


def test_prune_vertex():
    poly = named_polygon("2*Sigma")
    smaller = prune_vertex(poly, (2, 0))
    assert smaller.n_points == poly.n_points - 1
    assert (2, 0) not in smaller.points
    with pytest.raises(ValueError):
        prune_vertex(poly, (1, 0))  # edge midpoint, not a vertex


def test_lw_minimality_and_sigma_point():
    poly = named_polygon("2*Sigma")
    for v in poly.vertices:
        assert lattice_width(prune_vertex(poly, v)) < lattice_width(poly)
    sq = from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    pt = sigma_point(sq)
    assert pt == (sum(p[0] for p in sq.points), sum(p[1] for p in sq.points))


def test_convex_hull_and_contains():
    hull = tuple(convex_hull([(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)]))
    assert set(hull) == {(0, 0), (2, 0), (0, 2)}
    assert (1, 1) in from_vertices(hull).points
    assert (2, 2) not in from_vertices(hull).points


def test_named_families_scale():
    for d in (2, 3, 4):
        assert standard_triangle(d).n_points == (d + 1) * (d + 2) // 2
        assert upsilon_triangle(d).area2 == 3 * d * d
        assert upsilon_indexed(d).n_points == (d * d + 3 * d + 4) // 2


def test_ehrhart_is_quadratic(models):
    """Point counts of the dilations start 1, n and have constant second
    difference area2; the count 1 of 0Δ, a single point and no polygon,
    is given."""
    for poly in models.values():
        counts = [1] + [len(dilate(poly, q).points) for q in range(1, 4)]
        assert counts[1] == poly.n_points
        assert {counts[q + 1] - 2 * counts[q] + counts[q - 1]
                for q in (1, 2)} == {poly.area2}


def test_point_set_pickles_its_points_alone():
    points = PointSet.of(named_polygon("Upsilon_4").points)
    before = pickle.dumps(points)
    assert (0, 0) in points and (99, 99) not in points
    after = pickle.dumps(points)
    assert len(after) == len(before)
    restored = pickle.loads(after)
    assert restored == points
    assert all(pt in restored for pt in points)


def test_all_pairs_unimodular_detection(models):
    names = list(models)
    for x, y in combinations(names, 2):
        assert canonical_form(models[x]) != canonical_form(models[y])


def test_area_scaling():
    base = named_polygon("Upsilon")
    for d in (1, 2, 3):
        assert dilate(base, d).area2 == d * d * base.area2
        assert math.isqrt(dilate(base, d).area2 // 3) == d


@pytest.mark.parametrize("q", [0, -1])
def test_dilate_refuses_a_factor_below_one(q):
    with pytest.raises(ValueError, match="must be positive"):
        dilate(named_polygon("Upsilon"), q)


def scanned_points(poly) -> list:
    """Lattice points by a containment test over the whole bounding box,
    in (y, x) order."""
    x0, y0, x1, y1 = poly.bbox
    return [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)
            if poly.contains((x, y))]


# horizontal edges, negative coordinates, non-primitive and steep edges
ROW_SHAPES = ["-3,-2 3,-2 3,1 -3,1", "-4,-1 2,-1 0,3", "-5,-3 1,-4 4,2 -2,3",
              "0,0 6,0 0,4", "-1,-5 0,-5 1,4", "-7,2 -1,-3 2,-3 2,1"]


@pytest.mark.parametrize("text", ROW_SHAPES)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_row_bounds_match_a_containment_scan(text, q):
    poly = dilate(parse_polygon(text), q)
    assert list(poly.points) == scanned_points(poly)


@given(st.lists(st.tuples(st.integers(-9, 6), st.integers(-9, 6)),
                min_size=3, max_size=8), st.integers(1, 3))
def test_row_bounds_match_a_containment_scan_at_random(pts, q):
    poly = polygon_from(pts)
    assume(poly is not None)
    big = dilate(poly, q)
    assert list(big.points) == scanned_points(big)


def test_points_still_check_picks_formula():
    poly = LatticePolygon(((-3, -2), (3, -2), (3, 1), (-3, 1)))
    poly.__dict__["boundary_count"] = poly.boundary_count + 2
    with pytest.raises(InvariantViolation, match="Pick"):
        poly.points
