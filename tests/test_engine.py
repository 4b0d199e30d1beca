"""Production table engine: strategy, symmetry, checkpoints, audits."""
from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import REFERENCE_TABLES
from polybetti import engine, koszul, linalg
from polybetti.corpus import build_corpus, kp1_corpus, removal_corpus
from polybetti.engine import (AppendLog, BlockFailed, EngineOptions,
                              EntryOutcome, Kp1Report, betti_table,
                              block_dimensions, compute_b, compute_c,
                              compute_plan, effective_plans, options_key,
                              plan_strategy, polygon_key, run_audits,
                              strand_value, verify_kp1)
from polybetti.koszul import (choose_removal, coboundary_matrix,
                              middle_profile, peak_block, reduced_supports,
                              strand_spec, support_window, verify_plan,
                              wedge_basis)
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import (AffineUnimodularMap, from_vertices,
                               interior_hull, named_polygon, order_key,
                               parse_polygon, symmetry_group)
from polybetti.scope import call_scope
from polybetti.table import to_json_dict


def mapped(poly, matrix, shift):
    phi = AffineUnimodularMap(matrix, shift)
    return from_vertices([phi(v) for v in poly.vertices])

FAST_MODELS = ["Sigma", "Upsilon", "2*Sigma", "Upsilon_2", "3*Sigma",
               "2*Upsilon", "Upsilon_3"]


@pytest.mark.parametrize("name", FAST_MODELS)
def test_tables_match_frozen_models(name, prime, serial_options):
    poly = named_polygon(name)
    table = betti_table(poly, prime, serial_options)
    b, c = REFERENCE_TABLES[name]
    assert table.b == b
    assert table.c == c
    assert table.n == poly.n_points
    assert table.prime == prime


def test_integer_prime_argument_is_accepted(serial_options):
    table = betti_table(named_polygon("Upsilon"), 40009, serial_options)
    assert (table.b, table.c) == ([0], [1])


def test_determinism_is_bit_identical(prime, serial_options):
    from polybetti.table import render_ascii
    poly = named_polygon("Upsilon_3")
    first = betti_table(poly, prime, serial_options)
    second = betti_table(poly, prime, serial_options)
    assert render_ascii(first) == render_ascii(second)
    assert to_json_dict(first) == to_json_dict(second)


# to_json_dict of these tables with their bigraded breakdown, at one
# worker, frozen to tests/data/bigraded_<file>.json.  3*Sigma and 4*Sigma
# are left out because their breakdowns are empty: 3*Sigma routes every
# antidiagonal as a shortcut, and the one entry 4*Sigma computes, b11, is
# zero.
FROZEN_BIGRADED = {"Upsilon_2": "Upsilon_2", "2_Upsilon": "2*Upsilon",
                   "Upsilon_3": "Upsilon_3",
                   "quad_1-0_2-0_3-4_0-3": "1,0 2,0 3,4 0,3"}


@pytest.mark.parametrize("file", sorted(FROZEN_BIGRADED))
def test_bigraded_tables_match_frozen_json(file, prime, serial_options):
    text = FROZEN_BIGRADED[file]
    poly = parse_polygon(text) if "," in text else named_polygon(text)
    table = betti_table(poly, prime,
                        replace(serial_options, keep_bigraded=True))
    path = Path(__file__).parent / "data" / f"bigraded_{file}.json"
    assert to_json_dict(table) == json.loads(path.read_text())


def test_provenance_tags(prime, serial_options):
    en = betti_table(named_polygon("2*Sigma"), prime, serial_options)
    assert set(en.b_provenance) == {"eagon_northcott"}
    assert set(en.c_provenance) == {"zero_by_shape"}

    table = betti_table(named_polygon("3*Sigma"), prime, serial_options)
    assert table.b_provenance[6] == "zero_by_interior"          # b7 = 0
    for j in range(2, 8):                                       # c2..c7 = 0
        assert table.c_provenance[j - 1] == "zero_by_boundary_count"
    assert {"computed", "crossfilled"} & set(table.b_provenance
                                             + table.c_provenance)


@pytest.mark.parametrize("name", ["Upsilon_2", "2*Upsilon", "Upsilon_3"])
def test_rigor_flags_and_star_closure(name, prime, serial_options):
    poly = named_polygon(name)
    n = poly.n_points
    table = betti_table(poly, prime, serial_options)
    # a computed zero is exact, so no zero entry may be flagged modular
    for v, r in zip(table.b + table.c, table.b_rigorous + table.c_rigorous):
        if v == 0:
            assert r
    # rigor transfers across each antidiagonal in both directions
    for ell in range(1, n - 1):
        pb, pc = ell, n - 1 - ell
        rig_b = not (1 <= pb <= n - 3) or table.b_rigorous[pb - 1]
        rig_c = not (1 <= pc <= n - 3) or table.c_rigorous[pc - 1]
        assert rig_b == rig_c


def test_modular_entries_frozen(prime, serial_options):
    def stars(name):
        t = betti_table(named_polygon(name), prime, serial_options)
        return ({p for p, r in enumerate(t.b_rigorous, 1) if not r},
                {p for p, r in enumerate(t.c_rigorous, 1) if not r})

    assert stars("Upsilon_2") == ({3}, {3})
    assert stars("2*Upsilon") == ({5}, {4})
    assert stars("Upsilon_3") == ({4, 5, 6}, {4, 5, 6})
    assert stars("3*Sigma") == (set(), set())


def test_plan_strategy_shapes():
    routes = plan_strategy(named_polygon("2*Sigma"))
    assert set(routes) == set(range(1, 5))
    assert set(routes.values()) == {"shortcut"}

    poly = named_polygon("3*Sigma")
    routes = plan_strategy(poly)
    assert engine._presets(poly) == (
        {7: "zero_by_interior"},
        {j: "zero_by_boundary_count" for j in range(2, 8)})
    assert set(routes) == set(range(1, 9))
    # every antidiagonal of 3*Sigma has a preset side
    assert set(routes.values()) == {"shortcut"}

    # the side with the smaller peak block is computed, ties to row two,
    # on a triangle (reduced plans) and on a quadrilateral (unreduced)
    chosen = []
    for poly in (named_polygon("Upsilon_3"),
                 parse_polygon("1,0 2,0 3,4 0,3")):
        plan_b, plan_c = effective_plans(poly, EngineOptions())
        for a, choice in plan_strategy(poly).items():
            if choice == "shortcut":
                continue
            peak_b = peak_block(strand_spec(poly, "b", a, plan_b))
            peak_c = peak_block(strand_spec(poly, "c", poly.n_points - 1 - a,
                                            plan_c))
            assert choice == ("compute_c" if peak_c <= peak_b
                              else "compute_b")
            chosen.append(choice)
    assert set(chosen) == {"compute_b", "compute_c"}


def test_effective_plans_modes():
    tri = named_polygon("2*Sigma")
    square = parse_polygon("0,0 2,0 2,2 0,2")
    auto = EngineOptions()
    plan_b, plan_c = effective_plans(tri, auto)
    assert set(plan_b) == set(plan_c) == set(tri.vertices)
    assert effective_plans(square, auto) == ((), ())
    on = EngineOptions(removal="on")
    diagonals = ({(0, 0), (2, 2)}, {(2, 0), (0, 2)})
    plan_b, plan_c = effective_plans(square, on)
    assert set(plan_b) in diagonals and set(plan_c) in diagonals
    off = EngineOptions(removal="off")
    assert effective_plans(tri, off) == ((), ())


def shape_corpus(per_shape=4):
    """Seeded quadrilaterals, pentagons and hexagons with interior
    points: auto routes them unreduced and computes them reduced."""
    drawn = build_corpus(1212, 400, n_min=6, n_max=10, box=5,
                         max_vertices=7)
    return [poly for k in (4, 5, 6)
            for poly in [q for q in drawn if len(q.vertices) == k
                         and interior_hull(q).points][:per_shape]]


@pytest.mark.parametrize("p", [3, 40009])
def test_auto_tables_identical_to_the_mode_routing_alike(p):
    budget = ComputeBudget(max_workers=1)
    for poly in removal_corpus() + shape_corpus():
        # auto routes triangles as "on" does and everything else as "off"
        same_routes = "on" if len(poly.vertices) == 3 else "off"
        auto, other = (to_json_dict(betti_table(poly, p, EngineOptions(
            removal=mode, keep_bigraded=True, budget=budget)))
            for mode in ("auto", same_routes))
        assert auto == other, poly.vertices


def test_auto_routes_non_triangles_unreduced():
    """Routing sizes the unreduced peak blocks, so routes, provenance
    tags and rigor flags are those of removal off."""
    for poly in shape_corpus():
        auto = plan_strategy(poly, EngineOptions())
        off = plan_strategy(poly, EngineOptions(removal="off"))
        assert effective_plans(poly, EngineOptions()) == ((), ())
        assert auto == off


def test_auto_ranks_a_quadrilateral_on_reduced_supports(prime, monkeypatch):
    poly = parse_polygon("1,0 2,0 3,4 0,3")
    pair = {(2, 0), (0, 3)}         # the diagonal choose_removal picks
    supports = []
    real = engine.coboundary_matrix

    def recording(spec, ab, prime, which="right", **kwargs):
        supports.append(spec.wedge_support)
        return real(spec, ab, prime, which, **kwargs)

    monkeypatch.setattr(engine, "coboundary_matrix", recording)
    serial = ComputeBudget(max_workers=1)
    auto = betti_table(poly, prime, EngineOptions(budget=serial))
    assert supports
    assert {pt for pt in poly.points if all(pt not in a for a in supports)} \
        == pair
    off = betti_table(poly, prime, EngineOptions(removal="off", budget=serial))
    assert (auto.b, auto.c) == (off.b, off.c)


def test_plans_are_made_once_and_only_for_computed_strands(prime):
    serial = ComputeBudget(max_workers=1)
    # the caches live until the outermost scope exits
    with call_scope():
        choose_removal.cache_clear()
        # every antidiagonal a shortcut: presets and the table edge
        for text in ("-1,0 0,-1 1,0 0,1", "-1,0 0,-1 1,-1 1,0 0,1 -1,1"):
            poly = parse_polygon(text)
            assert set(plan_strategy(poly).values()) == {"shortcut"}
            betti_table(poly, prime, EngineOptions(budget=serial))
            assert choose_removal.cache_info().misses == 0
        # a computed strand plans once per table, however many entries
        poly = parse_polygon("1,0 2,0 3,4 0,3")
        routes = plan_strategy(poly)
        computed = {ch[-1] for ch in routes.values() if ch != "shortcut"}
        assert list(routes.values()).count("compute_c") > 1
        choose_removal.cache_clear()
        betti_table(poly, prime, EngineOptions(budget=serial))
        assert choose_removal.cache_info().misses == len(computed)
        # and the plans made are those of the computed strands
        for strand in computed:
            choose_removal(poly, strand)
        assert choose_removal.cache_info().misses == len(computed)


def removal_candidates(poly):
    """The plans choose_removal sizes, or the one it takes unsized."""
    verts = poly.vertices
    if len(verts) == 3:
        return {choose_removal(poly)}
    if len(verts) == 4:
        return {tuple(sorted(pr, key=order_key))
                for pr in ((verts[0], verts[2]), (verts[1], verts[3]))}
    return {(v,) for v in verts}


@pytest.mark.parametrize("text", ["-1,-1 2,0 0,2", "1,0 2,0 3,4 0,3",
                                  "0,0 2,0 3,1 1,3 0,2"])
def test_a_table_verifies_each_plan_once_and_builds_each_support_once(
        text, prime):
    """Routing sizes both strands on its plans, each computed strand
    sizes its removal candidates, and the entries rank on the chosen
    one: every plan is verified once and each (plan, twisted, degree)
    support built once, however many positions share them."""
    poly = parse_polygon(text)
    options = EngineOptions(budget=ComputeBudget(max_workers=1))
    computed = {ch[-1] for ch in plan_strategy(poly, options).values()
                if ch != "shortcut"}
    assert computed
    routed = dict(zip("bc", effective_plans(poly, options)))
    pairs = {(routed[s], s == "c") for s in "bc"} | {
        (plan, s == "c") for s in computed
        for plan in removal_candidates(poly)}
    with call_scope():
        for cached in (verify_plan, reduced_supports, strand_spec,
                       choose_removal):
            cached.cache_clear()
        betti_table(poly, prime, options)
        assert verify_plan.cache_info().misses == len({pl for pl, _ in pairs})
        assert reduced_supports.cache_info().misses == 3 * len(pairs)
        # a second table plans nothing anew
        misses = [f.cache_info().misses
                  for f in (verify_plan, reduced_supports, strand_spec)]
        betti_table(poly, prime, options)
        assert [f.cache_info().misses for f in (verify_plan, reduced_supports,
                                                 strand_spec)] == misses


@pytest.mark.parametrize("text", ["4*Sigma", "0,0 2,0 3,1 1,3 0,2"])
def test_a_table_deflates_each_reduced_support_from_the_full_one(
        text, prime, monkeypatch):
    """From cold caches, a table builds the full support's layers once
    and deflates every reduced support it sizes or ranks once per
    removed point: triangles' corners and the pentagon's single
    candidates alike, with nothing registered beforehand."""
    poly = named_polygon(text) if "*" in text else parse_polygon(text)
    real_layers, real_deflate = koszul._wedge_layers, koszul._deflate
    asked, deflated = set(), []

    def layers(a, removed):
        asked.add((a, removed))
        return real_layers(a, removed)

    def deflate(low, v):
        deflated.append(v)
        return real_deflate(low, v)

    monkeypatch.setattr(koszul, "_wedge_layers", layers)
    monkeypatch.setattr(koszul, "_deflate", deflate)
    with call_scope():
        for cached in (real_layers, choose_removal, strand_spec):
            cached.cache_clear()
        betti_table(poly, prime,
                    EngineOptions(budget=ComputeBudget(max_workers=1)))
        assert [a for a, removed in asked if not removed] == [poly.points]
        assert real_layers.cache_info().misses == len(asked)
        assert deflated
        assert len(deflated) == sum(len(removed) for _, removed in asked)


def test_an_invalid_plan_fails_every_time():
    """A cache must never hold a plan it did not verify."""
    square = parse_polygon("0,0 1,0 1,1 0,1")
    bad = ((0, 0), (1, 0))
    for _ in range(2):
        with pytest.raises(ValueError, match="is not a regular pair"):
            verify_plan(square, bad)
        with pytest.raises(ValueError, match="is not a regular pair"):
            reduced_supports(square, bad, False, 1)
        with pytest.raises(ValueError, match="is not a regular pair"):
            strand_spec(square, "b", 1, bad)


@pytest.mark.parametrize("name", ["Upsilon_2", "2*Upsilon"])
def test_removal_does_not_change_values(name, prime):
    poly = named_polygon(name)
    budget = ComputeBudget(max_workers=1)
    on = betti_table(poly, prime,
                     EngineOptions(removal="on", budget=budget))
    off = betti_table(poly, prime,
                      EngineOptions(removal="off", budget=budget))
    assert (on.b, on.c) == (off.b, off.c)


def bfs_orbits(symmetries, removed, degree, bidegrees):
    """Reference orbit partition, (order_key-least representative,
    members) per orbit: a breadth-first closure over one closure per
    symmetry that permutes the removed points, which needs no group."""
    gone = set(removed)
    actions = []
    for psi in symmetries:
        if gone and {psi(p) for p in gone} != gone:
            continue
        (m00, m01), (m10, m11) = psi.matrix
        tx, ty = psi.shift

        def act(ab, m00=m00, m01=m01, m10=m10, m11=m11,
                dx=degree * tx, dy=degree * ty):
            return (m00 * ab[0] + m01 * ab[1] + dx,
                    m10 * ab[0] + m11 * ab[1] + dy)

        actions.append(act)
    universe = set(bidegrees)
    remaining = set(universe)
    out = []
    for ab in sorted(bidegrees, key=order_key):
        if ab not in remaining:
            continue
        orbit = {ab}
        frontier = [ab]
        while frontier:
            cur = frontier.pop()
            for act in actions:
                img = act(cur)
                assert img in universe
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        out.append((ab, tuple(sorted(orbit, key=order_key))))
        remaining -= orbit
    return out


def test_symmetry_orbit_counts_frozen(monkeypatch):
    poly = named_polygon("2*Sigma")
    spec = strand_spec(poly, "b", 1)
    prof = middle_profile(spec)
    assert len(prof) == 15 and all(prof.values())
    group = symmetry_group(poly)
    assert len(group) == 6
    orbits = engine._orbits(poly, spec, prof, True)
    assert sorted(len(members) for _, members in orbits) == [3, 3, 3, 6]
    assert len(engine._orbits(poly, spec, prof, False)) == 15
    # orientation-preserving half only: five orbits of three
    rot = tuple(psi for psi in group
                if psi.matrix[0][0] * psi.matrix[1][1]
                - psi.matrix[0][1] * psi.matrix[1][0] == 1)
    assert len(rot) == 3
    monkeypatch.setattr(engine, "symmetry_group", lambda p: rot)
    rot_orbits = engine._orbits(poly, spec, prof, True)
    assert sorted(len(members) for _, members in rot_orbits) == [3] * 5
    assert rot_orbits == bfs_orbits(rot, (), spec.translate_degree, prof)


ORBIT_POLYGONS = ["0,0 2,0 2,2 0,2", "0,0 3,0 3,3 0,3",
                  "-2,0 0,-2 2,0 0,2", "-1,0 0,-1 1,-1 1,0 0,1 -1,1",
                  "-2,0 0,-2 2,-2 2,0 0,2 -2,2"]


def test_orbits_match_the_breadth_first_reference():
    """The image sets of each least member give the representatives,
    members and order of the breadth-first closure, on every strand,
    position and plan (none, choose_removal's, each single vertex)."""
    polys = (build_corpus(1, 300, n_min=4, n_max=14, box=6,
                          max_vertices=7)
             + [named_polygon(m) for m in ("2*Sigma", "3*Sigma", "4*Sigma",
                                           "5*Sigma", "Upsilon_2",
                                           "Upsilon_3", "2*Upsilon")]
             + [parse_polygon(t) for t in ORBIT_POLYGONS])
    specs = 0
    for poly in polys:
        with call_scope():
            # under the identity alone both give singletons
            if len(symmetry_group(poly)) == 1:
                continue
            for strand in "bc":
                plans = {(), choose_removal(poly, strand)} | {
                    (v,) for v in poly.vertices}
                for ell in range(1, poly.n_points - 2):
                    for plan in plans:
                        spec = strand_spec(poly, strand, ell, plan)
                        prof = middle_profile(spec)
                        assert engine._orbits(poly, spec, prof, True) \
                            == bfs_orbits(symmetry_group(poly), plan,
                                          spec.translate_degree, prof)
                        specs += 1
    assert specs > 6000


def test_symmetry_on_off_same_entries(prime):
    poly = named_polygon("Upsilon_2")
    budget = ComputeBudget(max_workers=1)
    for strand, ell in (("b", 2), ("c", 2)):
        fast = strand_value(poly, strand, ell, prime, (),
                            use_symmetry=True, budget=budget)
        slow = strand_value(poly, strand, ell, prime, (),
                            use_symmetry=False, budget=budget)
        assert fast.value == slow.value
        assert fast.bigraded == slow.bigraded


def test_bigraded_tables_and_support_windows(prime):
    poly = named_polygon("Upsilon_2")
    opts = EngineOptions(keep_bigraded=True,
                         budget=ComputeBudget(max_workers=1))
    table = betti_table(poly, prime, opts)
    assert table.bigraded
    for ell in range(1, 5):
        marg = sum(v for (s, e, _), v in table.bigraded.items()
                   if s == "b" and e == ell)
        if any(s == "b" and e == ell for (s, e, _) in table.bigraded):
            assert marg == table.b[ell - 1]
    for (strand, ell, ab), val in table.bigraded.items():
        window = (support_window(poly, ell, twisted=False)
                  if strand == "b" else
                  support_window(poly, ell - 1, twisted=True))
        assert val and ab in window


def test_block_dimensions_match_enumeration():
    poly = named_polygon("Upsilon_2")
    spec = strand_spec(poly, "b", 2)
    blocks = block_dimensions(poly, "b", 2, EngineOptions(removal="off"))
    assert sum(cols for _, _, cols in blocks) == sum(
        middle_profile(spec).values())
    for ab, rows, cols in blocks:
        # the middle term's wedges and those of the term below it
        for n, i in ((cols, 1), (rows, 2)):
            assert n == len(wedge_basis(spec.wedge_support, spec.supports[i],
                                        spec.top - i, ab))


def test_block_dimensions_over_a_segment_interior():
    # the 3x2 rectangle's interior is the segment from (1, 1) to (2, 1)
    poly = parse_polygon("0,0 3,0 3,2 0,2")
    assert interior_hull(poly).dim == 1
    assert block_dimensions(poly, "c", 1) == [((1, 1), 0, 1),
                                              ((2, 1), 0, 1)]


def test_block_dimensions_over_a_one_point_interior():
    # Upsilon's interior is the origin alone, so the bidegree hull of
    # its one twisted block is a single point
    assert block_dimensions(named_polygon("Upsilon"), "c", 1) == [
        ((0, 0), 0, 1)]


def test_checkpoint_resume_and_refusal(tmp_path, prime):
    path = str(tmp_path / "run.jsonl")
    poly = named_polygon("Upsilon_2")
    budget = ComputeBudget(max_workers=1)
    opts = EngineOptions(checkpoint=path, budget=budget)
    first = betti_table(poly, prime, opts)
    n_lines = len(open(path).read().splitlines())
    assert n_lines > 1
    again = betti_table(poly, prime, opts)
    assert (again.b, again.c) == (first.b, first.c)
    assert len(open(path).read().splitlines()) == n_lines
    with pytest.raises(ValueError, match="different run"):
        betti_table(poly, PrimeModulus(3), opts)
    other = EngineOptions(checkpoint=path, removal="off", budget=budget)
    with pytest.raises(ValueError, match="different run"):
        betti_table(poly, prime, other)


def test_checkpoint_header_keys(tmp_path, prime):
    # the removed points of both compute plans: a triangle's corners, and
    # a quadrilateral's diagonal pair under auto, which routes unreduced
    cases = [("-1,-1 2,0 0,2", [[-1, -1], [2, 0], [0, 2]]),
             ("0,0 2,0 2,1 0,2", [[0, 0], [2, 1]])]
    for i, (text, removed) in enumerate(cases):
        path = str(tmp_path / f"hdr{i}.jsonl")
        poly = parse_polygon(text)
        opts = EngineOptions(checkpoint=path,
                             budget=ComputeBudget(max_workers=1))
        betti_table(poly, prime, opts)
        header = json.loads(open(path).readline())
        assert header == {"polygon": polygon_key(poly),
                          "prime": prime.p,
                          "options": options_key(prime, opts),
                          "removed": {"b": removed, "c": removed}}


def test_a_log_from_an_earlier_commit_resumes_without_building(
        tmp_path, prime, monkeypatch):
    """tests/data/checkpoint_quad_1-0_2-0_3-4_0-3.jsonl was written by
    `table --vertices "1,0 2,0 3,4 0,3" --checkpoint FILE --workers 1`
    before removal plans became bare point tuples.  Its header (polygon
    key, options key, removed points) must still match, so a table
    resumed from a copy reads every block from it, builds none, gives
    the frozen bigraded table and leaves the log byte for byte."""
    data = Path(__file__).parent / "data"
    frozen = (data / "checkpoint_quad_1-0_2-0_3-4_0-3.jsonl").read_bytes()
    path = tmp_path / "quad.jsonl"
    path.write_bytes(frozen)

    def refuse(spec, ab, prime, which="right"):
        raise AssertionError(f"block at {ab} built")

    monkeypatch.setattr(engine, "coboundary_matrix", refuse)
    table = betti_table(parse_polygon("1,0 2,0 3,4 0,3"), prime,
                        EngineOptions(keep_bigraded=True, checkpoint=str(path),
                                      budget=ComputeBudget(max_workers=1)))
    assert to_json_dict(table) == json.loads(
        (data / "bigraded_quad_1-0_2-0_3-4_0-3.json").read_text())
    assert path.read_bytes() == frozen


def test_aborted_run_keeps_partials_and_resumes(tmp_path, prime):
    poly = named_polygon("Upsilon_3")
    path = str(tmp_path / "abort.jsonl")
    tight = EngineOptions(checkpoint=path,
                          budget=ComputeBudget(max_workers=1,
                                               memory_cap=5_000))
    with pytest.raises(BlockFailed) as exc_info:
        betti_table(poly, prime, tight)
    exc = exc_info.value
    assert (exc.strand, exc.ell) == ("c", 6)
    # 2 of the 25 blocks of c6 are refused; the 23 others, ranked before
    # and after the first refusal, are all in the log
    with open(path) as fh:
        records = [json.loads(line) for line in fh.readlines()[1:]]
    assert sum((r["strand"], r["ell"]) == ("c", 6) for r in records) == 23
    # the failing block is named: a bidegree of c6 too large for the cap
    spec = strand_spec(poly, "c", 6, compute_plan(poly, "c", tight))
    assert middle_profile(spec).get(exc.bidegree, 0) > 0
    block = coboundary_matrix(spec, exc.bidegree, prime, "right")
    assert 8 * block.n_rows * block.n_cols > 5_000
    relaxed = EngineOptions(checkpoint=path,
                            budget=ComputeBudget(max_workers=1))
    table = betti_table(poly, prime, relaxed)
    b, c = REFERENCE_TABLES["Upsilon_3"]
    assert (table.b, table.c) == (b, c)


def test_resume_after_torn_final_line(tmp_path, prime):
    poly = named_polygon("Upsilon_3")
    path = tmp_path / "torn.jsonl"
    opts = EngineOptions(checkpoint=str(path),
                         budget=ComputeBudget(max_workers=1))
    betti_table(poly, prime, opts)
    data = path.read_bytes()
    path.write_bytes(data[:-20])          # an interrupted final write
    table = betti_table(poly, prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["Upsilon_3"]
    # the torn record was cut off and written again in full
    assert path.read_bytes() == data
    # a bad line before the last one is not a torn write
    lines = data.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [b"{\n"] + lines[2:]))
    with pytest.raises(ValueError):
        betti_table(poly, prime, opts)


def test_log_cuts_an_unparsable_final_line(tmp_path):
    """A last line that ends in a newline but is not JSON is ignored like
    an unfinished one, and cut before the next append."""
    path = tmp_path / "log.jsonl"
    log = AppendLog(str(path), {"run": 1}, lambda rec: rec["k"])
    log.append({"k": 1})
    log.close()
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"k": 2\n')
    log = AppendLog(str(path), {"run": 1}, lambda rec: rec["k"])
    assert log.records == {1: {"k": 1}}
    log.append({"k": 3})
    log.close()
    assert path.read_bytes() == whole + b'{"k": 3}\n'


_BUMPED_TABLE_CHECK = """
from polybetti.engine import InvariantViolation, _validate_table
from polybetti.linalg import PrimeModulus
from polybetti.polygon import named_polygon
from polybetti.table import BettiTable

b, c = {b!r}, {c!r}
b[0] += 1
width = len(b)
table = BettiTable(n=width + 3, b=b, c=c, prime=PrimeModulus(40009),
                   b_provenance=["computed"] * width,
                   c_provenance=["computed"] * width,
                   b_rigorous=[True] * width, c_rigorous=[True] * width)
print("optimized:", not __debug__)
try:
    _validate_table(named_polygon("2*Sigma"), table)
except InvariantViolation as exc:
    print("raised:", exc)
"""


def run_optimized(code: str) -> list[str]:
    """The lines code prints when run under python -O."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_invariant_checks_survive_python_O():
    b, c = REFERENCE_TABLES["2*Sigma"]
    assert run_optimized(_BUMPED_TABLE_CHECK.format(b=b, c=c)) == [
        "optimized: True",
        "raised: antidiagonal difference violated at 1"]


_OVERLAP_CHECK = """
from polybetti.koszul import ComplexSpec
from polybetti.linalg import InvariantViolation
from polybetti.polygon import named_polygon

pts = named_polygon("2*Sigma").points
reduced = pts.difference([(0, 0)])
supports = (pts, pts, pts)
print("optimized:", not __debug__)
ComplexSpec("b", 1, reduced, supports, 2, 2, ((0, 0),))
try:
    ComplexSpec("b", 1, reduced, supports, 2, 2, ((0, 0), (1, 0)))
except InvariantViolation as exc:
    print("raised:", exc)
"""


def test_removal_overlap_check_survives_python_O():
    """Deflation divides out each removed point, so a complex whose
    removed points are still in its wedge support is refused."""
    assert run_optimized(_OVERLAP_CHECK) == [
        "optimized: True",
        "raised: removed points overlap the wedge support"]


def test_one_pool_per_table_joined_before_return(opened_pools, prime,
                                                 pool_every_batch):
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    table = betti_table(named_polygon("Upsilon_3"), prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["Upsilon_3"]
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []
    assert run_audits(named_polygon("Upsilon_2"), prime, opts) == []
    assert len(opened_pools) == 2
    assert multiprocessing.active_children() == []


def test_pooled_runs_build_no_block_in_the_parent(built_blocks, prime,
                                                  pool_every_batch):
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    for name in ("Upsilon_3", "2*Upsilon", "3*Sigma"):
        table = betti_table(named_polygon(name), prime, opts)
        assert (table.b, table.c) == REFERENCE_TABLES[name]
    assert run_audits(named_polygon("Upsilon_2"), prime, opts) == []
    pids = [rec[0] for rec in built_blocks()]
    assert pids
    assert pids.count(os.getpid()) == 0


def test_small_table_ranks_in_process(opened_pools, built_blocks, prime):
    # every batch of Upsilon_3 holds fewer than POOL_MIN_CELLS cells
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    table = betti_table(named_polygon("Upsilon_3"), prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["Upsilon_3"]
    assert opened_pools == []
    assert multiprocessing.active_children() == []
    pids = [rec[0] for rec in built_blocks()]
    assert pids
    assert set(pids) == {os.getpid()}


def test_many_small_blocks_rank_in_process(opened_pools, built_blocks,
                                          prime, monkeypatch):
    """A 10-point quadrilateral has a batch of Σ(rows + cols) above 4,000
    but far fewer predicted cells than POOL_MIN_CELLS: the table opens
    no pool at two workers and builds every block in the parent."""
    batches = []
    real = engine.rank_batch

    def recording(tasks, budget=None):
        batches.append((sum(t.n_rows + t.n_cols for t in tasks),
                        sum(t.n_rows * t.n_cols for t in tasks)))
        return real(tasks, budget)

    monkeypatch.setattr(engine, "rank_batch", recording)
    poly = parse_polygon("1,0 2,0 3,4 0,3")
    table = betti_table(poly, prime, EngineOptions(
        removal="off", budget=ComputeBudget(max_workers=2)))
    assert max(cost for cost, _ in batches) >= 4000
    assert max(cells for _, cells in batches) < linalg.POOL_MIN_CELLS
    assert opened_pools == []
    assert multiprocessing.active_children() == []
    pids = [rec[0] for rec in built_blocks()]
    assert pids
    assert set(pids) == {os.getpid()}
    serial = betti_table(poly, prime, EngineOptions(
        removal="off", budget=ComputeBudget(max_workers=1)))
    assert (table.b, table.c) == (serial.b, serial.c)


def test_only_batches_under_the_threshold_build_in_the_parent(
        built_blocks, prime, monkeypatch):
    pooled, serial = set(), set()
    real = engine.rank_batch

    def recording(tasks, budget=None):
        keys = {(t.spec.strand, t.spec.ell, tuple(t.bidegree), t.which)
                for t in tasks}
        cells = sum(t.n_rows * t.n_cols for t in tasks)
        worth_a_pool = len(tasks) > 1 and cells >= linalg.POOL_MIN_CELLS
        (pooled if worth_a_pool else serial).update(keys)
        return real(tasks, budget)

    monkeypatch.setattr(engine, "rank_batch", recording)
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    table = betti_table(named_polygon("5*Sigma"), prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["5*Sigma"]
    assert pooled and serial
    in_parent = {(strand, ell, tuple(ab), which)
                 for pid, strand, ell, ab, which, *_ in built_blocks()
                 if pid == os.getpid()}
    assert in_parent == serial
    assert multiprocessing.active_children() == []


def test_verify_kp1_spec_examples(prime, serial_options):
    report = verify_kp1(named_polygon("3*Sigma"), prime, serial_options)
    assert isinstance(report, Kp1Report)
    assert report.verdict == "holds"
    assert report.exceptional
    assert (report.predicted_from_right, report.first_zero_index) == (4, 7)
    assert report.entries[7] == (0, True)
    assert report.entries[6] == (27, True)

    report = verify_kp1(named_polygon("2*Upsilon"), prime, serial_options)
    assert report.verdict == "holds"
    assert report.first_zero_index == 6
    assert report.entries[6] == (0, True)
    assert report.entries[5][0] == 20

    square = parse_polygon("0,0 1,0 1,1 0,1")
    report = verify_kp1(square, prime, serial_options)
    assert report.verdict == "holds"
    assert (report.lattice_width, report.n) == (1, 4)
    assert report.predicted_from_right == 3
    assert report.first_zero_index == 2          # past the b1-only table
    assert report.entries[1] == (1, True)
    assert any("beyond the table edge" in note for note in report.notes)


def test_verify_kp1_accepts_int_prime(serial_options):
    report = verify_kp1(named_polygon("Upsilon_2"), 40009, serial_options)
    assert report.verdict == "holds"


@pytest.mark.parametrize("found, verdict, notes", [
    ((0, True), "fails", ("guaranteed nonzero entry 5 computed as zero",
                          "guaranteed nonzero entry 6 computed as zero")),
    ((5, False), "modular-only-nonzero", (
        "entry 7 is 5 mod 40009; a zero in characteristic zero is not "
        "excluded",)),
])
def test_verify_kp1_reports_a_vanished_or_a_modular_entry(
        found, verdict, notes, serial_options, monkeypatch):
    """3*Sigma guarantees b5 and b6 nonzero and predicts b7 = 0; every
    entry its planner resolves is replaced by found."""
    monkeypatch.setattr(engine, "_resolve_entry_b", lambda *args: found)
    report = verify_kp1(named_polygon("3*Sigma"), 40009, serial_options)
    assert report.entries == {5: found, 6: found, 7: found}
    assert (report.verdict, report.notes) == (verdict, notes)


@pytest.mark.parametrize("name", ["Upsilon", "2*Sigma", "Upsilon_2"])
def test_run_audits_pass_on_models(name, prime, serial_options):
    assert run_audits(named_polygon(name), prime, serial_options) == []


def test_audits_cover_a_skewed_polygon(prime, serial_options):
    poly = mapped(named_polygon("Upsilon"), ((1, 2), (0, 1)), (3, -1))
    assert run_audits(poly, prime, serial_options) == []


def test_run_audits_catch_shifted_bidegrees(prime, serial_options,
                                            monkeypatch):
    real_compute_c = engine.compute_c

    def shifted(*args, **kwargs):
        out = real_compute_c(*args, **kwargs)
        moved = {(a + 1, b): v for (a, b), v in out.bigraded.items()}
        return EntryOutcome(out.value, out.rigorous, moved)

    monkeypatch.setattr(engine, "compute_c", shifted)
    issues = run_audits(named_polygon("Upsilon_2"), prime, serial_options)
    assert any("outside its support window" in i for i in issues)
    assert any(i.startswith("antidiagonal ") for i in issues)


def test_duality_audit_reuses_the_direct_entries(prime, serial_options,
                                                 monkeypatch):
    poly = named_polygon("Upsilon_2")
    direct = engine._direct_entries(poly, prime, serial_options.budget)
    calls = []
    real_strand_value = engine.strand_value

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real_strand_value(*args, **kwargs)

    monkeypatch.setattr(engine, "strand_value", counted)
    assert engine.audit_duality(poly, prime, direct,
                                serial_options.budget) == []
    assert calls == []          # only the mirror complexes are ranked
    out = direct[("b", 2)]
    direct[("b", 2)] = EntryOutcome(out.value + 1, out.rigorous,
                                    out.bigraded)
    assert engine.audit_duality(poly, prime, direct, serial_options.budget) \
        == [f"row-one entry 2: direct {out.value + 1} vs mirror {out.value}"]


def test_quotient_and_prune_audits_report_a_planted_entry(prime,
                                                         serial_options):
    poly = named_polygon("Upsilon_2")
    table = betti_table(poly, prime, serial_options)
    assert (table.b, table.c) == ([7, 8, 3, 0], [3, 8, 6, 0])
    bumped = replace(table, c=[4, 8, 6, 0])
    assert engine.audit_quotient(poly, prime, bumped, serial_options) == [
        "row two differs: [4, 8, 6, 0] vs [3, 8, 6, 0]"]
    # pruning (2, 0) or (0, 2) leaves row one [4, 2, 0]
    bumped = replace(table, b=[7, 8, 3, 1])
    assert engine.audit_prune(poly, prime, bumped, serial_options) == [
        "pruning (2, 0) zeroes row one at 3 but b_4 = 1",
        "pruning (0, 2) zeroes row one at 3 but b_4 = 1"]


def test_symmetry_audit_reports_a_planted_entry(prime, serial_options):
    poly = named_polygon("Upsilon_2")
    direct = engine._direct_entries(poly, prime, serial_options.budget)
    out = direct[("b", 2)]
    direct[("b", 2)] = EntryOutcome(out.value + 1, out.rigorous,
                                    out.bigraded)
    # removing no points, the audit takes its orbit-reduced entries from
    # direct
    plain = replace(serial_options, removal="off")
    assert engine.audit_symmetry(poly, prime, direct, plain) == [
        f"strand b entry 2: reduced {out.value + 1} vs full {out.value}"]


@pytest.mark.parametrize("text", [
    "0,0 2,0 0,1",          # pruning (0, 1) leaves a segment: skipped
    "0,0 3,0 3,2 0,2",      # the interior is a segment
])
def test_run_audits_pass_on_segment_cases(text, prime, serial_options):
    assert run_audits(parse_polygon(text), prime, serial_options) == []


def test_audits_rank_each_entry_once(prime, serial_options, monkeypatch):
    """Where a table removes no points, the symmetry audit takes its
    orbit-reduced entries from the direct ones instead of recomputing
    them."""
    poly = parse_polygon("0,0 2,0 2,1 0,2")
    serial_options = replace(serial_options, removal="off")
    calls = []
    real_strand_value = engine.strand_value

    def counted(*args, **kwargs):
        calls.append((args[1:3], args[4:], tuple(sorted(kwargs.items()))))
        return real_strand_value(*args, **kwargs)

    monkeypatch.setattr(engine, "strand_value", counted)
    assert run_audits(poly, prime, serial_options) == []
    assert len(calls) == 16
    assert len(set(calls)) == len(calls)


def test_compute_entry_positions_out_of_strategy(prime):
    poly = named_polygon("Upsilon_2")
    budget = ComputeBudget(max_workers=1)
    b, c = REFERENCE_TABLES["Upsilon_2"]
    for ell in range(1, 5):
        assert compute_b(poly, ell, prime, budget=budget).value == b[ell - 1]
        assert compute_c(poly, ell, prime, budget=budget).value == c[ell - 1]


@pytest.mark.parametrize("p", [2, 40009])
def test_kp1_entries_match_the_full_table(p, serial_options):
    """verify_kp1 plans one antidiagonal at a time; its entries and
    their rigor must be the table's."""
    for poly in kp1_corpus(2028, 20, n_max=12):
        report = verify_kp1(poly, p, serial_options)
        table = betti_table(poly, p, serial_options)
        for t, entry in report.entries.items():
            assert entry == (table.b_entry(t), table.b_rigorous[t - 1])


def test_verify_kp1_plans_each_polygon_once(prime, serial_options):
    """However many entries verify_kp1 resolves, each strand's removal
    plan is chosen at most once per polygon."""
    planned = 0
    for poly in kp1_corpus(2028, 20, n_max=12):
        with call_scope():
            choose_removal.cache_clear()
            verify_kp1(poly, prime, serial_options)
            misses = choose_removal.cache_info().misses
            assert misses <= 2, poly.vertices
            # every plan made was one strand's, each made once
            for strand in "bc":
                choose_removal(poly, strand)
            assert choose_removal.cache_info().misses == 2, poly.vertices
        planned += misses
    assert planned


def test_polygon_key_is_class_invariant():
    poly = named_polygon("Upsilon_2")
    moved = mapped(poly, ((1, 1), (0, 1)), (-2, 5))
    assert polygon_key(poly) == polygon_key(moved)
    assert polygon_key(poly) != polygon_key(named_polygon("2*Sigma"))


def test_polygon_keys_are_frozen():
    """Every checkpoint and campaign log is headed by a polygon_key, so
    the representative canonical_form picks must not move.
    tests/data/polygon_keys.json holds [vertices, key] for the reference
    models, 8*Sigma, Upsilon_5 and Upsilon_6, every kp1_corpus() and
    removal_corpus() polygon, and build_corpus(2501, 40, n_min=3,
    n_max=20, box=6, max_vertices=7) with a unimodular image and an
    x -> x + 50y shear of each."""
    frozen = json.loads((Path(__file__).parent / "data" /
                         "polygon_keys.json").read_text())
    models = list(REFERENCE_TABLES) + ["8*Sigma", "Upsilon_5", "Upsilon_6"]
    polys = ([named_polygon(name) for name in models]
             + kp1_corpus() + removal_corpus())
    assert [verts for verts, _ in frozen[:len(polys)]] == [
        [list(v) for v in poly.vertices] for poly in polys]
    assert len(frozen) == len(polys) + 3 * 40
    with call_scope():
        for verts, key in frozen:
            assert polygon_key(from_vertices([tuple(v) for v in verts])) \
                == key, verts


def test_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(removal="sometimes")
