"""Production table engine: strategy, symmetry, checkpoints, audits."""
from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from conftest import REFERENCE_TABLES
from polybetti import engine, linalg
from polybetti.corpus import kp1_corpus
from polybetti.engine import (BlockFailed, EngineOptions, EntryOutcome,
                              Kp1Report, _bidegree_actions,
                              _orbit_partition, betti_table, block_dimensions,
                              compute_b, compute_c, effective_plans,
                              options_key, plan_strategy, polygon_key,
                              run_audits, strand_value, verify_kp1)
from polybetti.koszul import (EMPTY_PLAN, SupportTriple, coboundary_matrix,
                              linear_strand_spec, middle_profile,
                              support_window, twisted_strand_spec,
                              wedge_basis)
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import (AffineUnimodularMap, from_vertices,
                               named_polygon, parse_polygon)


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
    from polybetti.table import render_ascii, render_json
    poly = named_polygon("Upsilon_3")
    first = betti_table(poly, prime, serial_options)
    second = betti_table(poly, prime, serial_options)
    assert render_ascii(first) == render_ascii(second)
    assert render_json(first) == render_json(second)


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


def test_plan_strategy_shapes(prime):
    st = plan_strategy(named_polygon("2*Sigma"), prime)
    assert st.eagon_northcott
    assert set(st.choices.values()) == {"shortcut"}

    st = plan_strategy(named_polygon("3*Sigma"), prime)
    assert not st.eagon_northcott
    assert st.b_preset == {7: "zero_by_interior"}
    assert st.c_preset == {j: "zero_by_boundary_count" for j in range(2, 8)}
    assert set(st.choices) == set(range(1, 9))
    computed = {a for a, ch in st.choices.items() if ch != "shortcut"}
    for a in computed:
        key_b, key_c = ("b", a), ("c", 9 - a)
        assert key_b in st.estimates and key_c in st.estimates
        want = "compute_c" if (st.estimates[key_c]
                               <= st.estimates[key_b]) else "compute_b"
        assert st.choices[a] == want


def test_effective_plans_modes():
    tri = named_polygon("2*Sigma")
    square = parse_polygon("0,0 2,0 2,2 0,2")
    auto = EngineOptions()
    plan_b, plan_c = effective_plans(tri, auto)
    assert plan_b.certificate == plan_c.certificate == "triangle"
    assert effective_plans(square, auto) == (EMPTY_PLAN, EMPTY_PLAN)
    on = EngineOptions(removal="on")
    plan_b, plan_c = effective_plans(square, on)
    assert plan_b.certificate == plan_c.certificate == "opposite_pair"
    off = EngineOptions(removal="off")
    assert effective_plans(tri, off) == (EMPTY_PLAN, EMPTY_PLAN)


@pytest.mark.parametrize("name", ["Upsilon_2", "2*Upsilon"])
def test_removal_does_not_change_values(name, prime):
    poly = named_polygon(name)
    budget = ComputeBudget(max_workers=1)
    on = betti_table(poly, prime,
                     EngineOptions(removal="on", budget=budget))
    off = betti_table(poly, prime,
                      EngineOptions(removal="off", budget=budget))
    assert (on.b, on.c) == (off.b, off.c)


def test_symmetry_orbit_counts_frozen():
    poly = named_polygon("2*Sigma")
    spec = linear_strand_spec(poly, 1)
    prof = middle_profile(spec)
    bidegs = [ab for ab, v in prof.items() if v > 0]
    assert len(bidegs) == 15
    actions = _bidegree_actions(poly, EMPTY_PLAN, spec.translate_degree)
    assert len(actions) == 6
    orbits = _orbit_partition(bidegs, actions)
    assert sorted(len(members) for _, members in orbits) == [3, 3, 3, 6]
    # orientation-preserving half only: five orbits of three
    from polybetti.polygon import symmetry_group
    rot = []
    for psi in symmetry_group(poly):
        (m00, m01), (m10, m11) = psi.matrix
        if m00 * m11 - m01 * m10 != 1:
            continue
        tx, ty = psi.shift
        td = spec.translate_degree
        rot.append(lambda ab, m00=m00, m01=m01, m10=m10, m11=m11,
                   dx=td * tx, dy=td * ty: (m00 * ab[0] + m01 * ab[1] + dx,
                                            m10 * ab[0] + m11 * ab[1] + dy))
    assert len(rot) == 3
    rot_orbits = _orbit_partition(bidegs, rot)
    assert sorted(len(members) for _, members in rot_orbits) == [3] * 5
    assert len(_orbit_partition(bidegs, [])) == 15


def test_symmetry_on_off_same_entries(prime):
    poly = named_polygon("Upsilon_2")
    budget = ComputeBudget(max_workers=1)
    for strand, ell in (("b", 2), ("c", 2)):
        fast = strand_value(poly, strand, ell, prime, EMPTY_PLAN,
                            use_symmetry=True, budget=budget)
        slow = strand_value(poly, strand, ell, prime, EMPTY_PLAN,
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
        window = (support_window(poly, ell, 1, twisted=False)
                  if strand == "b" else
                  support_window(poly, ell - 1, 1, twisted=True))
        assert val and ab in window


def test_block_dimensions_match_enumeration():
    poly = named_polygon("Upsilon_2")
    spec = linear_strand_spec(poly, 2)
    blocks = block_dimensions(poly, "b", 2, EngineOptions(removal="off"))
    assert sum(cols for _, _, cols in blocks) == sum(
        middle_profile(spec).values())
    below = SupportTriple(spec.wedge_support, spec.right.target_support,
                          spec.right.target_support,
                          spec.right.wedge_degree - 1)
    for ab, rows, cols in blocks:
        for n, triple in ((cols, spec.right), (rows, below)):
            assert n == len(wedge_basis(triple.wedge_support,
                                        triple.source_support,
                                        triple.wedge_degree, ab))


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
    path = str(tmp_path / "hdr.jsonl")
    poly = named_polygon("Upsilon_2")
    opts = EngineOptions(checkpoint=path,
                         budget=ComputeBudget(max_workers=1))
    betti_table(poly, prime, opts)
    header = json.loads(open(path).readline())
    assert header == {"polygon": polygon_key(poly),
                      "prime": prime.p,
                      "options": options_key(prime, opts)}


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
    spec = twisted_strand_spec(poly, 6,
                               plan_strategy(poly, prime, tight).removal_c)
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


def test_invariant_checks_survive_python_O():
    b, c = REFERENCE_TABLES["2*Sigma"]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", _BUMPED_TABLE_CHECK.format(b=b, c=c)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimized: True",
        "raised: antidiagonal difference violated at 1"]


_BAD_SPEC_CHECK = """
import dataclasses
from polybetti import linalg
from polybetti.engine import InvariantViolation
from polybetti.koszul import linear_strand_spec
from polybetti.polygon import named_polygon

spec = linear_strand_spec(named_polygon("2*Sigma"), 1)
right = dataclasses.replace(spec.right,
                            wedge_degree=spec.right.wedge_degree + 1)
print("optimized:", not __debug__, InvariantViolation is
      linalg.InvariantViolation)
try:
    dataclasses.replace(spec, right=right)
except InvariantViolation as exc:
    print("raised:", exc)
"""


def test_complex_spec_check_survives_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", _BAD_SPEC_CHECK],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimized: True True",
        "raised: wedge degrees do not step down by one"]


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
    # every batch of Upsilon_3 costs less than POOL_MIN_COST
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    table = betti_table(named_polygon("Upsilon_3"), prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["Upsilon_3"]
    assert opened_pools == []
    assert multiprocessing.active_children() == []
    pids = [rec[0] for rec in built_blocks()]
    assert pids
    assert set(pids) == {os.getpid()}


def test_only_batches_under_the_threshold_build_in_the_parent(
        built_blocks, prime, monkeypatch):
    pooled, serial = set(), set()
    real = engine.rank_batch

    def recording(tasks, budget=None):
        keys = {(t.spec.kind, t.spec.ell, tuple(t.bidegree), t.which)
                for t in tasks}
        cost = sum(t.n_rows + t.n_cols for t in tasks)
        worth_a_pool = len(tasks) > 1 and cost >= linalg.POOL_MIN_COST
        (pooled if worth_a_pool else serial).update(keys)
        return real(tasks, budget)

    monkeypatch.setattr(engine, "rank_batch", recording)
    opts = EngineOptions(budget=ComputeBudget(max_workers=2))
    table = betti_table(named_polygon("5*Sigma"), prime, opts)
    assert (table.b, table.c) == REFERENCE_TABLES["5*Sigma"]
    assert pooled and serial
    in_parent = {(kind, ell, tuple(ab), which)
                 for pid, kind, ell, ab, which, *_ in built_blocks()
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
        return EntryOutcome(out.value, out.rigorous, moved, out.blocks)

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
                                    out.bigraded, out.blocks)
    assert engine.audit_duality(poly, prime, direct, serial_options.budget) \
        == [f"row-one entry 2: direct {out.value + 1} vs mirror {out.value}"]


def test_audits_rank_each_entry_once(prime, serial_options, monkeypatch):
    """On a polygon that removes no points, the symmetry audit takes its
    orbit-reduced entries from the direct ones instead of recomputing
    them."""
    poly = parse_polygon("0,0 2,0 2,1 0,2")
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


def test_polygon_key_is_class_invariant():
    poly = named_polygon("Upsilon_2")
    moved = mapped(poly, ((1, 1), (0, 1)), (-2, 5))
    assert polygon_key(poly) == polygon_key(moved)
    assert polygon_key(poly) != polygon_key(named_polygon("2*Sigma"))


def test_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(removal="sometimes")
