"""Command-line surface: frozen outputs, exit codes, resumable runs."""
from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest
from click.testing import CliRunner

from conftest import REFERENCE_TABLES
from polybetti import cli, engine, linalg
from polybetti.cli import main
from polybetti.engine import EngineOptions, options_key, polygon_key
from polybetti.linalg import PrimeModulus
from polybetti.polygon import parse_polygon

_real_rank_task = linalg._rank_task
_DYING = {"flag": None, "parent": None}


def _die_once(args):
    """Pool task stand-in: the first task started in a worker process
    kills that process; every other task runs normally."""
    if os.getpid() != _DYING["parent"]:
        try:
            os.close(os.open(_DYING["flag"], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return _real_rank_task(args)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_table_ascii_frozen(runner):
    r = invoke(runner, "table", "--model", "3*Sigma")
    assert r.exit_code == 0
    assert r.stdout == (
        "    0   1    2    3    4    5   6  7\n"
        " 0  1   0    0    0    0    0   0  0\n"
        " 1  0  27  105  189  189  105  27  0\n"
        " 2  0   0    0    0    0    0   0  1\n")


def test_table_star_marks_modular_entries(runner):
    r = invoke(runner, "table", "--model", "Upsilon_2")
    assert r.exit_code == 0
    assert r.stdout == ("    0  1   2   3  4\n"
                        " 0  1  0   0   0  0\n"
                        " 1  0  7   8  3*  0\n"
                        " 2  0  0  6*   8  3\n")


@pytest.mark.parametrize("name", ["Upsilon", "2*Sigma", "Upsilon_2",
                                  "2*Upsilon"])
def test_table_output_round_trips(runner, name):
    r = invoke(runner, "table", "--model", name, "--format", "json")
    data = json.loads(r.stdout)
    assert (data["b"], data["c"]) == REFERENCE_TABLES[name]


def test_table_json_frozen(runner):
    r = invoke(runner, "table", "--model", "Upsilon", "--format", "json")
    data = json.loads(r.stdout)
    assert data["n"] == 4
    assert data["prime"] == 40009
    assert data["b"] == [0] and data["c"] == [1]
    assert data["b_provenance"] == ["zero_by_interior"]
    assert data["c_provenance"] == ["crossfilled"]
    assert data["b_rigorous"] == [True] and data["c_rigorous"] == [True]
    assert data["polygon"] == "1432b55ea0fe813d"


def test_table_accepts_vertices_and_files(runner, tmp_path):
    direct = invoke(runner, "table", "--vertices", "0,0 2,0 0,2")
    named = invoke(runner, "table", "--model", "2*Sigma")
    assert direct.stdout == named.stdout
    path = tmp_path / "poly.json"
    path.write_text('{"vertices": [[0, 0], [2, 0], [0, 2]]}')
    from_file = invoke(runner, "table", "--file", str(path))
    assert from_file.stdout == named.stdout
    # integral coordinates in other JSON types parse as before
    path.write_text('{"vertices": [[0, 0], [2.0, 0], [0, "2"]]}')
    assert invoke(runner, "table", "--file", str(path)).stdout \
        == named.stdout


# malformed vertices, and the one line each must print
VERTEX_ERRORS = {
    ("predict", "--vertices", "0,0_1,0_0,1"):
        "error: vertex '0,0_1,0_0,1' is not an x,y pair of integers\n",
    ("predict", "--vertices", "a,b"):
        "error: vertex 'a,b' is not an x,y pair of integers\n",
    ("table", "--vertices", "0,0 2,0 0,2,1"):
        "error: vertex '0,2,1' is not an x,y pair of integers\n",
    # a coordinate is an optional sign and ASCII digits, not whatever
    # int() reads: no digit separators, no full-width digits
    ("table", "--vertices", "0,0 1_0,0 0,1"):
        "error: vertex '1_0,0' is not an x,y pair of integers\n",
    ("table", "--vertices", "0,0 \uff12,0 0,2"):
        "error: vertex '\uff12,0' is not an x,y pair of integers\n",
    ("table", "--vertices", '{"vertices": [[0, 0], ["1_0", 0], [0, 1]]}'):
        "error: coordinate '1_0' is not an integer\n",
    ("table", "--vertices", '{"vertices": [[0, 0], ["\uff12", 0], [0, 2]]}'):
        "error: coordinate '\uff12' is not an integer\n",
    ("table", "--vertices", '{"vertices": [[0, 0], [" 2", 0], [0, 2]]}'):
        "error: coordinate ' 2' is not an integer\n",
}


@pytest.mark.parametrize("args", [
    ("table",),
    ("table", "--model", "2*Sigma", "--vertices", "0,0 1,0 0,1"),
    ("table", "--model", "Koszul"),
    ("table", "--vertices", "0,0 1,0 2,0"),
    ("table", "--model", "2*Sigma", "--primes", "4,5"),
    ("dims", "--model", "Sigma", "--strand", "b", "--position", "0"),
    # refused before the first prime is computed: the log pins one prime
    ("table", "--model", "Upsilon_2", "--primes", "3,40009",
     "--checkpoint", os.devnull),
    ("table", "--model", "Upsilon", "--primes", ""),
    ("table", "--model", "Upsilon", "--primes", ","),
    ("oracle-check", "--model", "Upsilon", "--primes", ""),
    # a log that cannot be opened: nothing exists below os.devnull
    ("table", "--model", "Upsilon_2",
     "--checkpoint", os.path.join(os.devnull, "x.jsonl")),
    ("verify-kp1", os.path.dirname(os.path.abspath(__file__)),
     "--checkpoint", os.path.join(os.devnull, "y.jsonl")),
    # a leading dict is the environment of the run
    ({"BETTI_WORKERS": "abc"}, "oracle-check", "--model", "Upsilon"),
    ({"BETTI_WORKERS": "-1"}, "oracle-check", "--model", "Upsilon"),
    # malformed vertex JSON: neither a traceback nor a truncated coordinate
    ("table", "--vertices", '{"vertices": [0, 1, 2]}'),
    ("table", "--vertices", '{"vertices": [[0, 0], [2, 0], [0, null]]}'),
    ("table", "--vertices", '{"vertices": [[0, 0], [2.7, 0], [0, 2]]}'),
    ("table", "--vertices", '{"vertices": [[0, 0], [true, 0], [0, 2]]}'),
    ("table", "--vertices", '{"vertices": "0,0 2,0 0,2"}'),
    # --prime and --primes together: neither is silently dropped
    ("table", "--model", "Upsilon_2", "--prime", "4", "--primes", "2,5"),
    ("table", "--model", "Upsilon_2", "--prime", "3", "--primes", "2,3"),
    *VERTEX_ERRORS,
    # integers are an optional sign, then ASCII digits, as coordinates
    # are: no underscores and no full-width digits
    ("table", "--model", "Sigma", "--prime", "4_0009"),
    ("table", "--model", "Sigma", "--prime", "\uff140009"),
    ("table", "--model", "Sigma", "--primes", "4_0009,3"),
    ("table", "--model", "Sigma", "--workers", "1_0"),
    ("dims", "--model", "Sigma", "--strand", "b", "--position", "0_1"),
    ({"BETTI_WORKERS": "1_0"}, "oracle-check", "--model", "Upsilon"),
])
def test_invalid_input_exits_2(runner, args):
    env, cmd = (args[0], args[1:]) if isinstance(args[0], dict) else ({}, args)
    r = runner.invoke(main, list(cmd), env=env, catch_exceptions=False)
    assert r.exit_code == 2
    assert "error" in r.stderr.lower() or "Error" in r.stderr
    if cmd in VERTEX_ERRORS:
        assert r.stderr == VERTEX_ERRORS[cmd]


def test_table_multi_prime_agreement(runner):
    r = invoke(runner, "table", "--model", "Upsilon_2",
               "--primes", "2,3,40009")
    assert r.exit_code == 0
    assert "primes 2,3,40009 agree" in r.stderr
    r = invoke(runner, "table", "--model", "Upsilon_2",
               "--primes", "2,3,40009", "--format", "json")
    data = json.loads(r.stdout)
    assert data["primes_agree"] is True
    assert (data["b"], data["c"]) == REFERENCE_TABLES["Upsilon_2"]


def test_table_multi_prime_json(runner):
    r = invoke(runner, "table", "--model", "Upsilon", "--primes", "2,40009",
               "--format", "json")
    data = json.loads(r.stdout)
    assert data["primes"] == [2, 40009]
    assert data["primes_agree"] is True
    assert "prime_mismatches" not in data    # only present on disagreement


def test_table_reports_primes_that_disagree(runner, monkeypatch):
    real = cli.betti_table

    def at_two_b1_is_one_more(poly, modulus, *args, **kwargs):
        table = real(poly, modulus, *args, **kwargs)
        if modulus.p == 2:
            table.b[0] += 1
        return table

    monkeypatch.setattr(cli, "betti_table", at_two_b1_is_one_more)
    r = invoke(runner, "table", "--model", "Upsilon_2", "--primes",
               "2,40009", "--format", "json")
    data = json.loads(r.stdout)
    assert data["primes_agree"] is False
    assert data["prime_mismatches"] == [
        {"strand": "b", "position": 1, "values": {"2": 8, "40009": 7}}]
    r = invoke(runner, "table", "--model", "Upsilon_2", "--primes",
               "2,40009")
    assert r.exit_code == 0
    assert r.stderr == ("primes 2,40009 disagree on 1 entries:\n"
                        "  b[1] = {2: 8, 40009: 7}\n")


def test_table_audit_flag(runner):
    r = invoke(runner, "table", "--model", "Upsilon", "--audit")
    assert r.exit_code == 0
    assert "audit: all checks passed" in r.stderr


def test_table_audit_reuses_the_table(runner, monkeypatch):
    """--audit builds the 7-point table twice: once for the output and
    once with support removal switched the other way."""
    calls = []

    def counting(real):
        def wrapped(poly, *args, **kwargs):
            if poly.n_points == 7:
                calls.append(poly)
            return real(poly, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "betti_table", counting(cli.betti_table))
    monkeypatch.setattr(engine, "betti_table", counting(engine.betti_table))
    r = invoke(runner, "table", "--model", "Upsilon_2", "--audit",
               "--workers", "1")
    assert r.exit_code == 0
    assert r.stderr == "audit: all checks passed\n"
    assert len(calls) == 2


def test_table_audit_reports_a_bumped_entry(runner, monkeypatch):
    real = cli.betti_table

    def bumped(poly, *args, **kwargs):
        table = real(poly, *args, **kwargs)
        table.b[0] += 1
        return table

    monkeypatch.setattr(cli, "betti_table", bumped)
    r = invoke(runner, "table", "--model", "Upsilon_2", "--audit",
               "--workers", "1")
    assert r.exit_code == 1
    # Upsilon_2 is a triangle: its table removes support under "auto"
    assert ("audit: row one differs: [8, 8, 3, 0] vs [7, 8, 3, 0]\n"
            in r.stderr)


def test_table_bigraded_json(runner):
    r = invoke(runner, "table", "--model", "Upsilon_2", "--bigraded",
               "--format", "json")
    data = json.loads(r.stdout)
    assert data["bigraded"]
    # the strategy solves this table through the row-two entry at 3;
    # only directly computed blocks carry a bidegree breakdown
    total = sum(e["value"] for e in data["bigraded"]
                if e["strand"] == "c" and e["position"] == 3)
    assert total == 6


def test_table_checkpoint_resume_identical(runner, tmp_path):
    path = str(tmp_path / "ck.jsonl")
    first = invoke(runner, "table", "--model", "Upsilon_2",
                   "--checkpoint", path)
    assert first.exit_code == 0
    size = len(open(path).read().splitlines())
    second = invoke(runner, "table", "--model", "Upsilon_2",
                    "--checkpoint", path)
    assert second.stdout == first.stdout
    assert len(open(path).read().splitlines()) == size
    clash = invoke(runner, "table", "--model", "Upsilon_2",
                   "--checkpoint", path, "--prime", "3")
    assert clash.exit_code == 2


def test_complete_checkpoint_resumes_without_building(runner, tmp_path,
                                                      built_blocks):
    """One record per finished block, in the on-disk format resumes
    read: a complete log answers every block of the table."""
    path = tmp_path / "ck.jsonl"
    first = invoke(runner, "table", "--model", "Upsilon_3", "--workers", "2",
                   "--checkpoint", str(path))
    assert first.exit_code == 0
    built = len(built_blocks())
    records = [json.loads(line)
               for line in path.read_text().splitlines()[1:]]
    assert records and len(records) == built
    for rec in records:
        assert set(rec) == {"strand", "ell", "bidegree", "orbit_size",
                            "cols", "rank"}
    before = path.read_text()
    resumed = invoke(runner, "table", "--model", "Upsilon_3",
                     "--workers", "2", "--checkpoint", str(path))
    assert resumed.exit_code == 0
    assert resumed.stdout == first.stdout
    assert len(built_blocks()) == built
    assert path.read_text() == before


@pytest.mark.parametrize("polygon", [("--model", "Upsilon_3"),
                                     ("--vertices", "1,0 2,0 3,4 0,3")])
def test_table_without_symmetry_prints_the_same_table(runner, tmp_path,
                                                      polygon):
    """Folding bidegrees into symmetry orbits changes no value, tag or
    bidegree breakdown; the orbit-folded blocks are other blocks, so a
    default run refuses a log written without symmetry."""
    args = ["table", *polygon, "--format", "json", "--bigraded",
            "--workers", "1"]
    path = str(tmp_path / "ck.jsonl")
    default = invoke(runner, *args)
    plain = invoke(runner, *args, "--no-symmetry", "--checkpoint", path)
    assert default.exit_code == plain.exit_code == 0
    assert plain.stdout == default.stdout
    before = open(path).read()
    r = invoke(runner, *args, "--checkpoint", path)
    assert r.exit_code == 2
    assert "belongs to a different run" in r.stderr
    assert open(path).read() == before


def test_table_refuses_a_checkpoint_of_unreduced_blocks(runner, tmp_path):
    """A log from when auto ranked quadrilaterals on full supports: the
    header pins no removal plans, and the log is refused before a record
    is read rather than resumed with ranks of other blocks."""
    quad = "1,0 2,0 3,4 0,3"
    path = tmp_path / "old.jsonl"
    # those runs logged the blocks that removal off ranks
    off = invoke(runner, "table", "--vertices", quad, "--removal", "off",
                 "--workers", "1", "--checkpoint", str(path))
    assert off.exit_code == 0
    poly = parse_polygon(quad)
    old_header = {"polygon": polygon_key(poly), "prime": 40009,
                  "options": options_key(PrimeModulus(40009),
                                         EngineOptions())}
    records = path.read_text().splitlines()[1:]
    assert records
    path.write_text("\n".join([json.dumps(old_header, sort_keys=True)]
                              + records) + "\n")
    before = path.read_text()
    r = invoke(runner, "table", "--vertices", quad, "--workers", "1",
               "--checkpoint", str(path))
    assert r.exit_code == 2
    assert "belongs to a different run" in r.stderr
    assert r.stdout == ""
    assert path.read_text() == before


def test_table_worker_death_aborts_with_checkpoint(runner, tmp_path,
                                                   monkeypatch,
                                                   pool_every_batch):
    path = str(tmp_path / "ck.jsonl")
    monkeypatch.setitem(_DYING, "flag", str(tmp_path / "died"))
    monkeypatch.setitem(_DYING, "parent", os.getpid())
    monkeypatch.setattr(linalg, "_rank_task", _die_once)
    r = invoke(runner, "table", "--model", "Upsilon_3", "--workers", "2",
               "--checkpoint", path)
    assert os.path.exists(tmp_path / "died")
    assert r.exit_code == 3
    assert "worker process died" in r.stderr
    assert "partial progress kept" in r.stderr
    monkeypatch.setattr(linalg, "_rank_task", _real_rank_task)
    resumed = invoke(runner, "table", "--model", "Upsilon_3",
                     "--workers", "1", "--checkpoint", path,
                     "--format", "json")
    assert resumed.exit_code == 0
    data = json.loads(resumed.stdout)
    assert (data["b"], data["c"]) == REFERENCE_TABLES["Upsilon_3"]


def test_table_memory_cap_aborts_with_checkpoint(runner, tmp_path):
    path = str(tmp_path / "ck.jsonl")
    r = invoke(runner, "table", "--model", "Upsilon_3",
               "--checkpoint", path, "--memory-cap", "5000")
    assert r.exit_code == 3
    assert "partial progress kept" in r.stderr
    resumed = invoke(runner, "table", "--model", "Upsilon_3",
                     "--checkpoint", path, "--format", "json")
    assert resumed.exit_code == 0
    data = json.loads(resumed.stdout)
    assert (data["b"], data["c"]) == REFERENCE_TABLES["Upsilon_3"]


def test_over_cap_block_is_never_built(runner, tmp_path, built_blocks):
    r = invoke(runner, "table", "--model", "Upsilon_3",
               "--checkpoint", str(tmp_path / "ck.jsonl"),
               "--memory-cap", "5000")
    assert r.exit_code == 3
    failed = re.search(r"strand c position (\d+) bidegree \((-?\d+), "
                       r"(-?\d+)\): a dense \d+x\d+ block needs \d+ bytes, "
                       r"cap is 5000", r.stderr)
    assert failed
    ell, a, b = map(int, failed.groups())
    built = built_blocks()
    assert built
    assert ["c", ell, [a, b], "right"] not in [rec[1:5] for rec in built]
    assert all(8 * rows * cols <= 5000 for *_, rows, cols in built)


def test_audit_over_memory_cap_exits_3(runner):
    # at 3300 every strand block fits and the audit's mirror complex fails
    for cap, strand in (("3000", "b"), ("3300", "mirror")):
        r = invoke(runner, "table", "--model", "Upsilon_2", "--audit",
                   "--memory-cap", cap, "--workers", "1", "--format", "json")
        assert r.exit_code == 3
        data = json.loads(r.stdout)     # the table still printed
        assert (data["b"], data["c"]) == REFERENCE_TABLES["Upsilon_2"]
        assert re.search(rf"error: strand {strand} position \d+ bidegree "
                         rf".*cap is {cap}", r.stderr)


@pytest.mark.parametrize("flag,value", [("--memory-cap", "-1"),
                                        ("--memory-cap", "0"),
                                        ("--workers", "0")])
def test_nonpositive_budget_is_bad_input(runner, flag, value):
    r = invoke(runner, "table", "--model", "Upsilon_2", flag, value)
    assert r.exit_code == 2
    assert "at least 1" in r.stderr


def test_predict_minimal_degree(runner):
    r = invoke(runner, "predict", "--model", "2*Sigma")
    assert "no interior points: the resolution is forced" in r.stdout
    assert " 1  0  6  8  3\n" in r.stdout


def test_predict_with_conjectures(runner):
    r = invoke(runner, "predict", "--model", "5*Sigma")
    out = r.stdout
    assert "b[1] = 165    theorem (first_linear_entry)" in out
    assert "c[1] = 6    theorem (interior_count)" in out
    assert "c[7..18] = 0    theorem (boundary_count_vanishing)" in out
    assert "c[6] >= 2002    theorem (interior_translate_lower_bound)" in out
    assert "b[15] = 375    conjectural (squared_triangle_last_linear)" in out
    assert ("c[6] = 2002    conjectural (squared_triangle_first_quadratic)"
            in out)
    assert ("first zero of row one at position 16 (counting 6 from the "
            "right)    conjectural (row_one_first_zero)") in out


def test_predict_reflexive_basic_triangle(runner):
    # Upsilon has an interior point but no linear strand: no first zero
    model = invoke(runner, "predict", "--model", "Upsilon")
    sheared = invoke(runner, "predict", "--vertices", "-2,-1 1,0 1,1")
    assert model.exit_code == sheared.exit_code == 0
    assert model.stdout == sheared.stdout
    assert model.stdout.splitlines() == [
        "n = 4, interior points = 1, lattice width = 2",
        "b[1] = 0    theorem (first_linear_entry, last_linear_entry)",
        "c[1] = 1    theorem (interior_count, last_quadratic_entry)",
        "c[1] >= 1    theorem (interior_translate_lower_bound)"]


def test_predict_prints_each_position_once(runner):
    for model in ("Upsilon", "Upsilon_2", "2*Upsilon", "3*Sigma", "5*Sigma"):
        out = invoke(runner, "predict", "--model", model).stdout
        claims = re.findall(r"^([bc]\[\d+\]) = .*theorem", out, re.M)
        assert claims
        assert len(claims) == len(set(claims)), (model, out)


def test_predict_refuses_closed_forms_that_disagree(runner, monkeypatch):
    real = cli.six_easy_entries

    def contradicted(poly):
        out = real(poly)
        first = out[0]
        return out + [dataclasses.replace(first, value=first.value + 1,
                                          source="contradiction")]

    monkeypatch.setattr(cli, "six_easy_entries", contradicted)
    with pytest.raises(linalg.InvariantViolation,
                       match=r"closed forms disagree at b\[1\]: "
                             r"first_linear_entry = 7, contradiction = 8"):
        invoke(runner, "predict", "--model", "Upsilon_2")


def test_predict_square(runner):
    r = invoke(runner, "predict", "--vertices", "0,0 1,0 1,1 0,1")
    assert "n = 4, interior points = 0, lattice width = 1" in r.stdout
    assert "no interior points" in r.stdout


def test_dims_lists_the_blocks_a_table_ranks(runner, built_blocks):
    quad = "1,0 2,0 3,4 0,3"
    r = invoke(runner, "table", "--vertices", quad, "--workers", "1")
    assert r.exit_code == 0
    built = [rec for rec in built_blocks() if rec[4] == "right"]
    assert {rec[1] for rec in built} == {"b", "c"}
    listed = {}
    for strand, ell in {(rec[1], rec[2]) for rec in built}:
        d = invoke(runner, "dims", "--vertices", quad, "--strand", strand,
                   "--position", str(ell))
        assert d.exit_code == 0
        for a, b, rows, cols in re.findall(
                r"^\((-?\d+),(-?\d+)\)  (\d+) x (\d+)$", d.stdout,
                re.MULTILINE):
            listed[(strand, ell, int(a), int(b))] = (int(rows), int(cols))
    for _, strand, ell, (a, b), _, rows, cols in built:
        assert listed[(strand, ell, a, b)] == (rows, cols)


def test_dims_small_and_frozen(runner):
    r = invoke(runner, "dims", "--model", "Sigma", "--strand", "b",
               "--position", "1")
    assert r.exit_code == 0
    assert "bidegrees: 6" in r.stdout
    assert "totals: 0 x 0" in r.stdout
    assert "peak block: empty" in r.stdout

    r = invoke(runner, "dims", "--model", "4*Sigma", "--strand", "c",
               "--position", "3")
    assert "bidegrees: 55" in r.stdout
    assert "totals: 144 x 198" in r.stdout
    assert "peak block: 12 x 15 at (4,4)" in r.stdout


def test_oracle_check_pass(runner):
    r = invoke(runner, "oracle-check", "--model", "2*Sigma")
    assert r.exit_code == 0
    assert r.stdout == ("p=2: PASS  b=[6, 8, 3] c=[0, 0, 0]\n"
                        "p=3: PASS  b=[6, 8, 3] c=[0, 0, 0]\n"
                        "p=40009: PASS  b=[6, 8, 3] c=[0, 0, 0]\n"
                        "PASS\n")


def test_oracle_check_too_large_exits_4(runner):
    r = invoke(runner, "oracle-check", "--model", "4*Sigma")
    assert r.exit_code == 4
    assert "exceeds the cap" in r.stderr


def test_oracle_check_disagreement_exits_1(runner, monkeypatch):
    import polybetti.oracle as oracle_mod

    real = oracle_mod.oracle_betti

    def lying_oracle(poly, prime):
        table = real(poly, prime)
        bad = list(table.b)
        bad[0] += 1
        return type(table)(
            n=table.n, b=bad, c=table.c, prime=table.prime,
            b_provenance=table.b_provenance, c_provenance=table.c_provenance,
            b_rigorous=table.b_rigorous, c_rigorous=table.c_rigorous)

    monkeypatch.setattr(oracle_mod, "oracle_betti", lying_oracle)
    r = invoke(runner, "oracle-check", "--model", "2*Sigma",
               "--primes", "40009")
    assert r.exit_code == 1
    assert "FAIL" in r.stdout


def write_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(
        '{"vertices": [[0, 0], [3, 0], [0, 3]]}')
    (corpus / "b.json").write_text(
        '{"vertices": [[-2, -2], [2, 0], [0, 2]]}')
    (corpus / "degenerate.txt").write_text("0,0 1,0 2,0")
    (corpus / "garbage.txt").write_text("not a polygon at all")
    return corpus


def test_verify_kp1_campaign(runner, tmp_path):
    corpus = write_corpus(tmp_path)
    r = invoke(runner, "verify-kp1", str(corpus))
    assert r.exit_code == 0
    assert "polygons: 4" in r.stdout
    assert "error=2" in r.stdout and "holds=2" in r.stdout
    assert "verdict=holds" in r.stdout
    assert "degenerate.txt: error:" in r.stdout
    assert "garbage.txt: error:" in r.stdout


def test_verify_kp1_logs_a_malformed_file_and_continues(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, verts in (("a", "[0, 0], [3, 0], [0, 3]"),
                        ("b", "[0, 0], [2.7, 0], [0, 2]"),
                        ("c", "[-2, -2], [2, 0], [0, 2]")):
        (corpus / f"{name}.json").write_text(f'{{"vertices": [{verts}]}}')
    r = invoke(runner, "verify-kp1", str(corpus))
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "a.json", "b.json", "c.json"]
    assert lines[1] == ("b.json: error: ValueError: coordinate 2.7 is not "
                        "an integer")
    assert lines[3] == "polygons: 3  error=1  holds=2"


def test_verify_kp1_logs_the_basic_triangle_and_skips_directories(
        runner, tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "sub").mkdir(parents=True)
    (corpus / "a.txt").write_text("0,0 1,0 0,1")
    (corpus / "b.txt").write_text("0,0 2,0 0,2")
    (corpus / "sub" / "c.txt").write_text("0,0 3,0 0,3")
    r = invoke(runner, "verify-kp1", str(corpus), "--workers", "1")
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert lines[0] == ("a.txt: error: PathologicalPolygon: the basic "
                        "triangle has no linear strand")
    assert lines[1].startswith("b.txt: ")
    assert lines[2:] == ["polygons: 2  error=1  holds=1"]


def test_verify_kp1_resume_is_byte_identical(runner, tmp_path):
    corpus = write_corpus(tmp_path)
    log = str(tmp_path / "log.jsonl")
    first = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log)
    assert first.exit_code == 0
    header = json.loads(open(log).readline())
    assert header == {"campaign": "kp1", "prime": 40009,
                      "removal": "auto", "symmetry": True}
    resumed = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log)
    assert resumed.stdout == first.stdout
    fresh = invoke(runner, "verify-kp1", str(corpus))
    assert fresh.stdout == first.stdout


def test_verify_kp1_resumes_after_torn_final_line(runner, tmp_path):
    corpus = write_corpus(tmp_path)
    for name in ("degenerate.txt", "garbage.txt"):
        (corpus / name).unlink()
    log = tmp_path / "log.jsonl"
    first = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", str(log))
    assert first.exit_code == 0
    data = log.read_bytes()
    log.write_bytes(data[:-20])           # an interrupted final write
    resumed = invoke(runner, "verify-kp1", str(corpus),
                     "--checkpoint", str(log))
    assert resumed.exit_code == 0
    assert resumed.stdout == first.stdout
    # the torn record was cut off and written again in full
    assert log.read_bytes() == data
    # a bad line before the last one is not a torn write
    lines = data.splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:1] + [b"{\n"] + lines[1:]))
    broken = invoke(runner, "verify-kp1", str(corpus),
                    "--checkpoint", str(log))
    assert broken.exit_code == 2
    assert "line 2" in broken.stderr


def test_verify_kp1_worker_death_fails_one_polygon(runner, tmp_path,
                                                  monkeypatch,
                                                  pool_every_batch):
    # both polygons rank multi-block batches on the corpus-wide pool
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(
        '{"vertices": [[-2, -2], [2, 0], [0, 2]]}')
    (corpus / "b.json").write_text('{"vertices": [[0, 0], [4, 0], [0, 4]]}')
    log = tmp_path / "log.jsonl"
    monkeypatch.setitem(_DYING, "flag", str(tmp_path / "died"))
    monkeypatch.setitem(_DYING, "parent", os.getpid())
    monkeypatch.setattr(linalg, "_rank_task", _die_once)
    r = invoke(runner, "verify-kp1", str(corpus), "--workers", "2",
               "--checkpoint", str(log))
    assert os.path.exists(tmp_path / "died")
    assert r.exit_code == 0
    assert "a.json: error:" in r.stdout
    assert "worker process died" in r.stdout
    assert "b.json: error" not in r.stdout
    assert "error=1" in r.stdout and "holds=1" in r.stdout
    # a lost worker is no fact of the polygon: only b's report is logged
    records = [json.loads(line) for line in log.read_text().splitlines()[1:]]
    assert ["error" in rec for rec in records] == [False]
    assert records[0]["report"]["verdict"] == "holds"


def test_verify_kp1_resume_retries_resource_failures(runner, tmp_path):
    """Polygons refused by the memory cap are printed and counted but
    not logged, so an uncapped resume computes them and prints what a
    fresh uncapped run prints; unreadable files stay logged."""
    corpus = write_corpus(tmp_path)
    log = str(tmp_path / "log.jsonl")
    capped = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log,
                    "--memory-cap", "8")
    assert capped.exit_code == 0
    assert "b.json: error: BlockFailed" in capped.stdout
    assert "error=3" in capped.stdout
    # the header, the two unreadable files and a's report; not b
    assert len(open(log).read().splitlines()) == 4
    resumed = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log)
    fresh = invoke(runner, "verify-kp1", str(corpus))
    assert resumed.exit_code == fresh.exit_code == 0
    assert (resumed.stdout, resumed.stderr) == (fresh.stdout, fresh.stderr)
    assert "error=2" in resumed.stdout and "holds=2" in resumed.stdout


def test_verify_kp1_rejects_foreign_log(runner, tmp_path):
    corpus = write_corpus(tmp_path)
    log = str(tmp_path / "log.jsonl")
    invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log)
    clash = invoke(runner, "verify-kp1", str(corpus), "--checkpoint", log,
                   "--prime", "3")
    assert clash.exit_code == 2
    assert "different run" in clash.stderr


def test_main_help_lists_commands(runner):
    r = invoke(runner, "--help")
    for cmd in ("table", "predict", "verify-kp1", "dims", "oracle-check"):
        assert cmd in r.stdout
