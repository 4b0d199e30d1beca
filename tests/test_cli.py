"""Command-line surface: frozen outputs, exit codes, resumable runs."""
from __future__ import annotations

import json
import os
import re

import pytest
from click.testing import CliRunner

from conftest import REFERENCE_TABLES
from polybetti import linalg
from polybetti.cli import main
from polybetti.table import parse_ascii

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
    r = invoke(runner, "table", "--model", name)
    n, b, c, _, _ = parse_ascii(r.stdout)
    want_b, want_c = REFERENCE_TABLES[name]
    assert (b, c) == (want_b, want_c)


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


@pytest.mark.parametrize("args", [
    ("table",),
    ("table", "--model", "2*Sigma", "--vertices", "0,0 1,0 0,1"),
    ("table", "--model", "Koszul"),
    ("table", "--vertices", "0,0 1,0 2,0"),
    ("table", "--model", "2*Sigma", "--primes", "4,5"),
    ("dims", "--model", "Sigma", "--strand", "b", "--position", "0"),
])
def test_invalid_input_exits_2(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 2
    assert "error" in r.stderr.lower() or "Error" in r.stderr


def test_table_multi_prime_agreement(runner):
    r = invoke(runner, "table", "--model", "Upsilon_2",
               "--primes", "2,3,40009")
    assert r.exit_code == 0
    assert "primes 2,3,40009 agree" in r.stderr
    n, b, c, _, _ = parse_ascii(r.stdout)
    assert (b, c) == REFERENCE_TABLES["Upsilon_2"]


def test_table_multi_prime_json(runner):
    r = invoke(runner, "table", "--model", "Upsilon", "--primes", "2,40009",
               "--format", "json")
    data = json.loads(r.stdout)
    assert data["primes"] == [2, 40009]
    assert data["primes_agree"] is True
    assert "prime_mismatches" not in data    # only present on disagreement


def test_table_audit_flag(runner):
    r = invoke(runner, "table", "--model", "Upsilon", "--audit")
    assert r.exit_code == 0
    assert "audit: all checks passed" in r.stderr


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


def test_table_worker_death_aborts_with_checkpoint(runner, tmp_path,
                                                   monkeypatch):
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
                     "--workers", "1", "--checkpoint", path)
    assert resumed.exit_code == 0
    n, b, c, _, _ = parse_ascii(resumed.stdout)
    assert (b, c) == REFERENCE_TABLES["Upsilon_3"]


def test_table_memory_cap_aborts_with_checkpoint(runner, tmp_path):
    path = str(tmp_path / "ck.jsonl")
    r = invoke(runner, "table", "--model", "Upsilon_3",
               "--checkpoint", path, "--memory-cap", "5000")
    assert r.exit_code == 3
    assert "partial progress kept" in r.stderr
    resumed = invoke(runner, "table", "--model", "Upsilon_3",
                     "--checkpoint", path)
    assert resumed.exit_code == 0
    n, b, c, _, _ = parse_ascii(resumed.stdout)
    assert (b, c) == REFERENCE_TABLES["Upsilon_3"]


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
    assert ["dual_c", ell, [a, b], "right"] not in [rec[1:5] for rec in built]
    assert all(8 * rows * cols <= 5000 for *_, rows, cols in built)


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


def test_predict_square(runner):
    r = invoke(runner, "predict", "--vertices", "0,0 1,0 1,1 0,1")
    assert "n = 4, interior points = 0, lattice width = 1" in r.stdout
    assert "no interior points" in r.stdout


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
                                                  monkeypatch):
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
    records = [json.loads(line) for line in log.read_text().splitlines()[1:]]
    assert ["error" in rec for rec in records] == [True, False]
    assert records[1]["report"]["verdict"] == "holds"


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
