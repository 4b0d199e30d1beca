"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench

Every workload runs once timed and once traced; each run must pass its
output checks and print every metric of BENCHMARK.json with its unit.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
from workloads import WORKLOADS, unimodular_image

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    with open(os.path.join(HERE, "out", f"{workload}-seed3-trace{trace}"
                           "-smoke.json")) as fh:
        record = json.load(fh)
    # end-to-end numbers always come from passes without the tracer
    assert record["timed_pass_wrappers"] == []
    if trace:
        assert record["traced_pass_wrappers"]
        assert record["per_layer"]["trace.coverage"] >= 0.95


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), "sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_embeddings_are_unimodular():
    import random
    rng = random.Random(5)
    for _ in range(50):
        (x0, y0), (x1, y1), (x2, y2) = unimodular_image(
            [(0, 0), (1, 0), (0, 1)], rng)
        assert abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) == 1


def test_invariant_checks_catch_a_wrong_entry():
    # Upsilon_3, whose frozen table the smoke big-table run checks
    verts = [(-1, -1), (3, 0), (0, 3)]
    ref = REFERENCE["big-table-smoke"][0]
    args = (ref["b"], ref["c"], ref["b_rigorous"], ref["c_rigorous"])
    assert checks.table_invariants(verts, *args) == []
    for row in (0, 1):
        for i in range(len(args[row])):
            bad = [list(a) for a in args]
            bad[row][i] += 1
            assert checks.table_invariants(verts, *bad), (row, i)
