"""numpy and the pool machinery stay off the import path: small runs
print the same without them, and a pool loads both just before it forks,
so that its workers inherit numpy from the process that forks them."""
from __future__ import annotations

import json
import os
import subprocess
import sys

from click.testing import CliRunner

from polybetti.cli import main
from polybetti.corpus import kp1_corpus
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import ComputeBudget
from polybetti.polygon import named_polygon, parse_polygon
from polybetti.table import to_json_dict

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
SMALL_POLYGONS = ["Upsilon_2", "3*Sigma", "1,0 2,0 3,4 0,3"]


def _run(script: str) -> str:
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC},
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


_WITHOUT = """
import json, sys
for name in BLOCKED:
    sys.modules[name] = None    # any import of it now fails
from click.testing import CliRunner
from polybetti.cli import main
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import named_polygon, parse_polygon
from polybetti.table import to_json_dict

out = {}
for name in NAMES:
    poly = parse_polygon(name) if "," in name else named_polygon(name)
    for workers in (1, 2):
        opts = EngineOptions(keep_bigraded=True,
                             budget=ComputeBudget(max_workers=workers))
        table = betti_table(poly, PrimeModulus(40009), opts)
        out[f"{name}/{workers}"] = to_json_dict(table)
runner = CliRunner()
for args in COMMANDS:
    res = runner.invoke(main, args)
    out[" ".join(args)] = [res.exit_code, res.output]
print(json.dumps(out))
"""
SMALL_COMMANDS = [["predict", "--model", "5*Sigma"],
                  ["dims", "--model", "4*Sigma", "--strand", "c",
                   "--position", "3"]]


def _check_small_runs(prime, blocked: list[str],
                      commands: list[list[str]]) -> None:
    """SMALL_POLYGONS' tables at 1 and 2 workers and the commands, run
    where every import of a blocked module fails, print what they print
    here."""
    got = json.loads(_run(_WITHOUT.replace("BLOCKED", repr(blocked))
                          .replace("NAMES", repr(SMALL_POLYGONS))
                          .replace("COMMANDS", repr(commands))))
    for name in SMALL_POLYGONS:
        poly = parse_polygon(name) if "," in name else named_polygon(name)
        opts = EngineOptions(keep_bigraded=True,
                             budget=ComputeBudget(max_workers=1))
        want = to_json_dict(betti_table(poly, prime, opts))
        assert got[f"{name}/1"] == want
        assert got[f"{name}/2"] == want
    # 3*Sigma is closed forms throughout; the other two rank blocks
    assert got["1,0 2,0 3,4 0,3/2"]["bigraded"]
    for args in commands:
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0
        assert got[" ".join(args)] == [0, res.output]


def test_small_tables_run_without_numpy(prime):
    _check_small_runs(prime, ["numpy"], SMALL_COMMANDS)


def test_small_runs_never_load_the_pool_machinery(prime, tmp_path):
    # no batch of these reaches POOL_MIN_CELLS, at 2 workers either: the
    # kp1 corpus's largest holds 28,213 cells
    for i, poly in enumerate(kp1_corpus(count=8)):
        (tmp_path / f"poly{i:04d}.json").write_text(json.dumps(
            {"vertices": [list(v) for v in poly.vertices]}))
    _check_small_runs(prime, ["concurrent.futures"], SMALL_COMMANDS + [
        ["verify-kp1", str(tmp_path), "--workers", "2"]])


_POOL_INHERITS_NUMPY = """
import concurrent.futures, json, sys
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import named_polygon
from polybetti.table import to_json_dict

assert "numpy" not in sys.modules
loaded = []


class Recording(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("numpy" in sys.modules)
        super().__init__(*args, **kwargs)


concurrent.futures.ProcessPoolExecutor = Recording
tables = [to_json_dict(betti_table(
    named_polygon("5*Sigma"), PrimeModulus(40009),
    EngineOptions(budget=ComputeBudget(max_workers=w)))) for w in (2, 1)]
print(json.dumps({"loaded": loaded, "same": tables[0] == tables[1]}))
"""


def test_pool_workers_inherit_numpy():
    # 5*Sigma's largest batches pool at two workers; numpy must be in the
    # parent before the pool forks, so that no worker imports it itself
    got = json.loads(_run(_POOL_INHERITS_NUMPY))
    assert got["loaded"] == [True]
    assert got["same"]


_LOADED_AT_FIRST_FORK = """
import json, sys
events = []


def hook(event, args):
    if event == "import" and args[0] in ("numpy", "concurrent.futures"):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        events.append([args[0], "_dispatch" in callers])
    elif event == "os.fork" and "fork" not in (e[0] for e in events):
        events.append(["fork", "numpy" in sys.modules,
                       "concurrent.futures" in sys.modules])


sys.addaudithook(hook)
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import named_polygon
from polybetti.table import to_json_dict

tables = [to_json_dict(betti_table(
    named_polygon("5*Sigma"), PrimeModulus(40009),
    EngineOptions(budget=ComputeBudget(max_workers=w)))) for w in (2, 1)]
print(json.dumps({"events": events, "same": tables[0] == tables[1]}))
"""


def test_pool_machinery_loads_at_the_first_fork():
    # a 2-worker 5*Sigma table ranks smaller batches in-process first:
    # concurrent.futures and numpy are first imported by the pooled
    # batch that forks, and both are loaded when it does
    got = json.loads(_run(_LOADED_AT_FIRST_FORK))
    assert sorted(got["events"]) == [["concurrent.futures", True],
                                     ["fork", True, True],
                                     ["numpy", True]]
    assert got["events"][-1][0] == "fork"
    assert got["same"]
