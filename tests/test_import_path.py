"""numpy stays off the import path: small tables run without it, and a
pool's workers inherit it from the process that forks them."""
from __future__ import annotations

import json
import os
import subprocess
import sys

from click.testing import CliRunner

from polybetti.cli import main
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


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None     # any import of numpy now fails
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
for args in (["predict", "--model", "5*Sigma"],
             ["dims", "--model", "4*Sigma", "--strand", "c",
              "--position", "3"]):
    res = runner.invoke(main, args)
    out[" ".join(args)] = [res.exit_code, res.output]
print(json.dumps(out))
"""


def test_small_tables_run_without_numpy(prime):
    got = json.loads(_run(_WITHOUT_NUMPY.replace("NAMES",
                                                 repr(SMALL_POLYGONS))))
    for name in SMALL_POLYGONS:
        poly = parse_polygon(name) if "," in name else named_polygon(name)
        opts = EngineOptions(keep_bigraded=True,
                             budget=ComputeBudget(max_workers=1))
        want = to_json_dict(betti_table(poly, prime, opts))
        assert got[f"{name}/1"] == want
        assert got[f"{name}/2"] == want
    # 3*Sigma is closed forms throughout; the other two rank blocks
    assert got["1,0 2,0 3,4 0,3/2"]["bigraded"]
    for args in (["predict", "--model", "5*Sigma"],
                 ["dims", "--model", "4*Sigma", "--strand", "c",
                  "--position", "3"]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0
        assert got[" ".join(args)] == [0, res.output]


_POOL_INHERITS_NUMPY = """
import json, sys
from polybetti import linalg
from polybetti.engine import EngineOptions, betti_table
from polybetti.linalg import ComputeBudget, PrimeModulus
from polybetti.polygon import named_polygon
from polybetti.table import to_json_dict

assert "numpy" not in sys.modules
loaded = []


class Recording(linalg.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("numpy" in sys.modules)
        super().__init__(*args, **kwargs)


linalg.ProcessPoolExecutor = Recording
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
