"""Per-polygon caches live as long as the outermost public call."""
from __future__ import annotations

import importlib
import json
import os
import pkgutil

import pytest
from click.testing import CliRunner

import polybetti
from polybetti import cli, engine, linalg, scope
from polybetti.cli import main
from polybetti.corpus import kp1_corpus
from polybetti.engine import (BlockFailed, EngineOptions, betti_table,
                              compute_c, run_audits, verify_kp1)
from polybetti.koszul import strand_spec
from polybetti.linalg import (ComputeBudget, PrimeModulus, ResourceExceeded,
                              rank_batch)
from polybetti.polygon import canonical_form, named_polygon, parse_polygon
from polybetti.scope import call_scope

QUAD = "1,0 2,0 3,4 0,3"
SERIAL = EngineOptions(budget=ComputeBudget(max_workers=1))
POOLED = EngineOptions(budget=ComputeBudget(max_workers=2))


def held() -> dict[str, int]:
    """Entries each scoped cache holds, for those holding any."""
    return {f.__qualname__: f.cache_info().currsize for f in scope._CACHES
            if f.cache_info().currsize}


def empty_caches() -> None:
    with call_scope():
        pass


def test_every_functools_cache_in_the_package_is_scoped():
    """A cache made with a bare lru_cache would outlive every call."""
    found = set()
    for info in pkgutil.iter_modules(polybetti.__path__):
        module = importlib.import_module(f"polybetti.{info.name}")
        found |= {id(obj) for obj in vars(module).values()
                  if hasattr(obj, "cache_clear")}
    assert found == {id(f) for f in scope._CACHES}
    assert len(scope._CACHES) == 13


def _table(workers):
    def call():
        betti_table(parse_polygon(QUAD), 40009, EngineOptions(
            budget=ComputeBudget(max_workers=workers)))
    return call


def _kp1():
    verify_kp1(parse_polygon(QUAD), 40009, SERIAL)


def _audits():
    assert run_audits(named_polygon("3*Sigma"), 40009, SERIAL) == []


def _plan():
    engine.plan_strategy(parse_polygon(QUAD), SERIAL)


def _strand():
    engine.strand_value(parse_polygon(QUAD), "b", 2, PrimeModulus(40009),
                        budget=POOLED.budget)


def _interior_free_c():
    assert compute_c(named_polygon("2*Sigma"), 1, PrimeModulus(40009)).value \
        == 0


def _dims():
    assert engine.block_dimensions(parse_polygon(QUAD), "b", 2)


def _dims_cli():
    r = CliRunner().invoke(main, ["dims", "--vertices", QUAD, "--strand",
                                  "c", "--position", "3"])
    assert r.exit_code == 0, r.output


def _capped_table():
    with pytest.raises(BlockFailed):
        betti_table(named_polygon("Upsilon_3"), 40009, EngineOptions(
            budget=ComputeBudget(max_workers=1, memory_cap=5000)))


def _capped_cli():
    r = CliRunner().invoke(main, ["table", "--model", "Upsilon_3",
                                  "--memory-cap", "5000", "--workers", "1"])
    assert r.exit_code == 3


@pytest.mark.parametrize("call", [_table(1), _table(2), _kp1, _audits,
                                  _plan, _strand, _interior_free_c,
                                  _dims, _dims_cli, _capped_table,
                                  _capped_cli],
                         ids=["table-w1", "table-w2", "verify_kp1",
                              "run_audits", "plan_strategy", "strand_value",
                              "interior-free-compute_c", "block_dimensions",
                              "dims-cli", "capped-table", "capped-cli"])
def test_scoped_caches_are_empty_after_each_public_call(call,
                                                        pool_every_batch):
    """Whatever the caches held before, the outermost call leaves them
    empty when it returns, and when it fails."""
    poly = parse_polygon(QUAD)
    strand_spec(poly, "b", 1)
    canonical_form(poly)
    assert held()
    call()
    assert held() == {}


def test_a_call_inside_an_open_scope_keeps_its_caches(prime, serial_options):
    """A nested call clears nothing: a second table of the same polygon
    plans nothing anew, and the outer scope clears on exit."""
    poly = parse_polygon(QUAD)
    with call_scope():
        betti_table(poly, prime, serial_options)
        after_first = held()
        assert after_first
        misses = strand_spec.cache_info().misses
        betti_table(poly, prime, serial_options)
        assert strand_spec.cache_info().misses == misses
        assert held() == after_first
    assert held() == {}


def test_table_command_shares_geometry_across_primes_and_audit(monkeypatch):
    """Every prime and the audit run in one scope: each table after the
    first finds the polygon's specs still cached."""
    seen = []
    real = engine.plan_strategy

    def planning(*args, **kwargs):
        seen.append(strand_spec.cache_info().currsize)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "plan_strategy", planning)
    empty_caches()
    r = CliRunner().invoke(main, ["table", "--model", "Upsilon_2",
                                  "--primes", "2,3,40009", "--audit",
                                  "--workers", "1"])
    assert r.exit_code == 0, r.output
    assert len(seen) > 3        # three primes, then the audit's tables
    assert seen[0] == 0 and all(seen[1:])
    assert held() == {}


def test_verify_kp1_command_scopes_each_polygon_file(tmp_path, monkeypatch):
    """A campaign holds one polygon's caches at a time, also when it
    resumes and computes nothing: no file finds an earlier file's
    geometry cached when it is keyed."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, text in enumerate([QUAD, "0,0 3,0 0,3", "0,0 4,0 2,3 0,2"]):
        (corpus / f"p{i}.txt").write_text(text)
    seen = []
    real = cli.polygon_key

    def keying(poly):
        seen.append(held())
        return real(poly)

    monkeypatch.setattr(cli, "polygon_key", keying)
    empty_caches()
    log = str(tmp_path / "kp1.jsonl")
    for _ in range(2):      # the second run resumes every polygon
        r = CliRunner().invoke(main, ["verify-kp1", str(corpus),
                                      "--checkpoint", log, "--workers", "1"])
        assert r.exit_code == 0, r.output
        assert "polygons: 3" in r.output
    assert seen == [{}] * 6
    assert held() == {}


def _write_corpus(directory, texts) -> None:
    directory.mkdir()
    for i, text in enumerate(texts):
        (directory / f"p{i:02d}.txt").write_text(text)


def _vertices(poly) -> str:
    return " ".join(f"{x},{y}" for x, y in poly.vertices)


class _CacheProbe:
    """A block whose build fails with the id of the process ranking it
    and the entries that its scoped caches hold, as its error text."""

    n_rows = n_cols = 1

    def build(self):
        raise ResourceExceeded(json.dumps([os.getpid(), held()]))


def test_pool_workers_hold_bounded_caches_across_a_campaign(
        tmp_path, monkeypatch, pool_every_batch):
    """verify-kp1 keeps one pool across its files, and its workers fill
    caches as they build blocks: before each file after the first, no
    worker holds more entries in any cache than it did at its first
    probe, apart from the three bounded caches that building uses."""
    # distinct keys, so every file is verified; unbounded, _reach would
    # hold more than 16 entries in a worker by the last of these 30
    polys = list({engine.polygon_key(p): p
                  for p in kp1_corpus()}.values())[:30]
    _write_corpus(tmp_path / "corpus", [_vertices(p) for p in polys])
    budget = ComputeBudget(max_workers=2)
    verified, probes = [], []
    real = cli.verify_kp1

    def verifying(poly, prime, options):
        if verified:
            probes.extend(json.loads(text) for _, text in rank_batch(
                [_CacheProbe() for _ in range(8)], budget))
        verified.append(poly)
        return real(poly, prime, options)

    monkeypatch.setattr(cli, "verify_kp1", verifying)
    r = CliRunner().invoke(main, ["verify-kp1", str(tmp_path / "corpus"),
                                  "--workers", "2"])
    assert r.exit_code == 0, r.output
    assert f"polygons: {len(polys)}" in r.output
    assert len(verified) == len(polys) == 30
    assert len(probes) == 8 * (len(polys) - 1)
    first: dict[int, dict[str, int]] = {}
    for pid, caches in probes:
        start = first.setdefault(pid, caches)
        assert caches.get("_mask_layer", 0) <= 4
        assert caches.get("_reach", 0) <= 16
        assert caches.get("_block_frame", 0) <= 2
        assert all(n <= start.get(name, 0) for name, n in caches.items()
                   if name not in ("_mask_layer", "_reach", "_block_frame")
                   ), caches
    assert len(first) <= 2          # one pool served every file


def test_verify_kp1_command_opens_one_pool_for_its_files(
        tmp_path, monkeypatch, opened_pools):
    """Every file of this corpus pools a batch at the real
    POOL_MIN_CELLS, and all of them share one pool."""
    texts = [_vertices(named_polygon("Upsilon_4")),
             _vertices(named_polygon("5*Sigma")), "0,0 3,0 3,5 0,5"]
    _write_corpus(tmp_path / "corpus", texts)
    events = []
    real_verify, real_dispatch = cli.verify_kp1, linalg._dispatch

    def verifying(*args, **kwargs):
        events.append("file")
        return real_verify(*args, **kwargs)

    def dispatching(*args, **kwargs):
        events.append("pooled")
        return real_dispatch(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_kp1", verifying)
    monkeypatch.setattr(linalg, "_dispatch", dispatching)
    r = CliRunner().invoke(main, ["verify-kp1", str(tmp_path / "corpus"),
                                  "--workers", "2"])
    assert r.exit_code == 0, r.output
    assert "polygons: 3  holds=3" in r.output
    per_file = " ".join(events).split("file")[1:]
    assert len(per_file) == 3 and all("pooled" in f for f in per_file)
    assert len(opened_pools) == 1


def test_table_command_opens_one_pool_for_its_primes_and_audit(
        opened_pools, pool_every_batch):
    r = CliRunner().invoke(main, ["table", "--model", "Upsilon_2",
                                  "--primes", "2,3", "--audit",
                                  "--workers", "2"])
    assert r.exit_code == 0, r.output
    assert len(opened_pools) == 1
    assert held() == {}
