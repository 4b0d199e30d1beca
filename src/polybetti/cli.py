"""Command-line surface.

Five commands: ``table`` computes a graded Betti table, ``predict``
prints every closed-form entry and conjecture, ``verify-kp1`` runs a
resumable campaign probing the predicted first zero of row one over a
directory of polygon files, ``dims`` dumps per-bidegree matrix sizes,
and ``oracle-check`` compares the engine against the brute-force
reference on small polygons.

Exit codes: 0 success, 2 invalid input, 3 resource limit hit (partial
checkpoints are kept), 4 polygon too large for the brute-force cap.
"""
from __future__ import annotations

import json
import os
import sys

import click

from .closed_forms import (EmptyInterior, PathologicalPolygon, cg_lower_bound,
                           eagon_northcott_table, entry_bN4,
                           hering_schenck_zero_region,
                           kp1_predicted_first_zero, minimal_degree_predicate,
                           six_easy_entries, veronese_prediction_entries)
from .engine import (EngineOptions, TableAborted, betti_table,
                     block_dimensions, polygon_key, run_audits, verify_kp1)
from .linalg import ComputeBudget, PrimeModulus, ResourceExceeded
from .polygon import (DimensionError, LatticePolygon, classify, interior_hull,
                      lattice_width, named_polygon, parse_polygon)
from .table import render_ascii, to_json_dict

EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CAP = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_polygon(model: str | None, vertices: str | None,
                  file: str | None) -> LatticePolygon:
    given = [x for x in (model, vertices, file) if x is not None]
    if len(given) != 1:
        _fail(EXIT_INPUT,
              "give exactly one of --model, --vertices, --file")
    try:
        if model is not None:
            return named_polygon(model)
        if vertices is not None:
            return parse_polygon(vertices)
        with open(file) as fh:
            return parse_polygon(fh.read())
    except (ValueError, OSError, KeyError) as exc:
        _fail(EXIT_INPUT, str(exc))


def _parse_primes(prime: int, primes: str | None) -> list[PrimeModulus]:
    try:
        if primes is not None:
            return [PrimeModulus(int(tok))
                    for tok in primes.replace(",", " ").split()]
        return [PrimeModulus(prime)]
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))


def _budget(workers: int | None, memory_cap: int | None) -> ComputeBudget:
    if workers is not None:
        return ComputeBudget(max_workers=workers, memory_cap=memory_cap)
    return ComputeBudget(memory_cap=memory_cap)


def _options(removal: str, no_symmetry: bool, bigraded: bool,
             checkpoint: str | None, workers: int | None,
             memory_cap: int | None) -> EngineOptions:
    return EngineOptions(removal=removal, use_symmetry=not no_symmetry,
                         keep_bigraded=bigraded, checkpoint=checkpoint,
                         budget=_budget(workers, memory_cap))


_polygon_options = [
    click.option("--model", help='Named polygon: "Sigma", "3*Sigma", '
                                 '"Upsilon", "Upsilon_2", "2*Upsilon".'),
    click.option("--vertices", help='Inline vertex list "x,y x,y ...".'),
    click.option("--file", type=click.Path(), help="Polygon file (JSON "
                 '{"vertices": [[x, y], ...]} or inline vertex list).'),
]

_compute_options = [
    click.option("--removal", type=click.Choice(["auto", "on", "off"]),
                 default="auto", show_default=True,
                 help="Quotient out the exact subcomplex from removed "
                      "points (auto: triangles only)."),
    click.option("--no-symmetry", is_flag=True,
                 help="Do not fold bidegrees into symmetry orbits."),
    click.option("--workers", type=int, default=None,
                 help="Parallel rank workers (default: BETTI_WORKERS "
                      "environment variable, else the CPU count)."),
    click.option("--memory-cap", type=int, default=None,
                 help="Refuse any block whose dense form exceeds this "
                      "many bytes."),
]


def _with(decorators):
    def wrap(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn
    return wrap


@click.group()
@click.version_option(package_name="polybetti")
def main():
    """Graded Betti tables of toric surfaces from lattice polygons."""


@main.command()
@_with(_polygon_options)
@click.option("--prime", type=int, default=40009, show_default=True,
              help="Working prime for all rank computations.")
@click.option("--primes", default=None,
              help='Comma-separated primes, e.g. "2,3,40009": compute at '
                   "each and report agreement.")
@_with(_compute_options)
@click.option("--bigraded", is_flag=True,
              help="Keep per-bidegree values (JSON output only).")
@click.option("--audit", is_flag=True,
              help="Re-derive every entry the slow way and cross-check "
                   "(small polygons only; failures exit nonzero).")
@click.option("--checkpoint", type=click.Path(), default=None,
              help="Record finished rank blocks here and resume from "
                   "them; kept on resource failure.")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]),
              default="ascii", show_default=True)
def table(model, vertices, file, prime, primes, removal, no_symmetry,
          workers, memory_cap, bigraded, audit, checkpoint, fmt):
    """Compute the graded Betti table of one polygon.

    ASCII layout: header row of column indices, then rows 0/1/2.  Row
    two reads right to left: printed column p holds the quadratic
    entry at position n-2-p.  A trailing asterisk marks a nonzero
    value known only modulo the working prime.
    """
    poly = _load_polygon(model, vertices, file)
    moduli = _parse_primes(prime, primes)
    try:
        opts = _options(removal, no_symmetry, bigraded, checkpoint,
                        workers, memory_cap)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    tables = []
    for modulus in moduli:
        try:
            tables.append(betti_table(poly, modulus, opts))
        except (TableAborted, ResourceExceeded) as exc:
            if checkpoint:
                click.echo(f"partial progress kept in {checkpoint}",
                           err=True)
            _fail(EXIT_RESOURCE, str(exc))
        except ValueError as exc:
            _fail(EXIT_INPUT, str(exc))
    first = tables[0]
    mismatches = [
        {"strand": strand, "position": pos + 1,
         "values": {t.prime.p: getattr(t, strand)[pos] for t in tables}}
        for strand in ("b", "c")
        for pos in range(max(poly.n_points - 3, 0))
        if len({getattr(t, strand)[pos] for t in tables}) > 1]
    if fmt == "json":
        out = to_json_dict(first)
        out["polygon"] = polygon_key(poly)
        if len(tables) > 1:
            out["primes"] = [t.prime.p for t in tables]
            out["primes_agree"] = not mismatches
            if mismatches:
                out["prime_mismatches"] = mismatches
        click.echo(json.dumps(out, indent=2))
    else:
        click.echo(render_ascii(first), nl=False)
        if len(tables) > 1:
            plist = ",".join(str(t.prime.p) for t in tables)
            if mismatches:
                click.echo(f"primes {plist} disagree on "
                           f"{len(mismatches)} entries:", err=True)
                for m in mismatches:
                    click.echo(f"  {m['strand']}[{m['position']}] = "
                               f"{m['values']}", err=True)
            else:
                click.echo(f"primes {plist} agree", err=True)
    if audit:
        issues = run_audits(poly, moduli[0], opts)
        for issue in issues:
            click.echo(f"audit: {issue}", err=True)
        if issues:
            sys.exit(1)
        click.echo("audit: all checks passed", err=True)


@main.command()
@_with(_polygon_options)
@click.option("--prime", type=int, default=40009, show_default=True,
              help="Prime used when printing the forced full table.")
def predict(model, vertices, file, prime):
    """Print every entry known in closed form, plus the conjectures.

    Lines marked "theorem" hold in any characteristic; lines marked
    "conjectural" are unproven predictions.
    """
    poly = _load_polygon(model, vertices, file)
    moduli = _parse_primes(prime, None)
    n = poly.n_points
    inner = interior_hull(poly)
    w = lattice_width(poly)[0]
    click.echo(f"n = {n}, interior points = {len(inner.points)}, "
               f"lattice width = {w}")
    if minimal_degree_predicate(poly):
        click.echo("no interior points: the resolution is forced and the "
                   "whole table is a theorem")
        click.echo(render_ascii(eagon_northcott_table(poly, moduli[0])),
                   nl=False)
        return
    preds = six_easy_entries(poly)
    if n >= 4:
        preds += [pr for pr in entry_bN4(poly) if 1 <= pr.index <= n - 3]
    for pr in sorted(preds, key=lambda e: (e.strand, e.index)):
        label = "conjectural" if pr.conjectural else "theorem"
        click.echo(f"{pr.strand}[{pr.index}] = {pr.value}    "
                   f"{label} ({pr.source})")
    zeros = sorted(hering_schenck_zero_region(poly))
    if zeros:
        click.echo(f"c[{zeros[0]}..{zeros[-1]}] = 0    theorem "
                   "(boundary_count_vanishing)")
    try:
        bound = cg_lower_bound(poly)
        click.echo(f"c[{len(inner.points)}] >= {bound}    theorem "
                   "(interior_translate_lower_bound)")
    except EmptyInterior:  # pragma: no cover - minimal degree returned above
        pass
    kind = classify(poly)
    if kind.tag == "Sigma_multiple" and kind.params[0] >= 2:
        for pr in veronese_prediction_entries(kind.params[0]):
            click.echo(f"{pr.strand}[{pr.index}] = {pr.value}    "
                       f"conjectural ({pr.source})")
    try:
        predicted = kp1_predicted_first_zero(poly)
        click.echo(f"first zero of row one at position {n + 1 - predicted} "
                   f"(counting {predicted} from the right)    conjectural "
                   "(row_one_first_zero)")
    except PathologicalPolygon:  # pragma: no cover - needs empty interior
        pass


def _kp1_line(name: str, record: dict) -> str:
    if "error" in record:
        return f"{name}: error: {record['error']}"
    rep = record["report"]
    entries = "  ".join(
        f"b[{pos}]={val}{'' if exact else '*'}"
        for pos, (val, exact) in sorted(rep["entries"].items()))
    line = (f"{name}: {record['polygon']} n={rep['n']} "
            f"width={rep['lattice_width']} "
            f"first_zero={rep['first_zero_index']} "
            f"verdict={rep['verdict']}")
    if entries:
        line += f"  {entries}"
    for note in rep["notes"]:
        line += f"  [{note}]"
    return line


@main.command("verify-kp1")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--prime", type=int, default=40009, show_default=True)
@_with(_compute_options)
@click.option("--checkpoint", type=click.Path(), default=None,
              help="Campaign log; an interrupted run resumes from it and "
                   "prints an identical final report.")
def verify_kp1_cmd(corpus_dir, prime, removal, no_symmetry, workers,
                   memory_cap, checkpoint):
    """Probe the predicted first zero of row one for every polygon file
    in CORPUS_DIR.

    Per-polygon verdicts: "holds" (prediction confirmed), "fails" (a
    guaranteed-nonzero entry vanished), "modular-only-nonzero" (the
    predicted zero position is nonzero modulo the prime, which leaves the
    characteristic-zero value undecided).  Computed zeros are exact in
    every characteristic; nonzero values are mod-p and may exceed the
    characteristic-zero entry.  Unreadable files are logged and the
    campaign continues.
    """
    moduli = _parse_primes(prime, None)
    try:
        opts = _options(removal, no_symmetry, False, None, workers,
                        memory_cap)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    header = {"campaign": "kp1", "prime": moduli[0].p,
              "removal": removal, "symmetry": not no_symmetry}
    done: dict[str, dict] = {}
    log_fh = None
    if checkpoint:
        if os.path.exists(checkpoint) and os.path.getsize(checkpoint):
            with open(checkpoint) as fh:
                first = json.loads(fh.readline())
                if first != header:
                    _fail(EXIT_INPUT,
                          f"campaign log {checkpoint} belongs to a "
                          f"different run: {first} != {header}")
                for line in fh:
                    if line.strip():
                        rec = json.loads(line)
                        done[rec["key"]] = rec
            log_fh = open(checkpoint, "a")
        else:
            log_fh = open(checkpoint, "w")
            log_fh.write(json.dumps(header, sort_keys=True) + "\n")
            log_fh.flush()

    def log(key: str, record: dict) -> None:
        done[key] = record
        if log_fh:
            log_fh.write(json.dumps({"key": key, **record},
                                    sort_keys=True) + "\n")
            log_fh.flush()

    names = sorted(os.listdir(corpus_dir))
    counts: dict[str, int] = {}
    shown = 0
    for name in names:
        path = os.path.join(corpus_dir, name)
        if not os.path.isfile(path):
            continue
        try:
            with open(path) as fh:
                poly = parse_polygon(fh.read())
            key = polygon_key(poly)
        except (ValueError, OSError, KeyError) as exc:
            key = f"file:{name}"
            if key not in done:
                log(key, {"error": f"{type(exc).__name__}: {exc}"})
            record = done[key]
            click.echo(_kp1_line(name, record))
            counts["error"] = counts.get("error", 0) + 1
            shown += 1
            continue
        if key not in done:
            try:
                rep = verify_kp1(poly, moduli[0], opts)
                log(key, {"polygon": key, "report": {
                    "n": rep.n, "lattice_width": rep.lattice_width,
                    "exceptional": rep.exceptional,
                    "predicted_from_right": rep.predicted_from_right,
                    "first_zero_index": rep.first_zero_index,
                    "entries": {str(t): list(v)
                                for t, v in sorted(rep.entries.items())},
                    "verdict": rep.verdict, "notes": list(rep.notes)}})
            except (ValueError, ResourceExceeded) as exc:
                log(key, {"polygon": key,
                          "error": f"{type(exc).__name__}: {exc}"})
        record = done[key]
        if "error" in record:
            counts["error"] = counts.get("error", 0) + 1
        else:
            verdict = record["report"]["verdict"]
            counts[verdict] = counts.get(verdict, 0) + 1
        rec = dict(record)
        if "report" in rec:
            rec = {**rec, "report": {
                **rec["report"],
                "entries": {int(t): tuple(v) for t, v
                            in rec["report"]["entries"].items()}}}
        click.echo(_kp1_line(name, rec))
        shown += 1
    if log_fh:
        log_fh.close()
    summary = "  ".join(f"{k}={counts[k]}" for k in sorted(counts))
    click.echo(f"polygons: {shown}" + (f"  {summary}" if summary else ""))
    if counts.get("error"):
        click.echo(f"{counts['error']} polygon(s) failed; see lines above",
                   err=True)


@main.command()
@_with(_polygon_options)
@click.option("--strand", type=click.Choice(["b", "c"]), required=True,
              help="Row one (b) or row two (c) of the table.")
@click.option("--position", type=int, required=True,
              help="Entry position within the strand.")
@click.option("--removal", type=click.Choice(["auto", "on", "off"]),
              default="auto", show_default=True)
def dims(model, vertices, file, strand, position, removal):
    """Print rows x cols of the coboundary matrix in every bidegree.

    The listed sizes are what a table run would have to reduce; the
    peak block is the memory-binding one.
    """
    poly = _load_polygon(model, vertices, file)
    if position < 1:
        _fail(EXIT_INPUT, "position must be at least 1")
    try:
        opts = EngineOptions(removal=removal)
        blocks = block_dimensions(poly, strand, position, opts)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    total_r = total_c = 0
    peak = (0, 0, 0)
    for (a, b), rows, cols in blocks:
        click.echo(f"({a},{b})  {rows} x {cols}")
        total_r += rows
        total_c += cols
        if rows * cols > peak[0] * peak[1]:
            peak = (rows, cols, (a, b))
    click.echo(f"bidegrees: {len(blocks)}")
    click.echo(f"totals: {total_r} x {total_c}")
    if peak[0] * peak[1]:
        click.echo(f"peak block: {peak[0]} x {peak[1]} at "
                   f"({peak[2][0]},{peak[2][1]})")
    else:
        click.echo("peak block: empty")


@main.command("oracle-check")
@_with(_polygon_options)
@click.option("--primes", default="2,3,40009", show_default=True,
              help="Primes to compare at.")
def oracle_check(model, vertices, file, primes):
    """Compare the engine against the brute-force reference.

    The reference builds every coboundary map as one dense matrix with
    no shortcut, no removal and no symmetry, so it only accepts small
    polygons; beyond the cap this exits 4.
    """
    from .oracle import TooLarge, oracle_betti

    poly = _load_polygon(model, vertices, file)
    moduli = _parse_primes(40009, primes)
    failed = False
    for modulus in moduli:
        try:
            ref = oracle_betti(poly, modulus)
        except TooLarge as exc:
            _fail(EXIT_CAP, str(exc))
        mine = betti_table(poly, modulus)
        if mine.b == ref.b and mine.c == ref.c:
            click.echo(f"p={modulus.p}: PASS  b={mine.b} c={mine.c}")
        else:
            failed = True
            click.echo(f"p={modulus.p}: FAIL  engine b={mine.b} c={mine.c} "
                       f"reference b={ref.b} c={ref.c}")
    if failed:
        sys.exit(1)
    click.echo("PASS")


if __name__ == "__main__":
    main()
