"""Table assembly: theorem shortcuts first, linear algebra last.

For each antidiagonal of the Betti table only one side is ever
computed; the other follows from the antidiagonal difference.  Entries
forced to zero by the interior or by the boundary count are tagged,
never computed.  What remains is split by bidegree, reduced to
symmetry-orbit representatives, and dispatched as independent rank
jobs.  A zero obtained modulo p is exact in characteristic zero
(kernels can only grow under reduction), so zeros and everything
cross-filled from them are marked rigorous.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

from .closed_forms import (antidiagonal_difference,
                           antidiagonal_difference_bigraded,
                           eagon_northcott_table, hering_schenck_zero_region,
                           kp1_predicted_first_zero,
                           scroll_strand_lower_bound)
from .koszul import (EMPTY_PLAN, ComplexSpec, RemovalPlan, choose_removal,
                     coboundary_matrix, enumerate_bidegrees,
                     linear_strand_spec, middle_profile, peak_block,
                     side_profile, support_window, target_profile,
                     twisted_quadratic_spec, twisted_strand_spec)
from .linalg import (ComputeBudget, InvariantViolation, PrimeModulus,
                     ResourceExceeded, SparseMatrixFp, rank_batch, require,
                     worker_pool)
from .polygon import (DimensionError, LatticePolygon, Point, canonical_form,
                      interior_hull, lattice_width, order_key, prune_vertex,
                      sigma_point, symmetry_group)
from .table import BettiTable


class BlockFailed(ResourceExceeded):
    """The rank job of one block blew the budget or lost its worker;
    names the strand, the position and the block's bidegree.  Every
    block that did finish is in the checkpoint log, if there is one."""

    def __init__(self, strand: str, ell: int, bidegree: Point, error: str):
        super().__init__(f"strand {strand} position {ell} bidegree "
                         f"{bidegree}: {error}")
        self.strand = strand
        self.ell = ell
        self.bidegree = bidegree


@dataclass(frozen=True)
class EngineOptions:
    """Knobs affecting how a table is computed, not its value."""

    removal: str = "auto"          # "auto" | "on" | "off"
    use_symmetry: bool = True
    keep_bigraded: bool = False
    checkpoint: str | None = None
    budget: ComputeBudget = field(default_factory=ComputeBudget)

    def __post_init__(self):
        if self.removal not in ("auto", "on", "off"):
            raise ValueError(f"removal must be auto/on/off, "
                             f"got {self.removal!r}")


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def polygon_key(poly: LatticePolygon) -> str:
    """Stable identifier shared by unimodularly equivalent polygons."""
    pts, _ = canonical_form(poly)
    return _hash_text(";".join(f"{x},{y}" for x, y in pts))


def options_key(prime: PrimeModulus, options: EngineOptions) -> str:
    return _hash_text(json.dumps(
        {"prime": prime.p, "removal": options.removal,
         "symmetry": options.use_symmetry}, sort_keys=True))


class AppendLog:
    """Append-only line-delimited JSON log of finished work.

    The first line pins a header; a log with a different header belongs
    to a different run and is refused rather than mixed in.  Records are
    kept by ``key(record)``.  A last line that is unfinished (no newline)
    or unparsable is what an interrupted write leaves: it is ignored and
    cut off before the next append.  A bad line before it raises.
    """

    def __init__(self, path: str, header: dict, key, sort_keys: bool = False):
        self.key = key
        self.sort_keys = sort_keys
        lines = []
        if os.path.exists(path):
            with open(path, "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
        found: list[dict] = []
        size = 0
        for i, line in enumerate(lines):
            last = i == len(lines) - 1
            if last and not line.endswith(b"\n"):
                break
            if line.strip():
                try:
                    found.append(json.loads(line))
                except ValueError as exc:
                    if last:
                        break
                    raise ValueError(f"log {path} line {i + 1}: {exc}") \
                        from exc
            size += len(line)
        if found and found[0] != header:
            raise ValueError(f"log {path} belongs to a different run: "
                             f"{found[0]} != {header}")
        self.records = {key(rec): rec for rec in found[1:]}
        if found:
            with open(path, "rb+") as fh:
                fh.truncate(size)   # appends start after the last whole line
            self._fh = open(path, "a")
        else:
            self._fh = open(path, "w")
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._fh.flush()

    def append(self, record: dict) -> None:
        self.records[self.key(record)] = record
        self._fh.write(json.dumps(record, sort_keys=self.sort_keys) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _block_key(rec: dict) -> tuple[str, int, Point]:
    return rec["strand"], rec["ell"], tuple(rec["bidegree"])


def _bidegree_actions(poly: LatticePolygon, plan: RemovalPlan,
                      translate_degree: int):
    """Bidegree maps induced by the polygon symmetries compatible with
    the removal plan: the linear part acts directly, the shift acts
    once per tensor factor."""
    removed = set(plan.removed)
    actions = []
    for psi in symmetry_group(poly):
        if removed and {psi(p) for p in removed} != removed:
            continue
        (m00, m01), (m10, m11) = psi.matrix
        tx, ty = psi.shift

        def act(ab, m00=m00, m01=m01, m10=m10, m11=m11,
                dx=translate_degree * tx, dy=translate_degree * ty):
            return (m00 * ab[0] + m01 * ab[1] + dx,
                    m10 * ab[0] + m11 * ab[1] + dy)

        actions.append(act)
    return actions


def _orbit_partition(bidegrees, actions) -> list[tuple[Point, tuple]]:
    """Orbits of the action, each as (lex-min representative, members)."""
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
                if img not in universe:
                    raise InvariantViolation(
                        f"symmetry moved bidegree {cur} outside the region")
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        out.append((ab, tuple(sorted(orbit, key=order_key))))
        remaining -= orbit
    return out


@dataclass(frozen=True)
class BlockTask:
    """One bidegree block of a coboundary, described by its spec and by
    its sizes as the generating functions predict them.

    Whoever ranks the block builds it, a pool worker included, so the
    parent neither holds nor pickles the matrices; the memory cap is
    checked against the predicted sizes before the block exists.  Each
    build is a fresh matrix, which the rank consumes.
    """

    spec: ComplexSpec
    bidegree: Point
    prime: PrimeModulus
    which: str                  # "right" maps out of the middle term
    n_rows: int
    n_cols: int

    def build(self) -> SparseMatrixFp:
        # looked up in this module at call time, so a wrapper set on
        # engine.coboundary_matrix (perfbench's tracer) reaches workers
        m = coboundary_matrix(self.spec, self.bidegree, self.prime,
                              self.which)
        if (m.n_rows, m.n_cols) != (self.n_rows, self.n_cols):
            raise InvariantViolation(
                f"block at {self.bidegree} is {m.n_rows}x{m.n_cols}, "
                f"predicted {self.n_rows}x{self.n_cols}")
        return m


@dataclass
class BlockRecord:
    """One finished bidegree block of one strand entry."""

    strand: str
    ell: int
    bidegree: Point
    orbit_size: int
    cols: int
    rank: int


@dataclass
class EntryOutcome:
    """A single strand entry with its bidegree breakdown."""

    value: int
    rigorous: bool
    bigraded: dict[Point, int]
    blocks: list[BlockRecord]


def _production_spec(poly: LatticePolygon, strand: str, ell: int,
                     plan: RemovalPlan) -> ComplexSpec:
    if strand == "b":
        return linear_strand_spec(poly, ell, plan)
    if strand == "c":
        return twisted_strand_spec(poly, ell, plan)
    raise ValueError(f"strand must be 'b' or 'c', got {strand!r}")


def _orbit_cohomology(poly: LatticePolygon, spec: ComplexSpec,
                      prime: PrimeModulus, plan: RemovalPlan, strand: str,
                      ell: int, *, rank_left: bool = False,
                      use_symmetry: bool = True,
                      budget: ComputeBudget | None = None,
                      store: AppendLog | None = None) -> EntryOutcome:
    """Middle cohomology of spec as a sum of per-bidegree kernel
    dimensions, ranked in one batch, one block per symmetry orbit of
    the nonzero middle bidegrees (one orbit each when symmetry is off).

    The outgoing coboundary is always reduced.  The incoming map is
    ranked only when rank_left; otherwise it is injective and its
    wedge-space dimension is subtracted instead.  A block whose ranks
    are all zero modulo p is trivial, and an entry of trivial blocks is
    exact.  Finished blocks are looked up in and appended to store,
    keyed by _block_key; when blocks fail, every block that finished is
    appended before the first failure is raised.
    """
    profile = middle_profile(spec)
    bidegs = [ab for ab in sorted(profile, key=order_key) if profile[ab] > 0]
    parts = (_orbit_partition(bidegs, _bidegree_actions(
        poly, plan, spec.translate_degree)) if use_symmetry
        else [(ab, (ab,)) for ab in bidegs])
    rows, left = target_profile(spec.right), side_profile(spec.left)
    require(strand != "c" or not left, "twisted degree-0 term not empty")
    ranks: dict[Point, tuple[int, ...]] = {}
    todo: list[tuple[Point, tuple]] = []
    tasks: list[BlockTask] = []
    for rep, members in parts:
        cols = profile[rep]
        cached = store.records.get((strand, ell, rep)) if store else None
        if cached is not None:
            if cached["orbit_size"] != len(members) or cached["cols"] != cols:
                raise ValueError(
                    f"checkpoint record for {strand}{ell} at {rep} does not "
                    f"match this run (size {cached['orbit_size']} vs "
                    f"{len(members)}, cols {cached['cols']} vs {cols})")
            ranks[rep] = (cached["rank"],)
            continue
        todo.append((rep, members))
        tasks.append(BlockTask(spec, rep, prime, "right", rows.get(rep, 0),
                               cols))
        if rank_left:
            # the left map lands in the middle term: its rows are profile's
            tasks.append(BlockTask(spec, rep, prime, "left", cols,
                                   left.get(rep, 0)))

    step = 2 if rank_left else 1
    outcomes = rank_batch(tasks, budget)
    failed = None
    for i, (rep, members) in enumerate(todo):
        outs = outcomes[step * i:step * (i + 1)]
        error = next((out.error for out in outs if not out.ok), None)
        if error is not None:
            failed = failed or BlockFailed(strand, ell, rep, error)
            continue
        if store:
            store.append({"strand": strand, "ell": ell, "bidegree": list(rep),
                          "orbit_size": len(members), "cols": profile[rep],
                          "rank": outs[0].rank})
        ranks[rep] = tuple(out.rank for out in outs)
    if failed:
        raise failed

    value = 0
    bigraded: dict[Point, int] = {}
    blocks = []
    all_trivial = True
    for rep, members in parts:          # in order_key order of rep
        cols, rk = profile[rep], ranks[rep]
        incoming = 0 if rank_left else left.get(rep, 0)
        block_val = cols - sum(rk) - incoming
        if block_val < 0:
            raise InvariantViolation(f"negative cohomology at {rep}: {cols} "
                                     f"- {rk} - {incoming}")
        value += len(members) * block_val
        all_trivial = all_trivial and not any(rk)
        if block_val:
            bigraded.update(dict.fromkeys(members, block_val))
        blocks.append(BlockRecord(strand, ell, rep, len(members), cols, rk[0]))
    return EntryOutcome(value, value == 0 or all_trivial, bigraded, blocks)


def strand_value(poly: LatticePolygon, strand: str, ell: int,
                 prime: PrimeModulus, plan: RemovalPlan = EMPTY_PLAN, *,
                 use_symmetry: bool = True,
                 budget: ComputeBudget | None = None,
                 store: AppendLog | None = None) -> EntryOutcome:
    """One strand entry.  Row one subtracts the wedge-space dimension of
    the injective incoming map instead of its rank; row two has no
    incoming term at all."""
    spec = _production_spec(poly, strand, ell, plan)
    return _orbit_cohomology(poly, spec, prime, plan, strand, ell,
                             use_symmetry=use_symmetry, budget=budget,
                             store=store)


def spec_cohomology(poly: LatticePolygon, spec: ComplexSpec,
                    prime: PrimeModulus, *, use_symmetry: bool = True,
                    budget: ComputeBudget | None = None) -> EntryOutcome:
    """Middle cohomology of an arbitrary three-term complex, computing
    both coboundary ranks honestly (audit path, no shortcuts)."""
    if use_symmetry:
        require(spec.wedge_support == poly.points,
                "audit complexes run on unreduced supports")
    return _orbit_cohomology(poly, spec, prime, EMPTY_PLAN, "spec", spec.ell,
                             rank_left=True, use_symmetry=use_symmetry,
                             budget=budget)


def compute_b(poly: LatticePolygon, ell: int, prime: PrimeModulus,
              plan: RemovalPlan = EMPTY_PLAN, *, use_symmetry: bool = True,
              budget: ComputeBudget | None = None) -> EntryOutcome:
    """Row-one entry at one position, computed directly."""
    return strand_value(poly, "b", ell, prime, plan,
                        use_symmetry=use_symmetry, budget=budget)


def compute_c(poly: LatticePolygon, ell: int, prime: PrimeModulus,
              plan: RemovalPlan = EMPTY_PLAN, *, use_symmetry: bool = True,
              budget: ComputeBudget | None = None) -> EntryOutcome:
    """Row-two entry at one position, computed directly; zero when the
    interior is empty."""
    if not interior_hull(poly).points:
        return EntryOutcome(0, True, {}, [])
    return strand_value(poly, "c", ell, prime, plan,
                        use_symmetry=use_symmetry, budget=budget)


@dataclass
class Strategy:
    """Resolution route for every antidiagonal of one table."""

    n: int
    eagon_northcott: bool
    choices: dict[int, str]        # antidiagonal -> compute_b/compute_c/shortcut
    b_preset: dict[int, str]       # position -> zero tag
    c_preset: dict[int, str]
    removal_b: RemovalPlan
    removal_c: RemovalPlan
    estimates: dict[tuple[str, int], int]

    def __post_init__(self):
        require(set(self.choices) == set(range(1, self.n - 1)),
                "every antidiagonal needs a route")
        require(all(ch in ("compute_b", "compute_c", "shortcut")
                    for ch in self.choices.values()), "unknown route")


def _removes_support(poly: LatticePolygon, options: EngineOptions) -> bool:
    """Whether the requested mode removes support; "auto" does so only
    for triangles, where it strips all three corners."""
    return options.removal == "on" or (options.removal == "auto"
                                       and len(poly.vertices) == 3)


def effective_plans(poly: LatticePolygon,
                    options: EngineOptions) -> tuple[RemovalPlan, RemovalPlan]:
    """Removal plans for the two strands under the requested mode."""
    if not _removes_support(poly, options):
        return EMPTY_PLAN, EMPTY_PLAN
    return (choose_removal(poly, "primal_b"), choose_removal(poly, "dual_c"))


def _antidiagonal(n: int, a: int) -> tuple[int | None, int | None]:
    """Row-one and row-two positions on antidiagonal a of an n-point
    table; None for a position beyond the table edge."""
    width = n - 3
    pb = a if a <= width else None
    pc = n - 1 - a if 1 <= n - 1 - a <= width else None
    return pb, pc


def _presets(poly: LatticePolygon) -> tuple[dict[int, str], dict[int, str]]:
    """Zeros known by theorem for a polygon with interior points: the
    last row-one entry and the boundary-count tail of row two."""
    width = poly.n_points - 3
    b_preset = {width: "zero_by_interior"} if width >= 1 else {}
    c_preset = {j: "zero_by_boundary_count"
                for j in hering_schenck_zero_region(poly)}
    return b_preset, c_preset


def _choose_side(poly: LatticePolygon, a: int, b_preset: dict,
                 c_preset: dict, plans: tuple[RemovalPlan, RemovalPlan]
                 ) -> tuple[str, dict[tuple[str, int], int]]:
    """Route for antidiagonal a, with the peak-block estimates it used.

    A side that is preset or beyond the table edge makes the antidiagonal
    a shortcut.  Otherwise the side with the smaller largest bidegree
    block is computed (peak memory binds before total time); ties go to
    row two, whose twisted supports are smaller.
    """
    pb, pc = _antidiagonal(poly.n_points, a)
    if pb is None or pb in b_preset or pc is None or pc in c_preset:
        return "shortcut", {}
    est_b = peak_block(linear_strand_spec(poly, pb, plans[0]))
    est_c = peak_block(twisted_strand_spec(poly, pc, plans[1]))
    return ("compute_c" if est_c <= est_b else "compute_b",
            {("b", pb): est_b, ("c", pc): est_c})


def plan_strategy(poly: LatticePolygon, prime: PrimeModulus,
                  options: EngineOptions | None = None) -> Strategy:
    """Pick the route for every antidiagonal before any matrix exists.

    Tables of interior-free polygons are pure closed form.  Otherwise
    preset zeros make their antidiagonals shortcuts, and each remaining
    antidiagonal computes the side _choose_side picks.
    """
    options = options or EngineOptions()
    n = poly.n_points
    anti = range(1, n - 1)
    if not interior_hull(poly).points:
        return Strategy(n, True, {a: "shortcut" for a in anti}, {}, {},
                        EMPTY_PLAN, EMPTY_PLAN, {})
    plans = effective_plans(poly, options)
    b_preset, c_preset = _presets(poly)
    choices: dict[int, str] = {}
    estimates: dict[tuple[str, int], int] = {}
    for a in anti:
        choices[a], est = _choose_side(poly, a, b_preset, c_preset, plans)
        estimates.update(est)
    return Strategy(n, False, choices, b_preset, c_preset, *plans,
                    estimates)


def _validate_table(poly: LatticePolygon, table: BettiTable) -> None:
    """Internal consistency of an assembled table; cheap, always on."""
    n = poly.n_points
    n_int = len(interior_hull(poly).points)
    for ell in range(1, n - 1):
        require(table.b_entry(ell) - table.c_entry(n - 1 - ell)
                == antidiagonal_difference(poly, ell),
                f"antidiagonal difference violated at {ell}")
    if n - 3 >= 1:
        require(table.b_entry(1) == math.comb(n - 1, 2) - poly.area2,
                "first row-one entry is not the quadric count")
    require(any(table.c) == (n_int > 0),
            "row two must vanish exactly when the interior is empty")
    if n_int:
        require(table.c_entry(1) == n_int,
                "first row-two entry is not the interior count")
        require(table.c_entry(n_int) != 0 or n_int > n - 3,
                "last row-two entry sits at the interior count")
        for j in range(n_int + 1, n - 2):
            require(table.c_entry(j) == 0,
                    f"row-two entry {j} beyond the interior count")


def _resolve_antidiagonal(poly: LatticePolygon, a: int, choice: str,
                          prime: PrimeModulus, presets: tuple[dict, dict],
                          plans: tuple[RemovalPlan, RemovalPlan],
                          options: EngineOptions,
                          store: AppendLog | None = None
                          ) -> tuple[dict[tuple[str, int], tuple], dict]:
    """Both entries of antidiagonal a inside the table, keyed (strand,
    position), as (value, provenance tag, rigorous); and the bigraded
    breakdown of the computed side, keyed (strand, position, bidegree).

    A preset zero or the table edge fixes one side; otherwise the side
    that choice names is computed.  The missing side follows from the
    difference b - c.  Entries cannot decrease modulo p, so a zero is
    exact, and the difference is exact in every characteristic, so one
    certified side certifies its partner.
    """
    pos = dict(zip("bc", _antidiagonal(poly.n_points, a)))
    side = {s: (0, "edge" if pos[s] is None else preset[pos[s]], True)
            for s, preset in zip("bc", presets)
            if pos[s] is None or pos[s] in preset}
    breakdown = {}
    if not side:
        strand = "b" if choice == "compute_b" else "c"
        out = strand_value(poly, strand, pos[strand], prime,
                           plans[0] if strand == "b" else plans[1],
                           use_symmetry=options.use_symmetry,
                           budget=options.budget, store=store)
        side[strand] = (out.value, "computed", out.rigorous)
        breakdown = {(strand, pos[strand], ab): v
                     for ab, v in out.bigraded.items()}
    diff = antidiagonal_difference(poly, a)
    if "c" not in side:
        side["c"] = (side["b"][0] - diff, "crossfilled", side["b"][2])
    elif "b" not in side:
        side["b"] = (side["c"][0] + diff, "crossfilled", side["c"][2])
    rig = any(r or v == 0 for v, _, r in side.values())
    return ({(strand, pos[strand]): (v, tag, rig)
             for strand, (v, tag, _) in side.items()
             if pos[strand] is not None}, breakdown)


def betti_table(poly: LatticePolygon, prime: PrimeModulus | int = 40009,
                options: EngineOptions | None = None) -> BettiTable:
    """The full graded Betti table, every entry tagged with how it was
    obtained and whether it is exact in characteristic zero."""
    if isinstance(prime, int):
        prime = PrimeModulus(prime)
    options = options or EngineOptions()
    strategy = plan_strategy(poly, prime, options)
    if strategy.eagon_northcott:
        return eagon_northcott_table(poly, prime)

    # (strand, position) -> (value, provenance tag, rigorous)
    cells: dict[tuple[str, int], tuple[int, str, bool]] = {}
    bigraded: dict[tuple[str, int, Point], int] = {}
    store = None
    if options.checkpoint:
        store = AppendLog(options.checkpoint, {
            "polygon": polygon_key(poly), "prime": prime.p,
            "options": options_key(prime, options)}, _block_key)
    try:
        with worker_pool(options.budget):
            for a, choice in sorted(strategy.choices.items()):
                entries, breakdown = _resolve_antidiagonal(
                    poly, a, choice, prime,
                    (strategy.b_preset, strategy.c_preset),
                    (strategy.removal_b, strategy.removal_c), options, store)
                cells.update(entries)
                if options.keep_bigraded:
                    bigraded.update(breakdown)
    finally:
        if store:
            store.close()

    positions = range(1, poly.n_points - 2)
    require(set(cells) == {(s, i) for s in "bc" for i in positions},
            "table incomplete")
    fields = {}
    for strand in "bc":
        row = [cells[(strand, i)] for i in positions]
        fields[strand] = [v for v, _, _ in row]
        fields[f"{strand}_provenance"] = [t for _, t, _ in row]
        fields[f"{strand}_rigorous"] = [r for _, _, r in row]
    table = BettiTable(n=poly.n_points, prime=prime, bigraded=bigraded,
                       **fields)
    _validate_table(poly, table)
    return table


def block_dimensions(poly: LatticePolygon, strand: str, ell: int,
                     options: EngineOptions | None = None) -> list[tuple]:
    """(bidegree, rows, cols) over the whole middle region, zero blocks
    included, without building a single matrix."""
    options = options or EngineOptions()
    plan_b, plan_c = effective_plans(poly, options)
    spec = _production_spec(poly, strand, ell,
                            plan_b if strand == "b" else plan_c)
    cols_prof = middle_profile(spec)
    rows_prof = target_profile(spec.right)
    return [(ab, rows_prof.get(ab, 0), cols_prof.get(ab, 0))
            for ab in enumerate_bidegrees(spec)]


def _resolve_entry_b(poly: LatticePolygon, ell: int, prime: PrimeModulus,
                     options: EngineOptions) -> tuple[int, bool]:
    """One row-one entry by the route the planner picks for its
    antidiagonal, without planning the others."""
    if not interior_hull(poly).points:
        table = eagon_northcott_table(poly, prime)
        return table.b_entry(ell), table.b_rigorous[ell - 1]
    presets = _presets(poly)
    plans = effective_plans(poly, options)
    choice, _ = _choose_side(poly, ell, *presets, plans)
    entries, _ = _resolve_antidiagonal(poly, ell, choice, prime, presets,
                                       plans, options)
    value, _, rigorous = entries[("b", ell)]
    return value, rigorous


@dataclass
class Kp1Report:
    """Outcome of probing the predicted first vanishing of row one."""

    n: int
    lattice_width: int
    exceptional: bool
    predicted_from_right: int
    first_zero_index: int
    entries: dict[int, tuple[int, bool]]
    verdict: str
    notes: tuple[str, ...]


def verify_kp1(poly: LatticePolygon, prime: PrimeModulus | int = 40009,
               options: EngineOptions | None = None) -> Kp1Report:
    """Compute just the row-one entries around the predicted first zero
    and compare.

    The scroll bound guarantees nonzero entries up to it; the first
    zero beyond is conjectural.  A computed zero is exact, so "holds"
    is rigorous; a nonzero at the predicted spot is only a mod-p
    statement, reported as such; "fails" would mean a guaranteed
    nonzero entry vanished, which is impossible unless something is
    broken.
    """
    if isinstance(prime, int):
        prime = PrimeModulus(prime)
    options = options or EngineOptions()
    n = poly.n_points
    width = n - 3
    predicted = kp1_predicted_first_zero(poly)       # counted from the right
    guaranteed = scroll_strand_lower_bound(poly)     # last certain nonzero
    w = lattice_width(poly)[0]
    exceptional = guaranteed == n - w - 1
    first_zero = n + 1 - predicted
    targets = [t for t in (n - w - 2, n - w - 1, n - w)
               if 1 <= t <= width and t <= first_zero]
    with worker_pool(options.budget):
        entries = {t: _resolve_entry_b(poly, t, prime, options)
                   for t in targets}
    notes = []
    verdict = "holds"
    for t in targets:
        val, _ = entries[t]
        if t <= guaranteed and val == 0:
            verdict = "fails"
            notes.append(f"guaranteed nonzero entry {t} computed as zero")
    if verdict != "fails":
        if first_zero > width:
            notes.append("predicted first zero beyond the table edge")
        else:
            val, _ = entries[first_zero]
            if val != 0:
                verdict = "modular-only-nonzero"
                notes.append(
                    f"entry {first_zero} is {val} mod {prime.p}; "
                    f"a zero in characteristic zero is not excluded")
    return Kp1Report(n, w, exceptional, predicted, first_zero,
                     entries, verdict, tuple(notes))


def audit_duality(poly: LatticePolygon, prime: PrimeModulus,
                  direct: dict[tuple[str, int], EntryOutcome],
                  budget: ComputeBudget | None = None) -> list[str]:
    """Row one recomputed through the interior-twisted mirror complex
    must agree with the direct route, given as _direct_entries."""
    issues = []
    for ell in range(1, poly.n_points - 2):
        mirror = spec_cohomology(poly, twisted_quadratic_spec(poly, ell),
                                 prime, budget=budget)
        value = direct[("b", ell)].value
        if value != mirror.value:
            issues.append(f"row-one entry {ell}: direct {value} vs "
                          f"mirror {mirror.value}")
    return issues


def audit_quotient(poly: LatticePolygon, prime: PrimeModulus,
                   table: BettiTable,
                   options: EngineOptions | None = None) -> list[str]:
    """Support removal must not change a single table value: the table,
    computed under options, must match the table with removal switched
    the other way."""
    base = options or EngineOptions()
    removed = _removes_support(poly, base)
    other = betti_table(poly, prime, EngineOptions(
        removal="off" if removed else "on", use_symmetry=base.use_symmetry,
        budget=base.budget))
    t_on, t_off = (table, other) if removed else (other, table)
    issues = []
    if t_on.b != t_off.b:
        issues.append(f"row one differs: {t_on.b} vs {t_off.b}")
    if t_on.c != t_off.c:
        issues.append(f"row two differs: {t_on.c} vs {t_off.c}")
    return issues


def audit_symmetry(poly: LatticePolygon, prime: PrimeModulus,
                   direct: dict[tuple[str, int], EntryOutcome],
                   options: EngineOptions | None = None) -> list[str]:
    """Orbit-reduced and full-bidegree computations must agree entry by
    entry, including the bigraded breakdown.  Where a strand removes no
    points, the orbit-reduced entry is the one in direct
    (_direct_entries)."""
    options = options or EngineOptions()
    plan_b, plan_c = effective_plans(poly, options)
    issues = []
    for strand, plan in (("b", plan_b), ("c", plan_c)):
        if strand == "c" and not interior_hull(poly).points:
            continue
        for ell in range(1, poly.n_points - 2):
            fast = direct[(strand, ell)] if plan == EMPTY_PLAN else \
                strand_value(poly, strand, ell, prime, plan,
                             use_symmetry=True, budget=options.budget)
            slow = strand_value(poly, strand, ell, prime, plan,
                                use_symmetry=False, budget=options.budget)
            if fast.value != slow.value or fast.bigraded != slow.bigraded:
                issues.append(f"strand {strand} entry {ell}: reduced "
                              f"{fast.value} vs full {slow.value}")
    return issues


def _direct_entries(poly: LatticePolygon, prime: PrimeModulus,
                    budget: ComputeBudget | None = None
                    ) -> dict[tuple[str, int], EntryOutcome]:
    """Every entry of both rows computed directly, with no shortcut and
    no support removal, keyed (strand, position)."""
    return {(strand, pos): compute(poly, pos, prime, budget=budget)
            for pos in range(1, poly.n_points - 2)
            for strand, compute in (("b", compute_b), ("c", compute_c))}


def audit_shortcuts(poly: LatticePolygon, table: BettiTable,
                    direct: dict[tuple[str, int], EntryOutcome]
                    ) -> list[str]:
    """Compare every entry the table got for free with its direct
    recomputation (_direct_entries); the shortcuts must be falsifiable,
    not baked in.  The direct bigraded breakdowns must also keep every
    nonzero bidegree inside its support window, and on each
    antidiagonal b_ell(ab) - c_(n-1-ell)(sigma - ab) must equal the
    bidegree slice of the Euler characteristic."""
    n = poly.n_points
    issues = []
    for (strand, pos), out in direct.items():
        row = "row one" if strand == "b" else "row two"
        have = getattr(table, f"{strand}_entry")(pos)
        if out.value != have:
            tag = getattr(table, f"{strand}_provenance")[pos - 1]
            issues.append(f"{row} {pos}: table {have} vs recomputed "
                          f"{out.value} ({tag})")
        window = (support_window(poly, pos, 1, twisted=False)
                  if strand == "b" else
                  support_window(poly, pos - 1, 1, twisted=True))
        for ab in sorted(set(out.bigraded) - window, key=order_key):
            issues.append(f"{row} {pos}: bidegree {ab} outside its "
                          f"support window")
    bigraded = {key: out.bigraded for key, out in direct.items()}
    sx, sy = sigma_point(poly)
    for ell in range(1, n - 1):
        b_map = bigraded.get(("b", ell), {})
        c_map = bigraded.get(("c", n - 1 - ell), {})
        expected = antidiagonal_difference_bigraded(poly, ell)
        keys = (set(expected) | set(b_map)
                | {(sx - a, sy - b) for a, b in c_map})
        for ab in sorted(keys, key=order_key):
            diff = b_map.get(ab, 0) - c_map.get((sx - ab[0], sy - ab[1]), 0)
            if diff != expected.get(ab, 0):
                issues.append(f"antidiagonal {ell} at {ab}: b - c = {diff}, "
                              f"Euler characteristic {expected.get(ab, 0)}")
    return issues


def audit_prune(poly: LatticePolygon, prime: PrimeModulus, table: BettiTable,
                options: EngineOptions) -> list[str]:
    """Dropping a vertex can only push row-one vanishing outward: a
    zero of the pruned polygon at p forces b_(p+1) = 0 upstairs."""
    # a checkpoint log belongs to poly; the pruned tables must not touch it
    plain = replace(options, checkpoint=None)
    issues = []
    for v in poly.vertices:
        try:
            pruned = prune_vertex(poly, v)
        except DimensionError:
            continue
        small = betti_table(pruned, prime, plain)
        for p in range(1, pruned.n_points - 2):
            if small.b_entry(p) == 0 and table.b_entry(p + 1) != 0:
                issues.append(f"pruning {v} zeroes row one at {p} but "
                              f"b_{p + 1} = {table.b_entry(p + 1)}")
    return issues


def run_audits(poly: LatticePolygon, prime: PrimeModulus | int = 40009,
               options: EngineOptions | None = None,
               table: BettiTable | None = None) -> list[str]:
    """All size-gated consistency audits; an empty list is a pass.
    table, if given, is poly's table already computed under options."""
    if isinstance(prime, int):
        prime = PrimeModulus(prime)
    options = options or EngineOptions()
    n = poly.n_points
    with worker_pool(options.budget):
        if table is None:
            table = betti_table(poly, prime, options)
        direct = _direct_entries(poly, prime, options.budget)
        issues = audit_shortcuts(poly, table, direct)
        if n <= 9:
            issues += audit_quotient(poly, prime, table, options)
        if n <= 8:
            issues += audit_duality(poly, prime, direct, options.budget)
            issues += audit_symmetry(poly, prime, direct, options)
            issues += audit_prune(poly, prime, table, options)
        if n <= 7:
            from .oracle import oracle_betti
            ref = oracle_betti(poly, prime)
            if table.b != ref.b or table.c != ref.c:
                issues.append(f"brute-force disagreement: "
                              f"{table.b}/{table.c} vs {ref.b}/{ref.c}")
        return issues
