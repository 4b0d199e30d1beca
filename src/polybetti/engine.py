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
from dataclasses import dataclass, field

from .closed_forms import (antidiagonal_difference, eagon_northcott_table,
                           hering_schenck_zero_region,
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
from .polygon import (LatticePolygon, Point, canonical_form, interior_hull,
                      lattice_width, order_key, prune_vertex, sigma_point,
                      symmetry_group)
from .table import BettiTable


class BlockFailed(ResourceExceeded):
    """The rank job of one block of a strand entry failed; names the
    block's bidegree."""

    def __init__(self, message: str, bidegree: Point):
        super().__init__(message)
        self.bidegree = bidegree


class TableAborted(ResourceExceeded):
    """A rank job blew the budget or lost its worker; carries whatever
    was finished and the bidegree of the block that failed."""

    def __init__(self, message: str, strand: str, ell: int, bidegree: Point,
                 partial_b: dict, partial_c: dict, checkpoint: str | None):
        super().__init__(message)
        self.strand = strand
        self.ell = ell
        self.bidegree = bidegree
        self.partial_b = partial_b
        self.partial_c = partial_c
        self.checkpoint = checkpoint


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


def _middle_orbits(poly: LatticePolygon, spec: ComplexSpec,
                   plan: RemovalPlan, use_symmetry: bool
                   ) -> tuple[dict[Point, int], list[tuple[Point, tuple]]]:
    """The middle profile of spec and its nonzero bidegrees, folded into
    symmetry orbits as (representative, members), or one orbit each
    when symmetry is off."""
    profile = middle_profile(spec)
    bidegs = [ab for ab in sorted(profile, key=order_key) if profile[ab] > 0]
    if not use_symmetry:
        return profile, [(ab, (ab,)) for ab in bidegs]
    actions = _bidegree_actions(poly, plan, spec.translate_degree)
    return profile, _orbit_partition(bidegs, actions)


@dataclass(frozen=True)
class BlockTask:
    """One bidegree block of a coboundary, described by its spec and by
    its sizes as the generating functions predict them.

    Whoever ranks the block builds it, a pool worker included, so the
    parent neither holds nor pickles the matrices; the memory cap is
    checked against the predicted sizes before the block exists.
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


def strand_value(poly: LatticePolygon, strand: str, ell: int,
                 prime: PrimeModulus, plan: RemovalPlan = EMPTY_PLAN, *,
                 use_symmetry: bool = True,
                 budget: ComputeBudget | None = None,
                 store: AppendLog | None = None) -> EntryOutcome:
    """One strand entry as a sum of per-bidegree kernel dimensions.

    Row one subtracts the wedge-space dimension of the injective
    incoming map instead of its rank; row two has no incoming term at
    all.  Only the outgoing coboundary is ever reduced.  Finished blocks
    are looked up in and appended to store, keyed by _block_key.
    """
    spec = _production_spec(poly, strand, ell, plan)
    profile, parts = _middle_orbits(poly, spec, plan, use_symmetry)
    rows = target_profile(spec.right)
    left_prof = side_profile(spec.left) if strand == "b" else {}
    if strand == "c":
        require(not side_profile(spec.left),
                "twisted degree-0 term not empty")

    done: list[tuple[Point, tuple, int, int]] = []   # rep, members, cols, rank
    todo: list[tuple[Point, tuple, int, BlockTask]] = []
    for rep, members in parts:
        cols = profile[rep]
        cached = store.records.get((strand, ell, rep)) if store else None
        if cached is not None:
            if cached["orbit_size"] != len(members) or cached["cols"] != cols:
                raise ValueError(
                    f"checkpoint record for {strand}{ell} at {rep} does not "
                    f"match this run (size {cached['orbit_size']} vs "
                    f"{len(members)}, cols {cached['cols']} vs {cols})")
            done.append((rep, members, cols, cached["rank"]))
        else:
            todo.append((rep, members, cols, BlockTask(
                spec, rep, prime, "right", rows.get(rep, 0), cols)))

    outcomes = rank_batch([task for *_, task in todo], budget)
    for (rep, members, cols, _), out in zip(todo, outcomes):
        if not out.ok:
            raise BlockFailed(
                f"strand {strand} position {ell} bidegree {rep}: {out.error}",
                rep)
        if store:
            store.append({"strand": strand, "ell": ell, "bidegree": list(rep),
                          "orbit_size": len(members), "cols": cols,
                          "rank": out.rank})
        done.append((rep, members, cols, out.rank))

    value = 0
    bigraded: dict[Point, int] = {}
    blocks = []
    all_trivial = True
    for rep, members, cols, rk in sorted(done, key=lambda t: order_key(t[0])):
        block_val = cols - rk - left_prof.get(rep, 0)
        if block_val < 0:
            raise InvariantViolation(f"negative cohomology at {rep}: {cols} "
                                     f"- {rk} - {left_prof.get(rep, 0)}")
        value += len(members) * block_val
        if rk:
            all_trivial = False
        if block_val:
            for m in members:
                bigraded[m] = block_val
        blocks.append(BlockRecord(strand, ell, rep, len(members), cols, rk))
    return EntryOutcome(value, value == 0 or all_trivial, bigraded, blocks)


def spec_cohomology(poly: LatticePolygon, spec: ComplexSpec,
                    prime: PrimeModulus, *, use_symmetry: bool = True,
                    budget: ComputeBudget | None = None) -> EntryOutcome:
    """Middle cohomology of an arbitrary three-term complex, computing
    both coboundary ranks honestly (audit path, no shortcuts)."""
    if use_symmetry:
        require(spec.wedge_support == poly.points,
                "audit complexes run on unreduced supports")
    profile, parts = _middle_orbits(poly, spec, EMPTY_PLAN, use_symmetry)
    rows, left_cols = target_profile(spec.right), side_profile(spec.left)
    tasks: list[BlockTask] = []
    for rep, _ in parts:
        # the left map lands in the middle term: its rows are profile's
        tasks.append(BlockTask(spec, rep, prime, "right", rows.get(rep, 0),
                               profile[rep]))
        tasks.append(BlockTask(spec, rep, prime, "left", profile[rep],
                               left_cols.get(rep, 0)))
    outs = rank_batch(tasks, budget)
    value = 0
    bigraded: dict[Point, int] = {}
    blocks = []
    all_trivial = True
    for i, (rep, members) in enumerate(parts):
        right_out, left_out = outs[2 * i], outs[2 * i + 1]
        for out in (right_out, left_out):
            if not out.ok:
                raise ResourceExceeded(
                    f"audit complex at position {spec.ell} bidegree {rep}: "
                    f"{out.error}")
        cols = profile[rep]
        block_val = cols - right_out.rank - left_out.rank
        if block_val < 0:
            raise InvariantViolation(f"negative cohomology at {rep}")
        value += len(members) * block_val
        if right_out.rank or left_out.rank:
            all_trivial = False
        if block_val:
            for m in members:
                bigraded[m] = block_val
        blocks.append(BlockRecord("spec", spec.ell, rep, len(members), cols,
                                  right_out.rank))
    return EntryOutcome(value, value == 0 or all_trivial, bigraded, blocks)


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
    use_symmetry: bool
    estimates: dict[tuple[str, int], int]

    def __post_init__(self):
        require(set(self.choices) == set(range(1, self.n - 1)),
                "every antidiagonal needs a route")
        require(all(ch in ("compute_b", "compute_c", "shortcut")
                    for ch in self.choices.values()), "unknown route")


def effective_plans(poly: LatticePolygon,
                    options: EngineOptions) -> tuple[RemovalPlan, RemovalPlan]:
    """Removal plans for the two strands under the requested mode;
    "auto" switches removal on only for triangles, where it strips all
    three corners."""
    if options.removal == "off":
        return EMPTY_PLAN, EMPTY_PLAN
    if options.removal == "auto" and len(poly.vertices) != 3:
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
                        EMPTY_PLAN, EMPTY_PLAN, options.use_symmetry, {})
    plans = effective_plans(poly, options)
    b_preset, c_preset = _presets(poly)
    choices: dict[int, str] = {}
    estimates: dict[tuple[str, int], int] = {}
    for a in anti:
        choices[a], est = _choose_side(poly, a, b_preset, c_preset, plans)
        estimates.update(est)
    return Strategy(n, False, choices, b_preset, c_preset, *plans,
                    options.use_symmetry, estimates)


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

    n = poly.n_points
    width = n - 3
    # position -> (value, provenance tag, rigorous), one dict per row
    rows: dict[str, dict[int, tuple[int, str, bool]]] = {
        "b": {pos: (0, tag, True) for pos, tag in strategy.b_preset.items()},
        "c": {pos: (0, tag, True) for pos, tag in strategy.c_preset.items()}}
    bigraded: dict[tuple[str, int, Point], int] = {}

    def values(strand: str) -> dict[int, int]:
        return {pos: v for pos, (v, _, _) in rows[strand].items()}

    store = None
    if options.checkpoint:
        store = AppendLog(options.checkpoint, {
            "polygon": polygon_key(poly), "prime": prime.p,
            "options": options_key(prime, options)}, _block_key)
    try:
        with worker_pool(options.budget):
            for a, choice in sorted(strategy.choices.items()):
                if choice == "shortcut":
                    continue
                pb, pc = _antidiagonal(n, a)
                strand, pos, plan = (("b", pb, strategy.removal_b)
                                     if choice == "compute_b"
                                     else ("c", pc, strategy.removal_c))
                try:
                    out = strand_value(poly, strand, pos, prime, plan,
                                       use_symmetry=strategy.use_symmetry,
                                       budget=options.budget, store=store)
                except BlockFailed as exc:
                    raise TableAborted(
                        str(exc), strand, pos, exc.bidegree, values("b"),
                        values("c"), options.checkpoint) from exc
                rows[strand][pos] = (out.value, "computed", out.rigorous)
                if options.keep_bigraded:
                    for ab, v in out.bigraded.items():
                        bigraded[(strand, pos, ab)] = v
    finally:
        if store:
            store.close()

    # closure, one antidiagonal at a time: the missing side follows from
    # the difference b - c, and entries beyond the table edge are exact
    # zeros; entries cannot decrease modulo p, so a computed zero is
    # exact, and the difference is exact in every characteristic, so one
    # certified side certifies its partner
    edge = (0, "edge", True)
    for a in range(1, n - 1):
        pb, pc = _antidiagonal(n, a)
        b = edge if pb is None else rows["b"].get(pb)
        c = edge if pc is None else rows["c"].get(pc)
        diff = antidiagonal_difference(poly, a)
        if c is None:
            c = (b[0] - diff, "crossfilled", b[2])
        elif b is None:
            b = (c[0] + diff, "crossfilled", c[2])
        rig = b[2] or b[0] == 0 or c[2] or c[0] == 0
        if pb is not None:
            rows["b"][pb] = (b[0], b[1], rig)
        if pc is not None:
            rows["c"][pc] = (c[0], c[1], rig)

    positions = range(1, width + 1)
    require(set(rows["b"]) == set(positions), "row one incomplete")
    require(set(rows["c"]) == set(positions), "row two incomplete")
    b_row = [rows["b"][i] for i in positions]
    c_row = [rows["c"][i] for i in positions]
    table = BettiTable(
        n=n, prime=prime,
        b=[v for v, _, _ in b_row], c=[v for v, _, _ in c_row],
        b_provenance=[t for _, t, _ in b_row],
        c_provenance=[t for _, t, _ in c_row],
        b_rigorous=[r for _, _, r in b_row],
        c_rigorous=[r for _, _, r in c_row],
        bigraded=bigraded)
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
    n = poly.n_points
    if not (1 <= ell <= n - 3):
        return 0, True
    if not interior_hull(poly).points:
        return ell * math.comb(n - 2, ell + 1), True
    b_preset, c_preset = _presets(poly)
    if ell in b_preset:
        return 0, True
    plan_b, plan_c = effective_plans(poly, options)
    choice, _ = _choose_side(poly, ell, b_preset, c_preset, (plan_b, plan_c))
    diff = antidiagonal_difference(poly, ell)
    if choice == "shortcut":             # the row-two partner is a known zero
        return diff, True
    if choice == "compute_b":
        out = strand_value(poly, "b", ell, prime, plan_b,
                           use_symmetry=options.use_symmetry,
                           budget=options.budget)
        return out.value, out.rigorous
    out = strand_value(poly, "c", n - 1 - ell, prime, plan_c,
                       use_symmetry=options.use_symmetry,
                       budget=options.budget)
    val = out.value + diff
    return val, out.rigorous or val == 0


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


@dataclass
class PruneReport:
    """Zero propagation from a vertex-pruned polygon to the original."""

    vertex: Point
    checked: tuple[int, ...]
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_prune_monotonicity(poly: LatticePolygon, vertex: Point,
                              prime: PrimeModulus | int = 40009,
                              options: EngineOptions | None = None
                              ) -> PruneReport:
    """Dropping a vertex can only push row-one vanishing outward: a
    zero of the pruned polygon at p forces one at p + 1 upstairs."""
    if isinstance(prime, int):
        prime = PrimeModulus(prime)
    options = options or EngineOptions()
    pruned = prune_vertex(poly, vertex)
    with worker_pool(options.budget):
        small = betti_table(pruned, prime, options)
        big = betti_table(poly, prime, options)
    checked = []
    violations = []
    for p in range(1, poly.n_points - 3):
        if small.b_entry(p) == 0 and p >= 1:
            checked.append(p + 1)
            if big.b_entry(p + 1) != 0:
                violations.append((p + 1, big.b_entry(p + 1)))
    return PruneReport(vertex, tuple(checked), tuple(violations))


@dataclass
class SupportReport:
    """Bigraded sanity: support windows and the mirrored dual pairing."""

    window_violations: tuple
    duality_mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.window_violations and not self.duality_mismatches


def support_region_check(poly: LatticePolygon, table: BettiTable,
                         dual_bigraded: dict[int, dict[Point, int]]
                         | None = None) -> SupportReport:
    """Every nonzero bigraded entry must lie in the window cut out by
    the natural region and its point-sum mirror; when the twisted dual
    breakdown is supplied, mirrored entries must match exactly."""
    window_violations = []
    for (strand, ell, ab), val in sorted(table.bigraded.items()):
        if not val:
            continue
        if strand == "b":
            window = support_window(poly, ell, 1, twisted=False)
        else:
            window = support_window(poly, ell - 1, 1, twisted=True)
        if ab not in window:
            window_violations.append((strand, ell, ab, val))
    duality_mismatches = []
    if dual_bigraded:
        sig = sigma_point(poly)
        for ell, dual_map in sorted(dual_bigraded.items()):
            primal = {ab: v for (s, e, ab), v in table.bigraded.items()
                      if s == "b" and e == ell}
            keys = set(primal) | {(sig[0] - a, sig[1] - b)
                                  for a, b in dual_map}
            for ab in sorted(keys, key=order_key):
                mirrored = (sig[0] - ab[0], sig[1] - ab[1])
                lhs = primal.get(ab, 0)
                rhs = dual_map.get(mirrored, 0)
                if lhs != rhs:
                    duality_mismatches.append((ell, ab, lhs, rhs))
    return SupportReport(tuple(window_violations), tuple(duality_mismatches))


def audit_duality(poly: LatticePolygon, prime: PrimeModulus,
                  budget: ComputeBudget | None = None) -> list[str]:
    """Row one recomputed through the interior-twisted mirror complex
    must agree with the direct route."""
    issues = []
    for ell in range(1, poly.n_points - 2):
        direct = strand_value(poly, "b", ell, prime, EMPTY_PLAN,
                              budget=budget)
        mirror = spec_cohomology(poly, twisted_quadratic_spec(poly, ell),
                                 prime, budget=budget)
        if direct.value != mirror.value:
            issues.append(f"row-one entry {ell}: direct {direct.value} vs "
                          f"mirror {mirror.value}")
    return issues


def audit_quotient(poly: LatticePolygon, prime: PrimeModulus,
                   options: EngineOptions | None = None) -> list[str]:
    """Support removal must not change a single table value."""
    base = options or EngineOptions()
    on = EngineOptions(removal="on", use_symmetry=base.use_symmetry,
                       budget=base.budget)
    off = EngineOptions(removal="off", use_symmetry=base.use_symmetry,
                        budget=base.budget)
    t_on = betti_table(poly, prime, on)
    t_off = betti_table(poly, prime, off)
    issues = []
    if t_on.b != t_off.b:
        issues.append(f"row one differs: {t_on.b} vs {t_off.b}")
    if t_on.c != t_off.c:
        issues.append(f"row two differs: {t_on.c} vs {t_off.c}")
    return issues


def audit_symmetry(poly: LatticePolygon, prime: PrimeModulus,
                   options: EngineOptions | None = None) -> list[str]:
    """Orbit-reduced and full-bidegree computations must agree entry by
    entry, including the bigraded breakdown."""
    options = options or EngineOptions()
    plan_b, plan_c = effective_plans(poly, options)
    issues = []
    for strand, plan in (("b", plan_b), ("c", plan_c)):
        if strand == "c" and not interior_hull(poly).points:
            continue
        for ell in range(1, poly.n_points - 2):
            fast = strand_value(poly, strand, ell, prime, plan,
                                use_symmetry=True, budget=options.budget)
            slow = strand_value(poly, strand, ell, prime, plan,
                                use_symmetry=False, budget=options.budget)
            if fast.value != slow.value or fast.bigraded != slow.bigraded:
                issues.append(f"strand {strand} entry {ell}: reduced "
                              f"{fast.value} vs full {slow.value}")
    return issues


def audit_shortcuts(poly: LatticePolygon, prime: PrimeModulus,
                    options: EngineOptions | None = None) -> list[str]:
    """Recompute every entry the table got for free; the shortcuts must
    be falsifiable, not baked in."""
    options = options or EngineOptions()
    table = betti_table(poly, prime, options)
    issues = []
    for pos in range(1, poly.n_points - 2):
        b_direct = compute_b(poly, pos, prime, budget=options.budget)
        if b_direct.value != table.b_entry(pos):
            issues.append(f"row one {pos}: table {table.b_entry(pos)} vs "
                          f"recomputed {b_direct.value} "
                          f"({table.b_provenance[pos - 1]})")
        c_direct = compute_c(poly, pos, prime, budget=options.budget)
        if c_direct.value != table.c_entry(pos):
            issues.append(f"row two {pos}: table {table.c_entry(pos)} vs "
                          f"recomputed {c_direct.value} "
                          f"({table.c_provenance[pos - 1]})")
    return issues


def run_audits(poly: LatticePolygon, prime: PrimeModulus | int = 40009,
               options: EngineOptions | None = None) -> list[str]:
    """All size-gated consistency audits; an empty list is a pass."""
    if isinstance(prime, int):
        prime = PrimeModulus(prime)
    options = options or EngineOptions()
    n = poly.n_points
    with worker_pool(options.budget):
        issues = audit_shortcuts(poly, prime, options)
        if n <= 9:
            issues += audit_quotient(poly, prime, options)
        if n <= 8:
            issues += audit_duality(poly, prime, options.budget)
            issues += audit_symmetry(poly, prime, options)
        if n <= 7:
            from .oracle import oracle_betti
            mine = betti_table(poly, prime, options)
            ref = oracle_betti(poly, prime)
            if mine.b != ref.b or mine.c != ref.c:
                issues.append(f"brute-force disagreement: "
                              f"{mine.b}/{mine.c} vs {ref.b}/{ref.c}")
        return issues
