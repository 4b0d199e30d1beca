"""Graded Betti table container plus ASCII and JSON rendering.

Layout: three printed rows.  Row 0 is the lone corner 1; row 1 column p
holds the linear-strand entry at p; row 2 column p holds the quadratic
entry indexed n - 2 - p, so that strand reads right-to-left.  Zeros are
printed explicitly and a trailing asterisk marks a nonzero entry that
is only known modulo the working prime.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import PrimeModulus
from .polygon import Point

PROVENANCE_TAGS = frozenset({
    "computed", "crossfilled", "zero_by_shape", "zero_by_boundary_count",
    "zero_by_interior", "eagon_northcott",
})


@dataclass
class BettiTable:
    """Both strands of the graded Betti table of one polygon.

    ``b`` and ``c`` are indexed 1..n-3 (stored 0-based).  Every entry
    carries a provenance tag and a rigor flag: rigorous entries hold in
    any characteristic, the rest only modulo ``prime``.
    """

    n: int
    b: list[int]
    c: list[int]
    prime: PrimeModulus
    b_provenance: list[str]
    c_provenance: list[str]
    b_rigorous: list[bool]
    c_rigorous: list[bool]
    bigraded: dict[tuple[str, int, Point], int] = field(default_factory=dict)

    def __post_init__(self):
        width = max(self.n - 3, 0)
        for name in ("b", "c", "b_provenance", "c_provenance",
                     "b_rigorous", "c_rigorous"):
            if len(getattr(self, name)) != width:
                raise ValueError(f"{name} must have length {width}")
        for tag in self.b_provenance + self.c_provenance:
            if tag not in PROVENANCE_TAGS:
                raise ValueError(f"unknown provenance tag {tag!r}")
        if any(v < 0 for v in self.b + self.c):
            raise ValueError("betti numbers are nonnegative")

    def b_entry(self, ell: int) -> int:
        """Linear-strand entry, reading out-of-range positions as 0."""
        return self.b[ell - 1] if 1 <= ell <= self.n - 3 else 0

    def c_entry(self, ell: int) -> int:
        return self.c[ell - 1] if 1 <= ell <= self.n - 3 else 0


def _star(value: int, rigorous: bool) -> str:
    return f"{value}*" if value and not rigorous else str(value)


def render_ascii(table: BettiTable) -> str:
    n = table.n
    width = n - 2  # printed columns 0..n-3
    row0 = ["1"] + ["0"] * (width - 1)
    row1 = ["0"] + [_star(table.b[p - 1], table.b_rigorous[p - 1])
                    for p in range(1, width)]
    # printed column p = 1..n-3 holds c at ell = n-2-p, from n-3 down to 1
    row2 = ["0"] + [_star(table.c[ell - 1], table.c_rigorous[ell - 1])
                    for ell in range(n - 3, 0, -1)]
    header = [str(p) for p in range(width)]
    cols = [header, row0, row1, row2]
    widths = [max(len(cols[r][p]) for r in range(4)) for p in range(width)]
    lines = []
    for label, row in zip(("", "0", "1", "2"), cols):
        cells = [row[p].rjust(widths[p]) for p in range(width)]
        lines.append(f"{label:>2}  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def to_json_dict(table: BettiTable) -> dict:
    out = {
        "n": table.n,
        "prime": table.prime.p,
        "b": list(table.b),
        "c": list(table.c),
        "b_provenance": list(table.b_provenance),
        "c_provenance": list(table.c_provenance),
        "b_rigorous": list(table.b_rigorous),
        "c_rigorous": list(table.c_rigorous),
    }
    if table.bigraded:
        out["bigraded"] = [
            {"strand": s, "position": ell, "bidegree": [a, b], "value": v}
            for (s, ell, (a, b)), v in sorted(table.bigraded.items())]
    return out
