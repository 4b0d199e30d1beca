"""Output checks for the benchmark, written without the package's own
invariant code: the ``assert``s in ``src/`` vanish under ``python -O``,
and a check that reuses the code under test proves little.

Lattice-point counts come from the vertices alone, by the shoelace
formula, edge gcds and Pick's theorem.  Each check returns a list of
problems; an empty list is a pass.
"""
from __future__ import annotations

from math import comb, gcd


def lattice_counts(vertices) -> tuple[int, int, int, int]:
    """(points, boundary points, interior points, twice the area)."""
    k = len(vertices)
    area2 = abs(sum(vertices[i][0] * vertices[(i + 1) % k][1]
                    - vertices[(i + 1) % k][0] * vertices[i][1]
                    for i in range(k)))
    boundary = sum(gcd(abs(vertices[(i + 1) % k][0] - vertices[i][0]),
                       abs(vertices[(i + 1) % k][1] - vertices[i][1]))
                   for i in range(k))
    interior = (area2 - boundary + 2) // 2
    return interior + boundary, boundary, interior, area2


def antidiagonal(n: int, area2: int, ell: int) -> int:
    """b_ell - c_(n-1-ell), from the Euler characteristic of the strand."""
    return ell * comb(n - 1, ell + 1) - comb(n - 3, ell - 1) * area2


def table_invariants(vertices, b: list[int], c: list[int],
                     b_rig: list[bool], c_rig: list[bool]) -> list[str]:
    """Closed-form invariants every Betti table satisfies: the
    antidiagonal identity, b_1, c_1, the boundary-count tail of row two,
    and the Eagon-Northcott row one of an interior-free polygon."""
    n, boundary, n_int, area2 = lattice_counts(vertices)
    width = n - 3
    problems = []
    if len(b) != max(width, 0) or len(c) != max(width, 0):
        return [f"table width {len(b)}/{len(c)}, expected {width}"]

    def b_at(i):
        return b[i - 1] if 1 <= i <= width else 0

    def c_at(i):
        return c[i - 1] if 1 <= i <= width else 0

    if any(v < 0 for v in b + c):
        problems.append("negative entry")
    for ell in range(1, n - 1):
        if b_at(ell) - c_at(n - 1 - ell) != antidiagonal(n, area2, ell):
            problems.append(f"antidiagonal identity fails at {ell}")
    if width >= 1:
        if b_at(1) != comb(n - 1, 2) - area2:
            problems.append(f"b_1 = {b_at(1)}, expected "
                            f"{comb(n - 1, 2) - area2}")
        if c_at(1) != n_int:
            problems.append(f"c_1 = {c_at(1)}, expected {n_int}")
    if n_int:
        # row two is nonzero exactly up to the interior count
        if n_int <= width and c_at(n_int) == 0:
            problems.append(f"c_{n_int} vanishes below the boundary count")
        for j in range(n_int + 1, width + 1):
            if c_at(j):
                problems.append(f"c_{j} = {c_at(j)} in the zero tail")
    else:
        for ell in range(1, width + 1):
            if b_at(ell) != ell * comb(n - 2, ell + 1):
                problems.append(f"b_{ell} off the Eagon-Northcott value")
    for row, vals, rig in (("b", b, b_rig), ("c", c, c_rig)):
        for i, (v, r) in enumerate(zip(vals, rig), start=1):
            if v == 0 and not r:
                problems.append(f"{row}_{i} is a zero marked uncertified")
    return problems


def kp1_invariants(vertices, report) -> list[str]:
    """Consistency of a first-zero probe: exact zeros, no impossible
    verdict, the verdict matching the probed entries, and the probed
    entries that closed forms pin down."""
    n, boundary, n_int, area2 = lattice_counts(vertices)
    width = n - 3
    problems = []
    if report.n != n:
        problems.append(f"report has n = {report.n}, expected {n}")
    if report.verdict not in ("holds", "modular-only-nonzero"):
        problems.append(f"verdict {report.verdict}: {report.notes}")
    for t, (val, exact) in sorted(report.entries.items()):
        if not 1 <= t <= width:
            problems.append(f"probe {t} outside the table")
            continue
        if val < 0 or (val == 0 and not exact):
            problems.append(f"b_{t} = {val} with exact = {exact}")
        if t == 1 and val != comb(n - 1, 2) - area2:
            problems.append(f"b_1 = {val}, expected "
                            f"{comb(n - 1, 2) - area2}")
        if not n_int:
            expected = t * comb(n - 2, t + 1)
        elif t == width:
            expected = 0
        elif n - 1 - t > width or n - 1 - t >= n + 1 - boundary:
            expected = antidiagonal(n, area2, t)
        else:
            continue
        if val != expected:
            problems.append(f"b_{t} = {val}, closed form gives {expected}")
    fz = report.first_zero_index
    if report.verdict == "modular-only-nonzero" and not (
            fz <= width and report.entries.get(fz, (0, True))[0] != 0):
        problems.append("modular-only verdict without a nonzero probe")
    if report.verdict == "holds" and fz <= width and \
            report.entries.get(fz, (0, True))[0] != 0:
        problems.append(f"verdict holds but b_{fz} is nonzero")
    return problems


def compare_table(ref: dict, got: dict) -> list[str]:
    """Field-by-field comparison with a frozen table."""
    return [f"{key}: {got.get(key)} != frozen {ref[key]}"
            for key in sorted(ref) if got.get(key) != ref[key]]
