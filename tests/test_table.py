"""ASCII and JSON table rendering."""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polybetti.linalg import PrimeModulus
from polybetti.table import (PROVENANCE_TAGS, BettiTable, render_ascii,
                             to_json_dict)

PRIME = PrimeModulus(40009)
TAGS = sorted(PROVENANCE_TAGS)


@st.composite
def tables(draw):
    n = draw(st.integers(3, 11))
    width = n - 3
    b = draw(st.lists(st.integers(0, 99999), min_size=width, max_size=width))
    c = draw(st.lists(st.integers(0, 99999), min_size=width, max_size=width))
    rig = st.lists(st.booleans(), min_size=width, max_size=width)
    # a computed zero is exact in every characteristic, so the engine
    # never emits a non-rigorous zero; mirror that here
    b_rig = [r or v == 0 for r, v in zip(draw(rig), b)]
    c_rig = [r or v == 0 for r, v in zip(draw(rig), c)]
    tags = st.lists(st.sampled_from(TAGS), min_size=width, max_size=width)
    bigraded = {}
    if draw(st.booleans()) and width:
        for _ in range(draw(st.integers(1, 4))):
            key = (draw(st.sampled_from("bc")), draw(st.integers(1, width)),
                   (draw(st.integers(-3, 9)), draw(st.integers(-3, 9))))
            bigraded[key] = draw(st.integers(0, 50))
    return BettiTable(n=n, b=b, c=c, prime=PRIME,
                      b_provenance=draw(tags), c_provenance=draw(tags),
                      b_rigorous=b_rig, c_rigorous=c_rig, bigraded=bigraded)


def _cells(values, rigorous):
    return [f"{v}*" if v and not r else str(v)
            for v, r in zip(values, rigorous)]


@given(tables())
def test_ascii_round_trip(table):
    """Row one prints b1..b(n-3) after its leading zero, row two prints
    c(n-3)..c1; a star marks exactly the nonzero modular entries."""
    lines = render_ascii(table).splitlines()
    assert lines[2].split()[2:] == _cells(table.b, table.b_rigorous)
    assert lines[3].split()[2:] == _cells(table.c, table.c_rigorous)[::-1]
    stars = sum(cell.endswith("*") for line in lines for cell in line.split())
    assert stars == sum(v != 0 and not r for v, r in zip(
        table.b + table.c, table.b_rigorous + table.c_rigorous))


@given(tables())
def test_json_round_trip(table):
    """The JSON text carries the prime, both rows, their tags and rigor
    flags, and every bigraded entry."""
    data = json.loads(json.dumps(to_json_dict(table)))
    assert data["prime"] == table.prime.p
    for key in ("n", "b", "c", "b_provenance", "c_provenance",
                "b_rigorous", "c_rigorous"):
        assert data[key] == getattr(table, key)
    assert {(e["strand"], e["position"], tuple(e["bidegree"])): e["value"]
            for e in data.get("bigraded", [])} == table.bigraded


@given(tables())
def test_ascii_layout_shape(table):
    lines = render_ascii(table).splitlines()
    assert len(lines) == 4
    header = lines[0].split()
    assert header == [str(p) for p in range(table.n - 2)]
    assert lines[1].split() == ["0", "1"] + ["0"] * (table.n - 3)
    assert lines[2].split()[0] == "1" and lines[3].split()[0] == "2"


def test_star_marks_exactly_the_modular_entries():
    table = BettiTable(
        n=6, b=[4, 0, 7], c=[0, 2, 9], prime=PRIME,
        b_provenance=["computed"] * 3, c_provenance=["computed"] * 3,
        b_rigorous=[False, True, True], c_rigorous=[True, False, True])
    text = render_ascii(table)
    lines = text.splitlines()
    # row one prints b1 b2 b3 left to right; only b1 is modular
    assert lines[2].split() == ["1", "0", "4*", "0", "7"]
    # row two prints c3 c2 c1 left to right; only c2 is modular
    assert lines[3].split() == ["2", "0", "9", "2*", "0"]


def test_reversed_quadratic_row_layout():
    table = BettiTable(
        n=7, b=[1, 2, 3, 4], c=[10, 20, 30, 40], prime=PRIME,
        b_provenance=["computed"] * 4, c_provenance=["computed"] * 4,
        b_rigorous=[True] * 4, c_rigorous=[True] * 4)
    lines = render_ascii(table).splitlines()
    assert lines[2].split() == ["1", "0", "1", "2", "3", "4"]
    assert lines[3].split() == ["2", "0", "40", "30", "20", "10"]


def test_corner_only_table():
    table = BettiTable(n=3, b=[], c=[], prime=PRIME, b_provenance=[],
                       c_provenance=[], b_rigorous=[], c_rigorous=[])
    text = render_ascii(table)
    assert text.split() == ["0", "0", "1", "1", "0", "2", "0"]


def test_out_of_range_entry_reads_as_zero():
    table = BettiTable(n=6, b=[6, 8, 3], c=[0, 0, 0], prime=PRIME,
                       b_provenance=["computed"] * 3,
                       c_provenance=["computed"] * 3,
                       b_rigorous=[True] * 3, c_rigorous=[True] * 3)
    assert table.b_entry(2) == 8
    assert table.b_entry(0) == 0
    assert table.b_entry(4) == 0
    assert table.c_entry(-1) == 0
    assert table.c_entry(17) == 0


def test_construction_validation():
    kw = dict(prime=PRIME, b_provenance=["computed"] * 3,
              c_provenance=["computed"] * 3,
              b_rigorous=[True] * 3, c_rigorous=[True] * 3)
    with pytest.raises(ValueError):
        BettiTable(n=6, b=[1, 2], c=[0, 0, 0], **kw)
    with pytest.raises(ValueError):
        BettiTable(n=6, b=[1, 2, -3], c=[0, 0, 0], **kw)
    with pytest.raises(ValueError):
        BettiTable(n=6, b=[1, 2, 3], c=[0, 0, 0], prime=PRIME,
                   b_provenance=["guesswork"] * 3,
                   c_provenance=["computed"] * 3,
                   b_rigorous=[True] * 3, c_rigorous=[True] * 3)


def test_provenance_vocabulary_is_frozen():
    assert PROVENANCE_TAGS == {"computed", "crossfilled", "zero_by_shape",
                               "zero_by_boundary_count", "zero_by_interior",
                               "eagon_northcott"}


def test_bigraded_json_entries_are_explicit():
    table = BettiTable(
        n=6, b=[6, 8, 3], c=[0, 0, 0], prime=PRIME,
        b_provenance=["computed"] * 3, c_provenance=["computed"] * 3,
        b_rigorous=[True] * 3, c_rigorous=[True] * 3,
        bigraded={("b", 1, (2, 1)): 4, ("b", 1, (1, 2)): 2})
    data = to_json_dict(table)
    assert data["bigraded"] == [
        {"strand": "b", "position": 1, "bidegree": [1, 2], "value": 2},
        {"strand": "b", "position": 1, "bidegree": [2, 1], "value": 4}]
