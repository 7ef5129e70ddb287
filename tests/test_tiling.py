"""Geometric validation on the exact product grid of cut lines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sqtile import (
    Generator,
    GeneratorTable,
    Placement,
    Tiling,
    is_square,
    parse_expr,
    validate,
)

from conftest import guillotine_tiling, tight_table


@pytest.fixture(scope="module")
def table():
    return tight_table(2, 3)


def fig4_tiling(table):
    e = lambda s: parse_expr(s, table)
    tiles = (
        Placement(e("0"), e("0"), e("1/3"), e("1*sqrt3")),
        Placement(e("1/3"), e("0"), e("2/3"), e("1*sqrt3")),
        Placement(e("0"), e("1*sqrt3"), e("1"), e("2 + 1*sqrt2 - 1*sqrt3")),
    )
    return Tiling(e("1"), e("2 + 1*sqrt2"), tiles, table)


def test_validate_fig4_valid(table):
    assert validate(fig4_tiling(table)).is_valid


def test_validate_moved_tile_overlaps(table):
    e = lambda s: parse_expr(s, table)
    t = fig4_tiling(table)
    moved = Placement(e("0"), e("0"), t.tiles[1].w, t.tiles[1].h)
    corrupted = Tiling(t.outer_w, t.outer_h, (t.tiles[0], moved, t.tiles[2]), table)
    report = validate(corrupted)
    assert not report.is_valid
    overlaps = [f for f in report.failures if f.kind == "overlap"]
    assert any(f.cell == (0, 0) and set(f.tiles) == {0, 1} for f in overlaps)
    gaps = [f for f in report.failures if f.kind == "gap"]
    assert gaps  # the vacated region is uncovered


def test_validate_gap(table):
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("2"), (Placement(e("0"), e("0"), e("1"), e("1")),), table)
    report = validate(t)
    assert not report.is_valid
    assert [f.kind for f in report.failures] == ["gap"]


def test_validate_out_of_bounds(table):
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("1"), (Placement(e("1/2"), e("0"), e("1"), e("1")),), table)
    report = validate(t)
    assert any(f.kind == "out_of_bounds" and f.tiles == (0,) for f in report.failures)


def test_validate_nonpositive_side(table):
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("1"), (Placement(e("0"), e("0"), e("0"), e("1")),), table)
    report = validate(t)
    assert any(f.kind == "nonpositive_side" and f.tiles == (0,) for f in report.failures)


def test_validate_ambiguous_surfaces_in_report():
    table = GeneratorTable([Generator("g", Fraction(9, 10), Fraction(11, 10))])
    e = lambda s: parse_expr(s, table)
    t = Tiling(
        e("2"),
        e("1"),
        (
            Placement(e("0"), e("0"), e("1*g"), e("1")),
            Placement(e("1"), e("0"), e("2 - 1*g"), e("1")),
        ),
        table,
    )
    report = validate(t)
    assert report.is_ambiguous and not report.is_valid


def test_is_square(table):
    e = lambda s: parse_expr(s, table)
    assert is_square(Placement(e("0"), e("0"), e("2/3"), e("2/3")))
    assert not is_square(Placement(e("0"), e("0"), e("1"), e("1*sqrt2")))
    assert is_square(Placement(e("0"), e("0"), e("1 + 1*sqrt2"), e("1 + 1*sqrt2")))


def test_empty_tiling_rejected(table):
    e = lambda s: parse_expr(s, table)
    with pytest.raises(ValueError):
        Tiling(e("1"), e("1"), (), table)


def test_fig4_grid_cells_validate(table):
    e = lambda s: parse_expr(s, table)
    t = fig4_tiling(table)
    x_cuts = (e("0"), e("1/3"), e("1"))
    y_cuts = (e("0"), e("1*sqrt3"), e("2 + 1*sqrt2"))
    cells = tuple(
        Placement(x_cuts[i], y_cuts[j], x_cuts[i + 1] - x_cuts[i], y_cuts[j + 1] - y_cuts[j])
        for i in range(2)
        for j in range(2)
    )
    assert validate(Tiling(t.outer_w, t.outer_h, cells, table)).is_valid
    # dropping cell (1, 1) leaves a gap at that cell of the same grid
    report = validate(Tiling(t.outer_w, t.outer_h, cells[:3], table))
    assert [(f.kind, f.cell) for f in report.failures] == [("gap", (1, 1))]
    assert report.failures[0].witness == {"cell_x": x_cuts[1], "cell_y": y_cuts[1]}
    # Fig. 4's wide top tile covers exactly the two top cells
    report = validate(Tiling(t.outer_w, t.outer_h, cells + t.tiles[2:], table))
    assert [(f.kind, f.cell, f.tiles) for f in report.failures] == [
        ("overlap", (0, 1), (1, 4)),
        ("overlap", (1, 1), (3, 4)),
    ]


def test_guillotine_tilings_validate_and_mutations_fail(table):
    e = lambda s: parse_expr(s, table)
    rng = random.Random(9)
    for _ in range(25):
        t = guillotine_tiling(rng, e("2"), e("1 + 1*sqrt2"), depth=5)
        assert validate(t).is_valid
        if len(t.tiles) > 1:
            k = rng.randrange(len(t.tiles))
            without = Tiling(t.outer_w, t.outer_h, t.tiles[:k] + t.tiles[k + 1 :], table)
            rep = validate(without)
            assert not rep.is_valid
            assert any(f.kind == "gap" for f in rep.failures)
        duplicated = Tiling(t.outer_w, t.outer_h, t.tiles + (t.tiles[0],), table)
        rep = validate(duplicated)
        assert not rep.is_valid
        assert any(f.kind == "overlap" for f in rep.failures)
