"""Geometric validation on the exact product grid of cut lines."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from sqtile import (
    AmbiguousComparison,
    Generator,
    GeneratorTable,
    LinExpr,
    Placement,
    Tiling,
    build_tiling,
    is_square,
    parse_document,
    parse_expr,
    validate,
)

from conftest import guillotine_tiling, tight_table, workloads


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


def test_validate_ambiguous_raises():
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
    with pytest.raises(AmbiguousComparison, match=r"cannot order 2 against 3 - 1\*g"):
        validate(t)


def test_validate_side_ambiguity_names_the_edges():
    # tile 1's width 2 - g is not certified positive: the pair named is
    # its right and left edge, whose difference is that width
    table = GeneratorTable([Generator("g", Fraction(1, 2), Fraction(5, 2))])
    e = lambda s: parse_expr(s, table)
    t = Tiling(
        e("2"),
        e("1"),
        (
            Placement(e("0"), e("0"), e("1"), e("1")),
            Placement(e("1"), e("0"), e("2 - 1*g"), e("1")),
        ),
        table,
    )
    with pytest.raises(AmbiguousComparison, match=r"cannot order 3 - 1\*g against 1: "):
        validate(t)


def test_validate_evaluates_enclosures_of_cut_values_only(monkeypatch):
    """Tile sides are certified positive through their edges, so on a
    valid spiral every enclosure ``validate`` evaluates is that of an x or
    y cut value, never of a width or height that is no cut."""
    doc = workloads.log_cabin(random.Random(200), 200)
    _, t = build_tiling(parse_document(doc.data))
    zero = LinExpr.zero(t.table)
    cuts = {zero, t.outer_w, t.outer_h}
    for p in t.tiles:
        cuts.update((p.x, p.right, p.y, p.top))
    evaluated = []
    original = LinExpr.eval_interval

    def recording(self):
        evaluated.append(self)
        return original(self)

    monkeypatch.setattr(LinExpr, "eval_interval", recording)
    assert validate(t).is_valid
    assert evaluated and all(e in cuts for e in evaluated)
    sides = {p.w for p in t.tiles} | {p.h for p in t.tiles}
    assert sides - cuts  # the spiral has sides that are no cut value


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


@pytest.mark.parametrize("n", [200, 400, 800, 1600])
def test_validate_comparisons_are_n_log_n(monkeypatch, n):
    """``validate`` of an n-tile spiral makes at most 1.65 n log2 n
    certified comparisons and 0.145 n log2 n enclosure evaluations.  At
    n = 200, 400, 800 and 1,600 it makes 2,289, 4,941, 10,677 and 22,976
    comparisons (1.50 to 1.35 n log2 n) and n + 1 or n + 2 evaluations
    (0.13 to 0.094 n log2 n)."""
    doc = workloads.log_cabin(random.Random(n), n)
    _, t = build_tiling(parse_document(doc.data))
    counts = {"cmp": 0, "eval_interval": 0}
    cmp, eval_interval = LinExpr.cmp, LinExpr.eval_interval

    def counted_cmp(self, other):
        counts["cmp"] += 1
        return cmp(self, other)

    def counted_eval_interval(self):
        counts["eval_interval"] += 1
        return eval_interval(self)

    monkeypatch.setattr(LinExpr, "cmp", counted_cmp)
    monkeypatch.setattr(LinExpr, "eval_interval", counted_eval_interval)
    assert validate(t).is_valid
    n_log_n = n * math.log2(n)
    assert counts["cmp"] <= 1.65 * n_log_n
    assert counts["eval_interval"] <= 0.145 * n_log_n


def test_validate_memory_is_linear_in_tiles():
    """An 800-tile log-cabin spiral: no two cut lines align, so its refined
    grid has 160,400 cells.  One owner list per cell would need about
    16 MB, so the bound fails any validator whose memory grows with the
    cells; the sweep's O(n) integers stay under 1 MB."""
    doc = workloads.log_cabin(random.Random(800), 800)
    _, t = build_tiling(parse_document(doc.data))
    tracemalloc.start()
    try:
        report = validate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_valid
    assert peak < 4_000_000
