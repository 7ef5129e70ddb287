"""Geometric validation on the exact product grid of cut lines."""

from __future__ import annotations

import copy
import functools
import json
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from sqtile import (
    GREATER,
    LESS,
    AmbiguousComparison,
    Generator,
    GeneratorTable,
    LinExpr,
    Placement,
    Tiling,
    parse_expr,
    validate,
)

from sqtile.cli import build_tiling, parse_document
from sqtile.exactnum import MAX_GENERATORS, Value, certified_order

from conftest import BOUWKAMP_CODES, CONVERGENT_BRACKETS, bouwkamp_tiling, guillotine_tiling, tight_table, workloads
from test_validate_reference import reference_validate


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
    flat = Tiling(e("0"), e("1"), (Placement(e("0"), e("0"), e("1"), e("1")),), table)
    assert validate(flat).failures[0].witness == {"side": "outer_w", "value": e("0")}


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
    y cut value, never of a width or height that is no cut.  Every fill
    of the enclosure cache goes through ``LinExpr._bounds``."""
    doc = workloads.log_cabin(random.Random(200), 200)
    _, t = build_tiling(parse_document(doc.data))
    zero = LinExpr.zero(t.table)
    cuts = {zero, t.outer_w, t.outer_h}
    for p in t.tiles:
        cuts.update((p.x, p.x + p.w, p.y, p.y + p.h))
    evaluated = []
    original = LinExpr._bounds

    def recording(self):
        evaluated.append(self)
        return original(self)

    monkeypatch.setattr(LinExpr, "_bounds", recording)
    assert validate(t).is_valid
    assert evaluated and all(e in cuts for e in evaluated)
    sides = {p.w for p in t.tiles} | {p.h for p in t.tiles}
    assert sides - cuts  # the spiral has sides that are no cut value


def test_placement_keeps_the_value_contract(table):
    """``Placement`` has its own constructor, which writes its slots
    directly; it keeps what ``Value`` gives every record: equality by
    type and field, hash and repr, copy and pickle through the
    constructor, no writes, and the constructor's arity, by position or
    by keyword."""
    e = lambda s: parse_expr(s, table)
    x, y, w, h = e("0"), e("1/3"), e("1*sqrt2"), e("2 - 1*sqrt3")
    p = Placement(x, y, w, h)
    assert (p.x, p.y, p.w, p.h) == (x, y, w, h)
    assert Placement(h=h, w=w, y=y, x=x) == p
    same = Placement(e("0"), e("1/3"), e("1*sqrt2"), e("2 - 1*sqrt3"))
    assert same == p and hash(same) == hash(p)
    assert p != Placement(x, y, h, w)

    class Other(Value):
        __slots__ = ("x", "y", "w", "h")

    assert Other(x, y, w, h) != p
    assert repr(p) == f"Placement(x={x!r}, y={y!r}, w={w!r}, h={h!r})"
    for trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        c = trip(p)
        assert type(c) is Placement and c == p and hash(c) == hash(p) and repr(c) == repr(p)
    for name in Placement.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(p, name, x)
        with pytest.raises(AttributeError):
            delattr(p, name)
    for args, kwargs in (((x, y, w), {}), ((x, y, w, h, h), {}), ((x, y, w), {"side": h})):
        with pytest.raises(TypeError):
            Placement(*args, **kwargs)


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


def _cut_values(t: Tiling):
    """The distinct x cut values and the distinct y cut values of ``t``,
    each in first-seen order, as ``validate`` collects them."""
    zero = LinExpr.zero(t.table)
    xs, ys = dict.fromkeys((zero, t.outer_w)), dict.fromkeys((zero, t.outer_h))
    for p in t.tiles:
        xs.update(dict.fromkeys((p.x, p.x + p.w)))
        ys.update(dict.fromkeys((p.y, p.y + p.h)))
    return list(xs), list(ys)


def test_certified_order_is_the_cmp_order(monkeypatch):
    """On the bench's ``library`` documents of seeds 1-3 (spirals,
    staircases, column rows and convergent claims, some defective) and on
    the Bouwkamp squared rectangles, plain and stretched by sqrt2, the
    lower-bound order is certified (every ``cmp`` its neighbour check
    makes answers LESS, so no ``cmp`` sort follows) and equals the
    ``cmp`` sort."""
    table = tight_table(2)
    tilings = [build_tiling(parse_document(d.data))[1] for s in (1, 2, 3) for d in workloads.library(s)]
    for code in BOUWKAMP_CODES.values():
        tilings += [bouwkamp_tiling(code, table, unit) for unit in (None, parse_expr("1*sqrt2", table))]
    key = functools.cmp_to_key(LinExpr.cmp)
    answers = []
    cmp = LinExpr.cmp

    def recorded_cmp(self, other):
        answers.append(None)  # stays None when cmp raises
        answers[-1] = cmp(self, other)
        return answers[-1]

    monkeypatch.setattr(LinExpr, "cmp", recorded_cmp)  # ``key`` keeps the original
    for t in tilings:
        for values in _cut_values(t):
            order = certified_order(values)
            assert [values[i] for i in order] == sorted(values, key=key)
    assert all(a == LESS for a in answers)


def test_validate_confirms_overlapping_neighbours_by_cmp(monkeypatch):
    """Under the convergent sqrt2 bracket, about 1.9e-12 wide, the x cuts
    9*sqrt2 + p/q and 10*sqrt2 for the convergent p/q = 275807/195025 of
    sqrt2 have overlapping enclosures, but their difference sqrt2 - p/q,
    about 9.3e-12, is certified positive.  ``validate`` confirms that
    neighbouring pair with one ``cmp`` call and keeps the certified
    order; its reports are the reference validator's."""
    table = GeneratorTable([Generator("sqrt2", *CONVERGENT_BRACKETS["sqrt2"])])
    e = lambda s: parse_expr(s, table)
    zero, cut, outer = e("0"), e("9*sqrt2 + 275807/195025"), e("10*sqrt2")
    assert outer.eval_interval()[0] < cut.eval_interval()[1]
    assert certified_order([zero, outer, cut]) == [0, 2, 1]
    left = Placement(zero, zero, cut, e("1"))
    valid = Tiling(outer, e("1"), (left, Placement(cut, zero, outer - cut, e("1"))), table)
    short = Tiling(outer, e("1"), (left, Placement(cut, zero, outer - cut, e("1/2"))), table)
    calls = []
    cmp = LinExpr.cmp

    def counted_cmp(self, other):
        calls.append((self, other))
        return cmp(self, other)

    monkeypatch.setattr(LinExpr, "cmp", counted_cmp)
    assert validate(valid).is_valid
    assert calls == [(cut, outer)]
    report = validate(short)
    assert [(f.kind, f.cell, f.witness) for f in report.failures] == [
        ("gap", (1, 1), {"cell_x": cut, "cell_y": e("1/2")})
    ]
    for t in (valid, short):
        assert validate(t).as_dict() == reference_validate(t).as_dict()


def test_key_tie_falls_back_to_the_cmp_sort(monkeypatch):
    """The x cuts 1 + 2**-70 and 1 + 2**-71 share the lower-bound key
    floor(2**64 * lo), so the key order keeps the larger, seen first,
    before the smaller, and the neighbour check gets GREATER from
    ``cmp``.  ``certified_order`` then gives the ``cmp`` sort, and
    ``validate`` reports what the reference validator reports."""
    table = GeneratorTable([])
    e = lambda s: parse_expr(s, table)
    big, small = e(f"1 + 1/{2**70}"), e(f"1 + 1/{2**71}")
    zero, half, two = e("0"), e("1/2"), e("2")

    def tiling(top_right_w):
        return Tiling(two, e("1"), (
            Placement(zero, zero, big, half),
            Placement(big, zero, two - big, half),
            Placement(zero, half, small, half),
            Placement(small, half, top_right_w, half),
        ), table)

    valid, gap = tiling(two - small), tiling(two - big)
    values = [zero, two, big, small]
    assert _cut_values(valid)[0] == values
    answers = []
    cmp = LinExpr.cmp

    def recorded_cmp(self, other):
        answers.append((self, other, cmp(self, other)))
        return answers[-1][2]

    monkeypatch.setattr(LinExpr, "cmp", recorded_cmp)
    assert certified_order(values) == [0, 3, 2, 1]
    monkeypatch.undo()
    assert answers[0] == (big, small, GREATER)
    assert validate(valid).is_valid
    assert [f.kind for f in validate(gap).failures] == ["gap"]
    for t in (valid, gap):
        assert validate(t).as_dict() == reference_validate(t).as_dict()


def _unorderable_tiling(with_tile_0: bool, g=(Fraction(9, 10), Fraction(11, 10))):
    """A 2 x 1 rectangle in two rows, cut at x = 1*g above and x = 1
    below, with g in [9/10, 11/10] by default: no enclosure orders those
    two cuts.  Tile 0, if present, has height -1/4."""
    table = GeneratorTable([Generator("g", *g)])
    e = lambda s: parse_expr(s, table)
    tiles = (
        Placement(e("0"), e("1/2"), e("1*g"), e("1/2")),
        Placement(e("1*g"), e("1/2"), e("2 - 1*g"), e("1/2")),
        Placement(e("0"), e("0"), e("1"), e("1/2")),
        Placement(e("1"), e("0"), e("1"), e("1/2")),
    )
    if with_tile_0:
        tiles = (Placement(e("0"), e("0"), e("1"), e("-1/4")),) + tiles
    return Tiling(e("2"), e("1"), tiles, table)


def test_side_failures_come_before_an_unorderable_cut_pair():
    report = validate(_unorderable_tiling(True))
    assert [(f.kind, f.tiles, f.witness["side"]) for f in report.failures] == [
        ("nonpositive_side", (0,), "h")
    ]
    with pytest.raises(AmbiguousComparison, match=r"cannot order 1 against 1\*g: "):
        validate(_unorderable_tiling(False))


def test_side_failures_are_one_explanation_whether_cuts_order_or_not():
    """Over g in [104/100, 106/100] the cuts order, so the failed rank
    check is explained; over [9/10, 11/10] they do not.  Both go through
    ``_side_failures`` and give the same report."""
    narrow = (Fraction(104, 100), Fraction(106, 100))
    assert validate(_unorderable_tiling(False, narrow)).is_valid
    ordered = validate(_unorderable_tiling(True, narrow)).as_dict()
    assert ordered == validate(_unorderable_tiling(True)).as_dict()
    assert ordered["failures"] == [
        {"kind": "nonpositive_side", "tiles": [0], "witness": {"side": "h", "value": "-1/4"}}
    ]


@pytest.mark.parametrize("n", [200, 400, 800, 1600])
def test_validate_comparisons_are_n_log_n(monkeypatch, n):
    """``validate`` of an n-tile spiral orders its cuts without one
    certified comparison: the spiral's cuts have disjoint enclosures, so
    every neighbouring pair of the lower-bound order is confirmed by
    cross-multiplication.  It fills one enclosure per distinct cut value,
    n + 1 or n + 2 fills.  Every right and top edge of a valid tiling is
    a cut value already seen, so ``validate`` adds no two expressions and
    builds none but its zero."""
    doc = workloads.log_cabin(random.Random(n), n)
    _, t = build_tiling(parse_document(doc.data))
    counts = {"cmp": 0, "fills": 0, "add": 0, "built": 0}
    cmp, bounds, add = LinExpr.cmp, LinExpr._bounds, LinExpr.__add__
    init, trusted = LinExpr.__init__, LinExpr._trusted.__func__

    def counted_cmp(self, other):
        counts["cmp"] += 1
        return cmp(self, other)

    def counted_bounds(self):
        counts["fills"] += self._enclosure is None
        return bounds(self)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counted_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    def counted_trusted(cls, *args):
        counts["built"] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(LinExpr, "cmp", counted_cmp)
    monkeypatch.setattr(LinExpr, "_bounds", counted_bounds)
    monkeypatch.setattr(LinExpr, "__add__", counted_add)
    monkeypatch.setattr(LinExpr, "__init__", counted_init)
    monkeypatch.setattr(LinExpr, "_trusted", classmethod(counted_trusted))
    assert validate(t).is_valid
    assert counts["cmp"] == 0
    assert counts["fills"] <= n + 2
    assert counts["add"] == 0
    assert counts["built"] == 1


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


def test_build_and_validate_memory_at_the_generator_limit():
    """A 1,600-tile spiral over the largest table admitted, 32 generators
    of which it uses the last two.  Every value stores one numerator per
    generator, about 300 bytes for 33 of them, so the table size scales
    the memory of build and validation; the bound pins what the limit
    admits (about 2.2 MB measured)."""
    doc = workloads.log_cabin(random.Random(1600), 1600)
    raw = json.loads(doc.data)
    unused = [{"symbol": f"g{i}", "lo": "1", "hi": "2"} for i in range(MAX_GENERATORS - 2)]
    raw["generators"] = unused + [{"symbol": "sqrt2"}, {"symbol": "sqrt3"}]
    compiled = parse_document(json.dumps(raw))
    tracemalloc.start()
    try:
        table, t = build_tiling(compiled)
        report = validate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == MAX_GENERATORS + 1
    assert report.is_valid
    assert peak < 3_000_000
