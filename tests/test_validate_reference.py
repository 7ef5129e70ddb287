"""``validate`` against a copy of the earlier validator.

The reference below is the validator as it was before cut values shared
one object and comparisons answered from cached enclosures: every bound
check builds ``hi - lo`` and compares it with 0, every comparison builds
the difference of its two sides and evaluates that enclosure, and the
cuts are sorted with that comparison.  Where the difference's enclosure
contains 0 and the difference lies on the unit and roots alone, the
Decimal oracle ``conftest.sign_oracle`` orders the pair, as the exact
sign of ``LinExpr.cmp`` does.  It reports every ambiguity as a
failure of kind "ambiguous"; ``validate`` raises AmbiguousComparison at
the first one instead.  So ``validate`` must raise exactly when the
reference reports an ambiguity, naming a pair whose difference is the
one the reference's first ambiguous failure names, and must otherwise
return the reference's report exactly.
"""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtile import (
    EQUAL,
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
from sqtile.tiling import Failure, ValidationReport

from conftest import BOUWKAMP_CODES, bouwkamp_tiling, guillotine_tiling, sign_oracle, tight_table


def _ref_cmp(a: LinExpr, b: LinExpr) -> int:
    if a == b:
        return EQUAL
    lo, hi = (a - b).eval_interval()
    if lo > 0:
        return GREATER
    if hi < 0:
        return LESS
    exact = sign_oracle(a - b)
    if exact is not None:
        return exact
    raise AmbiguousComparison(
        f"cannot order {a} against {b}: enclosures overlap; "
        "declare tighter generator enclosures"
    )


def _ref_sorted_cuts(values):
    unique = {}
    for v in values:
        unique.setdefault(v, v)
    return sorted(unique.values(), key=functools.cmp_to_key(_ref_cmp))


def _ref_side_failures(t: Tiling):
    failures = []
    zero = LinExpr.zero(t.table)

    def sign_of(e, what, tiles):
        try:
            return _ref_cmp(e, zero)
        except AmbiguousComparison as exc:
            failures.append(Failure("ambiguous", tiles=tiles, witness={"detail": str(exc), "where": what}))
            return None

    for name, e in (("outer_w", t.outer_w), ("outer_h", t.outer_h)):
        s = sign_of(e, name, ())
        if s is not None and s <= 0:
            failures.append(Failure("nonpositive_side", witness={"side": name, "value": e}))
    for i, p in enumerate(t.tiles):
        for name, e in (("w", p.w), ("h", p.h)):
            s = sign_of(e, f"tile {i} {name}", (i,))
            if s is not None and s <= 0:
                failures.append(
                    Failure("nonpositive_side", tiles=(i,), witness={"side": name, "value": e})
                )
        if any(f.tiles == (i,) for f in failures):
            continue
        for cond, lo, hi in (
            ("x >= 0", zero, p.x),
            ("y >= 0", zero, p.y),
            ("right <= outer_w", p.x + p.w, t.outer_w),
            ("top <= outer_h", p.y + p.h, t.outer_h),
        ):
            s = sign_of(hi - lo, f"tile {i} {cond}", (i,))
            if s is not None and s < 0:
                failures.append(
                    Failure("out_of_bounds", tiles=(i,), witness={"constraint": cond, "x": p.x, "y": p.y})
                )
    return failures


def reference_validate(t: Tiling) -> ValidationReport:
    failures = _ref_side_failures(t)
    if failures:
        return ValidationReport(tuple(failures))
    zero = LinExpr.zero(t.table)
    try:
        x_cuts = _ref_sorted_cuts([zero, t.outer_w] + [v for p in t.tiles for v in (p.x, p.x + p.w)])
        y_cuts = _ref_sorted_cuts([zero, t.outer_h] + [v for p in t.tiles for v in (p.y, p.y + p.h)])
    except AmbiguousComparison as exc:
        return ValidationReport((Failure("ambiguous", witness={"detail": str(exc)}),))
    x_index = {v: i for i, v in enumerate(x_cuts)}
    y_index = {v: i for i, v in enumerate(y_cuts)}
    nx, ny = len(x_cuts) - 1, len(y_cuts) - 1
    owners = [[[] for _ in range(ny)] for _ in range(nx)]
    for idx, p in enumerate(t.tiles):
        for i in range(x_index[p.x], x_index[p.x + p.w]):
            for j in range(y_index[p.y], y_index[p.y + p.h]):
                owners[i][j].append(idx)
    for i in range(nx):
        for j in range(ny):
            cell_w = {"cell_x": x_cuts[i], "cell_y": y_cuts[j]}
            if not owners[i][j]:
                failures.append(Failure("gap", cell=(i, j), witness=cell_w))
            elif len(owners[i][j]) > 1:
                failures.append(
                    Failure("overlap", tiles=tuple(owners[i][j]), cell=(i, j), witness=cell_w)
                )
    return ValidationReport(tuple(failures))


def _mutations(rng, t: Tiling):
    """Drop, duplicate or shift one tile, or flatten it left of the rectangle."""
    table = t.table
    k = rng.randrange(len(t.tiles))
    p = t.tiles[k]
    delta = LinExpr.constant(table, Fraction(rng.choice([-1, 1]), rng.randint(2, 9)))
    replaced = lambda q: Tiling(t.outer_w, t.outer_h, t.tiles[:k] + (q,) + t.tiles[k + 1 :], table)
    if len(t.tiles) > 1:
        yield Tiling(t.outer_w, t.outer_h, t.tiles[:k] + t.tiles[k + 1 :], table)
    yield Tiling(t.outer_w, t.outer_h, t.tiles + (p,), table)
    yield replaced(Placement(p.x + delta, p.y, p.w, p.h))
    yield replaced(Placement(p.x, p.y + delta, p.w, p.h))
    # a nonpositive side skips the tile's bounds checks
    yield replaced(Placement(p.x - 4, p.y, p.w - p.w, p.h))


def _fig4(table):
    e = lambda s: parse_expr(s, table)
    tiles = (
        Placement(e("0"), e("0"), e("1/3"), e("1*sqrt3")),
        Placement(e("1/3"), e("0"), e("2/3"), e("1*sqrt3")),
        Placement(e("0"), e("1*sqrt3"), e("1"), e("2 + 1*sqrt2 - 1*sqrt3")),
    )
    return Tiling(e("1"), e("2 + 1*sqrt2"), tiles, table)


def _ambiguous_cases():
    """Tilings over g in [9/10, 11/10]: ambiguous bound, side and cut order."""
    table = GeneratorTable([Generator("g", Fraction(9, 10), Fraction(11, 10))])
    e = lambda s: parse_expr(s, table)
    # right <= outer_w of the second tile is the sign of -1 + g
    yield Tiling(
        e("2"),
        e("1"),
        (
            Placement(e("0"), e("0"), e("1*g"), e("1")),
            Placement(e("1"), e("0"), e("2 - 1*g"), e("1")),
        ),
        table,
    )
    # a side of sign -1 + g
    yield Tiling(e("2"), e("1"), (Placement(e("0"), e("0"), e("-1 + 1*g"), e("1")),), table)
    # every check certifies, but the x cuts 1 and g cannot be ordered
    half = e("1/2")
    yield Tiling(
        e("3"),
        e("1"),
        (
            Placement(e("0"), e("0"), e("1"), half),
            Placement(e("0"), half, e("1*g"), half),
            Placement(e("1"), e("0"), e("2"), half),
            Placement(e("1*g"), half, e("3 - 1*g"), half),
        ),
        table,
    )


_PAIR = re.compile(r"cannot order (.+) against (.+): enclosures overlap; ")


def _named_difference(detail: str, table) -> LinExpr:
    a, b = _PAIR.match(detail).groups()
    return parse_expr(a, table) - parse_expr(b, table)


def _assert_same(t: Tiling):
    want = reference_validate(t).as_dict()
    ambiguous = [f for f in want["failures"] if f["kind"] == "ambiguous"]
    if not ambiguous:
        assert validate(t).as_dict() == want
        return want
    with pytest.raises(AmbiguousComparison) as info:
        validate(t)
    first = ambiguous[0]["witness"]["detail"]
    assert _named_difference(str(info.value), t.table) == _named_difference(first, t.table)
    return want


def test_fig4_and_its_mutations_match_reference():
    table = tight_table(2, 3)
    t = _fig4(table)
    assert _assert_same(t)["verdict"] == "valid"
    rng = random.Random(3)
    for _ in range(10):
        for m in _mutations(rng, t):
            _assert_same(m)


def test_guillotine_tilings_and_mutations_match_reference():
    table = tight_table(2, 3)
    e = lambda s: parse_expr(s, table)
    rng = random.Random(11)
    kinds = set()
    for _ in range(30):
        t = guillotine_tiling(rng, e("2 + 1*sqrt3"), e("1 + 1*sqrt2"), depth=5)
        assert _assert_same(t)["verdict"] == "valid"
        for m in _mutations(rng, t):
            kinds.update(f["kind"] for f in _assert_same(m)["failures"])
    assert kinds == {"gap", "overlap", "out_of_bounds", "nonpositive_side"}


def test_ambiguous_tilings_match_reference_including_detail():
    for t in _ambiguous_cases():
        want = _assert_same(t)
        assert [f["kind"] for f in want["failures"]] == ["ambiguous"]
        assert want["failures"][0]["witness"]["detail"].startswith("cannot order ")


def _coarse_mutations(rng, t: Tiling):
    """The mutations above, plus one tile widened by -1 + g or given that
    width, whose sign the coarse bracket of g cannot settle."""
    yield from _mutations(rng, t)
    k = rng.randrange(len(t.tiles))
    p = t.tiles[k]
    slack = parse_expr("-1 + 1*g", t.table)
    for w in (p.w + slack, slack):
        q = Placement(p.x, p.y, w, p.h)
        yield Tiling(t.outer_w, t.outer_h, t.tiles[:k] + (q,) + t.tiles[k + 1 :], t.table)


def test_coarse_tilings_and_mutations_match_reference():
    table = GeneratorTable([Generator("g", Fraction(9, 10), Fraction(11, 10))])
    e = lambda s: parse_expr(s, table)
    rng = random.Random(17)
    outcomes = set()
    for _ in range(30):
        t = guillotine_tiling(rng, e("2 + 1*g"), e("1 + 1*g"), depth=4)
        for case in (t, *_coarse_mutations(rng, t)):
            want = _assert_same(case)
            outcomes.add(any(f["kind"] == "ambiguous" for f in want["failures"]))
    assert outcomes == {True, False}


def test_root_tilings_at_coarse_brackets_match_reference():
    """sqrt2 and sqrt3 bracketed by [1, 2]: most cut pairs overlap, the
    exact sign orders them, and nothing is ambiguous."""
    table = GeneratorTable([Generator(f"sqrt{n}", Fraction(1), Fraction(2)) for n in (2, 3)])
    e = lambda s: parse_expr(s, table)
    rng = random.Random(31)
    kinds = set()
    for _ in range(15):
        t = guillotine_tiling(rng, e("2 + 1*sqrt3"), e("1 + 1*sqrt2"), depth=4)
        assert _assert_same(t)["verdict"] == "valid"
        for m in _mutations(rng, t):
            kinds.update(f["kind"] for f in _assert_same(m)["failures"])
    assert "ambiguous" not in kinds and {"gap", "overlap"} <= kinds


@pytest.mark.parametrize("name", sorted(BOUWKAMP_CODES))
def test_bouwkamp_squares_and_mutations_match_reference(name):
    table = tight_table(2)
    rng = random.Random(5)
    for unit in (None, parse_expr("1*sqrt2", table)):
        t = bouwkamp_tiling(BOUWKAMP_CODES[name], table, unit)
        assert _assert_same(t)["verdict"] == "valid"
        for _ in range(10):
            for m in _mutations(rng, t):
                _assert_same(m)


_TABLE = tight_table(2)
# In increasing order, so list index order is value order.
_LATTICE = [parse_expr(s, _TABLE) for s in ("0", "1/2", "1/2*sqrt2", "1", "1*sqrt2", "3/2", "2")]
_ODD = st.sampled_from([False] * 29 + [True])


def _interval(draw, bound):
    """A lattice interval [lo, hi] inside [0, _LATTICE[bound]] as (lo, hi - lo);
    now and then empty, reversed or running past the bound."""
    lo = draw(st.integers(0, bound - 1))
    hi = draw(st.integers(lo + 1, bound))
    if draw(_ODD):
        lo, hi = draw(st.sampled_from([(lo, lo), (hi, lo), (lo, len(_LATTICE) - 1)]))
    return _LATTICE[lo], _LATTICE[hi] - _LATTICE[lo]


@st.composite
def _lattice_tilings(draw):
    """1-10 tiles with corners and far edges on a lattice over sqrt2: most
    of them overlap in places and leave gaps in others, in any layout,
    guillotine or not."""
    outer = [0 if draw(_ODD) else draw(st.integers(1, len(_LATTICE) - 1)) for _ in "wh"]
    tiles = []
    for _ in range(draw(st.integers(1, 10))):
        (x, w), (y, h) = (_interval(draw, max(b, 1)) for b in outer)
        tiles.append(Placement(x, y, w, h))
    return Tiling(_LATTICE[outer[0]], _LATTICE[outer[1]], tuple(tiles), _TABLE)


@settings(max_examples=200, deadline=None)
@given(_lattice_tilings())
def test_lattice_tilings_match_reference(t):
    assert validate(t).as_dict() == reference_validate(t).as_dict()
