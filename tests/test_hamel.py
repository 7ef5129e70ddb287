"""Parametric (Hamel) areas, additivity, and the good-square analysis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqtile import (
    AmbiguousComparison,
    Generator,
    GeneratorTable,
    InvalidTiling,
    LinExpr,
    Placement,
    Tiling,
    additivity_check,
    analyze_good_squares,
    extract_basis,
    parse_expr,
    x_area,
    x_area_nonneg_for_all_x,
    y_area,
)

from conftest import combine, guillotine_tiling, q2, q2_conj, q2_mul, q2_pair, sign, tight_table

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=60)
sqrt2nums = st.builds(q2, rationals, rationals)
SQRT2 = q2(0, 1)


@pytest.fixture(scope="module")
def table():
    return tight_table(2, 3)


@pytest.fixture(scope="module")
def fig4(table):
    e = lambda s: parse_expr(s, table)
    tiles = (
        Placement(e("0"), e("0"), e("1/3"), e("1*sqrt3")),
        Placement(e("1/3"), e("0"), e("2/3"), e("1*sqrt3")),
        Placement(e("0"), e("1*sqrt3"), e("1"), e("2 + 1*sqrt2 - 1*sqrt3")),
    )
    t = Tiling(e("1"), e("2 + 1*sqrt2"), tiles, table)
    basis = extract_basis(t.side_lengths())
    return t, basis


# --- x-area ------------------------------------------------------------------


def test_x_area_examples():
    s = q2(1, 1)
    assert x_area(s, s, -1) == 0  # (1-1)^2
    assert x_area(q2(1), s, SQRT2) == s  # ordinary area of 1 x (1+sqrt2)
    # negative parametric area witnessing non-tilability of 1 x (2+sqrt2)
    assert x_area(q2(1), q2(2, 1), -3) == -1
    with pytest.raises(ValueError, match=r"1\*sqrt3 involves generators outside \{1, sqrt2\}"):
        x_area(parse_expr("1*sqrt3", tight_table(2, 3)), q2(1), 1)


def test_x_area_over_a_table_without_sqrt2():
    """Rational sides and x over a table that holds no sqrt2 give the
    rational product, over the table of w."""
    for table in (GeneratorTable(), tight_table(7)):
        w, h, x = (LinExpr.constant(table, v) for v in (2, 3, 5))
        area = x_area(w, h, x)
        assert (area, area.table) == (LinExpr.constant(table, 6), table)


def test_x_area_nonneg_examples():
    assert x_area_nonneg_for_all_x(q2(1, 1), q2(2, 2))
    assert not x_area_nonneg_for_all_x(q2(1), q2(1, 1))
    assert x_area_nonneg_for_all_x(q2(3), q2(7))
    # a negative leading coefficient bd: the area goes to -infinity
    assert not x_area_nonneg_for_all_x(q2(3, -1), q2(1, 1))
    with pytest.raises(ValueError):
        x_area_nonneg_for_all_x(q2(0), q2(1))


@given(sqrt2nums, sqrt2nums)
def test_x_area_at_pm_sqrt2_is_product_and_conjugate(w, h):
    assert x_area(w, h, SQRT2) == q2_mul(w, h)
    assert x_area(w, h, -SQRT2) == q2_conj(q2_mul(w, h))


def test_square_x_area_nonneg_at_rational_x():
    rng = random.Random(13)
    for _ in range(1000):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        s = q2(a, b)
        area = x_area(s, s, x)
        assert type(area) is Fraction and area >= 0
        assert area == (a + b * x) ** 2


def _rational_ratio(w: LinExpr, h: LinExpr) -> bool:
    # h/w is rational iff (h.a, h.b) and (w.a, w.b) are parallel
    (wa, wb), (ha, hb) = q2_pair(w), q2_pair(h)
    return ha * wb == hb * wa


def test_task4_equivalence_random_pairs():
    rng = random.Random(17)
    checked_true = checked_false = 0
    while checked_true < 200 or checked_false < 200:
        a = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        b = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        w = q2(a, b)
        if sign(w) <= 0:
            continue
        if rng.random() < 0.5:
            h = w * Fraction(rng.randint(1, 9), rng.randint(1, 9))  # rational ratio
        else:
            h = q2(Fraction(rng.randint(0, 12), rng.randint(1, 6)),
                   Fraction(rng.randint(0, 12), rng.randint(1, 6)))
            if sign(h) <= 0:
                continue
        got = x_area_nonneg_for_all_x(w, h)
        expected = _rational_ratio(w, h)
        assert got == expected
        checked_true += expected
        checked_false += not expected


# --- y-area ------------------------------------------------------------------


def test_y_area_outer_equals_y(fig4):
    t, basis = fig4
    for y in (Fraction(-1), Fraction(0), Fraction(5), Fraction(7, 3)):
        assert y_area(t.outer_w, t.outer_h, basis, y) == y


def test_y_area_examples(fig4):
    t, basis = fig4
    table = t.table
    third = LinExpr.constant(table, Fraction(1, 3))
    assert y_area(third, third, basis, 5) == Fraction(1, 9)
    one = LinExpr.constant(table, 1)
    t3 = parse_expr("2 + 1*sqrt2 - 1*sqrt3", table)
    assert y_area(one, t3, basis, 2) == 2


def test_square_y_area_is_square_of_rational(fig4):
    t, basis = fig4
    rng = random.Random(19)
    for _ in range(200):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in basis.elements]
        side = combine(basis, coords)
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        a, b = basis.coords_st(side)
        assert y_area(side, side, basis, y) == (a + b * y) ** 2 >= 0


def test_additivity_fig4(fig4):
    t, basis = fig4
    assert additivity_check(t, basis, [Fraction(-1), Fraction(0), Fraction(7)])


def test_additivity_single_tile(table):
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("2 + 1*sqrt2"),
               (Placement(e("0"), e("0"), e("1"), e("2 + 1*sqrt2")),), table)
    basis = extract_basis(t.side_lengths())
    assert additivity_check(t, basis, [Fraction(k, 3) for k in range(-9, 9)])


def test_additivity_requires_valid_geometry(fig4, table):
    t, basis = fig4
    e = lambda s: parse_expr(s, table)
    broken = Tiling(
        t.outer_w,
        t.outer_h,
        (t.tiles[0], t.tiles[1],
         Placement(e("0"), e("1*sqrt3"), e("1"), e("1 + 1*sqrt3"))),
        table,
    )
    with pytest.raises(InvalidTiling):
        additivity_check(broken, basis, [Fraction(-1)])


def test_additivity_ambiguous_geometry_raises_ambiguity():
    coarse = GeneratorTable([Generator("g", Fraction(9, 10), Fraction(11, 10))])
    e = lambda s: parse_expr(s, coarse)
    t = Tiling(
        e("2"),
        e("1"),
        (
            Placement(e("0"), e("0"), e("1*g"), e("1")),
            Placement(e("1"), e("0"), e("2 - 1*g"), e("1")),
        ),
        coarse,
    )
    basis = extract_basis(t.side_lengths())
    # the geometry is undecided, not invalid
    with pytest.raises(AmbiguousComparison, match=r"cannot order 2 against 3 - 1\*g"):
        additivity_check(t, basis, [Fraction(-1)])


def test_additivity_random_guillotine(table):
    e = lambda s: parse_expr(s, table)
    rng = random.Random(23)
    for _ in range(30):
        t = guillotine_tiling(rng, e("3/2"), e("1 + 1*sqrt2"), depth=5)
        basis = extract_basis(t.side_lengths())
        ys = [Fraction(rng.randint(-30, 30), rng.randint(1, 10)) for _ in range(5)]
        assert additivity_check(t, basis, ys)


# --- good-square analysis ----------------------------------------------------


def test_analyze_rational_target_with_exact_cover():
    sides = [q2(1)] * 6
    analysis = analyze_good_squares(sides, q2(2), q2(3))
    assert analysis.A == 6 and analysis.B == 0 and analysis.C == 0
    assert analysis.area_identity_holds
    assert analysis.as_dict()["contradiction"] == "none"


def test_analyze_irrational_target_rational_sides():
    sides = [q2(Fraction(1, 2)), q2(Fraction(3, 4))]
    analysis = analyze_good_squares(sides, q2(1), SQRT2)
    assert not analysis.area_identity_holds
    assert analysis.as_dict()["contradiction"] == "area_mismatch"


def test_analyze_identity_with_nonnegative_conjugate():
    # (1+sqrt2)^2 covers the (1+sqrt2) x (1+sqrt2) square exactly; its
    # conjugate area 3-2*sqrt2 is positive, so no contradiction fires
    s = q2(1, 1)
    analysis = analyze_good_squares([s], s, s)
    assert analysis.area_identity_holds
    assert analysis.as_dict()["contradiction"] == "none"


def test_analyze_empty_sides_rejected():
    with pytest.raises(ValueError):
        analyze_good_squares([], q2(1), q2(1, 1))


@given(st.lists(sqrt2nums, min_size=1, max_size=8))
def test_analyze_never_none_for_one_by_one_plus_sqrt2(sides):
    analysis = analyze_good_squares(sides, q2(1), q2(1, 1))
    assert analysis.as_dict()["contradiction"] != "none"
    assert analysis.A >= 0 and analysis.B >= 0
    # the conjugate square area sum((a_i - b_i*sqrt2)^2) is never negative,
    # so it can never equal the target's conjugate area 1 - sqrt2
    assert sign(q2(analysis.A + 2 * analysis.B, -2 * analysis.C)) >= 0
    assert not analysis.area_identity_holds
