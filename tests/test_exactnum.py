"""Exact scalars: rationals, Q(sqrt2), linear expressions, intervals."""

from __future__ import annotations

import copy
import pickle
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqtile import (
    EQUAL,
    GREATER,
    LESS,
    AmbiguousComparison,
    DocumentError,
    Generator,
    GeneratorTable,
    Interval,
    LinExpr,
    Sqrt2Num,
    TableMismatch,
    format_expr,
    parse_expr,
    parse_rational,
    sqrt2_expr_to_num,
)

from sqtile.exactnum import rational_text

from conftest import tight_table

getcontext().prec = 60
SQRT2_DECIMAL = Decimal(2).sqrt()

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)
sqrt2nums = st.builds(Sqrt2Num, rationals, rationals)


@pytest.fixture(scope="module")
def table():
    return tight_table(2, 3)


# --- rationals ---------------------------------------------------------------


def test_rational_ops_examples():
    assert Fraction(1, 3) + Fraction(2, 3) == 1
    assert Fraction(3, 6) == Fraction(1, 2)  # canonical form
    assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
    assert Fraction(1, 2) / Fraction(1, 4) == 2
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


@given(rationals, rationals)
def test_rational_always_canonical(p, q):
    import math

    r = p * q + p - q
    assert math.gcd(r.numerator, r.denominator) == 1
    assert r.denominator > 0


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 6/4 ") == Fraction(3, 2)
    for bad in ("1.5", "1e3", "", "/3", "3/", "1/-2", "a"):
        with pytest.raises(DocumentError):
            parse_rational(bad)
    with pytest.raises(DocumentError):
        parse_rational("1/0")


# --- Q(sqrt2) ----------------------------------------------------------------


def test_conjugate_examples():
    assert Sqrt2Num(1, 1).conj() == Sqrt2Num(1, -1)
    a = Sqrt2Num(Fraction(5, 7))
    assert a.conj() == a  # rational fixed point
    s = Sqrt2Num(3, -5)
    assert s.conj().conj() == s  # involution


def test_sqrt2_arith_examples():
    one_plus = Sqrt2Num(1, 1)
    assert one_plus * one_plus == Sqrt2Num(3, 2)
    assert one_plus * Sqrt2Num(1, -1) == Sqrt2Num(-1)
    s = Sqrt2Num(2, 1)
    assert s * Sqrt2Num(1) == s
    assert s + Sqrt2Num(0) == s
    assert (one_plus / one_plus) == Sqrt2Num(1)
    assert Sqrt2Num(1) / Sqrt2Num(1, -1) == Sqrt2Num(-1, -1)  # 1/(1-r2) = -(1+r2)
    with pytest.raises(ZeroDivisionError):
        s / Sqrt2Num(0, 0)


@given(sqrt2nums, sqrt2nums)
def test_conjugation_is_a_homomorphism(s, t):
    assert (s + t).conj() == s.conj() + t.conj()
    assert (s * t).conj() == s.conj() * t.conj()


@given(sqrt2nums)
def test_conjugation_involution_and_fixed_points(s):
    assert s.conj().conj() == s
    assert (s.conj() == s) == (s.b == 0)


def _sign_oracle(s: Sqrt2Num) -> int:
    """Independent sign via 60-digit decimal evaluation."""
    v = (
        Decimal(s.a.numerator) / Decimal(s.a.denominator)
        + Decimal(s.b.numerator) / Decimal(s.b.denominator) * SQRT2_DECIMAL
    )
    return 0 if v == 0 else (1 if v > 0 else -1)


@given(sqrt2nums)
def test_exact_sign_matches_decimal_oracle(s):
    assert s.sign() == _sign_oracle(s)


@given(sqrt2nums, sqrt2nums)
def test_ordering_consistent_with_sign(s, t):
    assert (s < t) == ((s - t).sign() < 0)
    assert (s == t) == ((s - t).sign() == 0)


def test_ratio_to():
    assert Sqrt2Num(3, 3).ratio_to(Sqrt2Num(1, 1)) == 3
    assert Sqrt2Num(1).ratio_to(Sqrt2Num(0, 1)) is None
    assert Sqrt2Num(0, 3).ratio_to(Sqrt2Num(0, 2)) == Fraction(3, 2)


# --- intervals ---------------------------------------------------------------


def test_interval_basics():
    i = Interval(Fraction(1), Fraction(2))
    assert (i + i) == Interval(Fraction(2), Fraction(4))
    assert i.scale(-2) == Interval(Fraction(-4), Fraction(-2))
    assert i.sign() == 1 and (-i).sign() == -1
    assert Interval(Fraction(-1), Fraction(1)).sign() == 0
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


# --- generators and tables ---------------------------------------------------


def test_generator_validation():
    Generator("pi", Fraction(314159, 100000), Fraction(314160, 100000))
    with pytest.raises(DocumentError):
        Generator("g", Fraction(-1), Fraction(1))  # zero-containing
    with pytest.raises(DocumentError):
        Generator("g", Fraction(2), Fraction(2))  # needs lo < hi
    with pytest.raises(DocumentError):
        Generator("1", Fraction(1), Fraction(2))  # unit is implicit
    with pytest.raises(DocumentError):
        Generator("2bad", Fraction(1), Fraction(2))


def test_table_uniqueness_and_lookup(table):
    assert table.symbols == ("1", "sqrt2", "sqrt3")
    assert table.index("sqrt3") == 2
    assert table.enclosure(0).lo == 1 == table.enclosure(0).hi
    with pytest.raises(DocumentError):
        table.index("sqrt5")
    g = Generator("g", Fraction(1), Fraction(2))
    with pytest.raises(DocumentError):
        GeneratorTable([g, g])


# --- linear expressions ------------------------------------------------------


def test_lin_combine_examples(table):
    e = parse_expr("2 + 1*sqrt2", table)
    assert (e * 1 + e * -1).is_zero
    third = LinExpr.constant(table, Fraction(1, 3))
    two_thirds = LinExpr.constant(table, Fraction(2, 3))
    assert third * 1 + two_thirds * 1 == LinExpr.constant(table, 1)
    t3 = e * 1 + LinExpr.of_symbol(table, "sqrt3") * -1
    assert t3.coeffs == {0: Fraction(2), 1: Fraction(1), 2: Fraction(-1)}


def test_lin_expr_table_mismatch(table):
    other = tight_table(2)
    with pytest.raises(TableMismatch):
        parse_expr("1*sqrt2", table) + parse_expr("1*sqrt2", other)


def test_eval_interval_examples():
    # the sqrt2 convergent pair from the worked examples
    lo, hi = Fraction(1393, 985), Fraction(577, 408)
    assert lo * lo < 2 < hi * hi  # they really bracket sqrt2
    table = GeneratorTable([Generator("sqrt2", lo, hi)])
    e = parse_expr("2 + 1*sqrt2", table)
    assert e.eval_interval() == Interval(2 + lo, 2 + hi)
    assert LinExpr.constant(table, 5).eval_interval() == Interval.point(5)
    assert LinExpr.zero(table).eval_interval() == Interval.point(0)


def test_lin_cmp_examples():
    # enclosures exactly as in the worked comparison
    table = GeneratorTable(
        [
            Generator("sqrt2", Fraction(1393, 985), Fraction(577, 408)),
            Generator("sqrt3", Fraction(1732, 1000), Fraction(1733, 1000)),
        ]
    )
    e1 = parse_expr("1*sqrt3", table)
    e2 = parse_expr("2 + 1*sqrt2 - 1*sqrt3", table)
    # independent interval oracle for e1 - e2 = 2*sqrt3 - 1*sqrt2 - 2
    d_lo = 2 * Fraction(1732, 1000) - Fraction(577, 408) - 2
    d_hi = 2 * Fraction(1733, 1000) - Fraction(1393, 985) - 2
    assert d_lo > 0 and d_hi > 0  # separated above zero -> Greater
    assert e1.cmp(e2) == GREATER
    assert e1.cmp(e1) == EQUAL
    assert LinExpr.constant(table, Fraction(1, 2)).cmp(
        LinExpr.constant(table, Fraction(1, 3))
    ) == GREATER
    assert LinExpr.constant(table, Fraction(1, 3)).cmp(
        LinExpr.constant(table, Fraction(1, 2))
    ) == LESS


def test_lin_cmp_ambiguous():
    table = GeneratorTable([Generator("g", Fraction(1), Fraction(2))])
    g = LinExpr.of_symbol(table, "g")
    with pytest.raises(AmbiguousComparison):
        g.cmp(LinExpr.constant(table, Fraction(3, 2)))
    # symbolic equality wins even with a coarse enclosure
    assert g.cmp(LinExpr.of_symbol(table, "g")) == EQUAL


# Wide enclosures, so that disjoint and overlapping pairs are both common.
WIDE = GeneratorTable(
    [Generator("g", Fraction(1), Fraction(2)), Generator("h", Fraction(5, 2), Fraction(7, 2))]
)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
wide_exprs = st.builds(lambda a, b, c: LinExpr(WIDE, {0: a, 1: b, 2: c}), small, small, small)


@given(wide_exprs, wide_exprs)
@example(LinExpr(WIDE, {0: 2}), LinExpr(WIDE, {1: 1}))  # touching enclosures
@example(LinExpr(WIDE, {1: 1}), LinExpr(WIDE, {0: 2}))
def test_cmp_agrees_with_difference_enclosure(a, b):
    d = (a - b).eval_interval()
    # the second round answers from the enclosures cached by the first
    for _ in range(2):
        if a == b:
            assert a.cmp(b) == EQUAL
        elif d.lo <= 0 <= d.hi:
            with pytest.raises(AmbiguousComparison) as info:
                a.cmp(b)
            assert str(info.value) == (
                f"cannot order {a} against {b}: enclosures overlap; "
                "declare tighter generator enclosures"
            )
        else:
            assert a.cmp(b) == d.sign()


def _random_expr(rng, table):
    return LinExpr(
        table,
        {
            i: Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            for i in range(len(table))
            if rng.random() < 0.8
        },
    )


def test_lin_cmp_never_contradicts_midpoint_evaluation():
    table = tight_table(2, 3, 5)
    mids = [table.enclosure(i).midpoint for i in range(len(table))]
    rng = random.Random(7)
    for _ in range(300):
        e1, e2 = _random_expr(rng, table), _random_expr(rng, table)
        point = sum(c * mids[i] for i, c in (e1 - e2).coeffs.items())
        c = e1.cmp(e2)
        if c == EQUAL:
            assert e1.coeffs == e2.coeffs
        elif c == GREATER:
            assert point > 0
        else:
            assert point < 0


def test_interval_of_sum_contained_in_sum_of_intervals():
    table = tight_table(2, 3, 5)
    rng = random.Random(11)
    for _ in range(300):
        e1, e2 = _random_expr(rng, table), _random_expr(rng, table)
        outer = e1.eval_interval() + e2.eval_interval()
        inner = (e1 + e2).eval_interval()
        assert outer.lo <= inner.lo <= inner.hi <= outer.hi


def test_copy_and_pickle_round_trip():
    table = tight_table(2, 3, 5)
    rng = random.Random(19)
    round_trips = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
    for _ in range(20):
        e, other = _random_expr(rng, table), _random_expr(rng, table)
        s = Sqrt2Num(Fraction(rng.randint(-30, 30), rng.randint(1, 12)), rng.randint(-30, 30))
        hash(e), e.eval_interval()  # fill the write-once slots first
        for trip in round_trips:
            c = trip(e)
            assert c == e and hash(c) == hash(e)
            assert c.cmp(e) == EQUAL and c.cmp(other) == e.cmp(other)
            d = trip(s)
            assert d == s and hash(d) == hash(s) and d.sign() == s.sign()
            with pytest.raises(AttributeError):
                c._hash = 0
            with pytest.raises(AttributeError):
                d.a = 0


# --- grammar -----------------------------------------------------------------


def test_parse_expr_grammar(table):
    e = parse_expr("2 + 1*sqrt2 - 1*sqrt3", table)
    assert e.coeffs == {0: Fraction(2), 1: Fraction(1), 2: Fraction(-1)}
    assert parse_expr("  2+1*sqrt2-1*sqrt3 ", table) == e
    assert parse_expr("sqrt2", table) == LinExpr.of_symbol(table, "sqrt2")
    assert parse_expr("-1/2", table) == LinExpr.constant(table, Fraction(-1, 2))
    assert parse_expr("2 -1*sqrt2", table) == parse_expr("2 - 1*sqrt2", table)
    assert parse_expr("1/3 + 2/3", table) == LinExpr.constant(table, 1)
    assert parse_expr("3/6*sqrt2", table) == parse_expr("1/2*sqrt2", table)


def test_parse_expr_errors(table):
    with pytest.raises(DocumentError):
        parse_expr("", table)
    with pytest.raises(DocumentError):
        parse_expr("2 +", table)
    with pytest.raises(DocumentError):
        parse_expr("2 * 3", table)  # '*' needs a symbol on the right
    with pytest.raises(DocumentError):
        parse_expr("1*sqrt5", table)  # undeclared
    with pytest.raises(DocumentError):
        parse_expr("2 ^ 3", table)
    err = None
    try:
        parse_expr("1*sqrt5", table)
    except DocumentError as exc:
        err = exc
    assert "sqrt5" in str(err)


def test_format_parse_round_trip(table):
    rng = random.Random(3)
    for _ in range(200):
        e = _random_expr(rng, table)
        assert parse_expr(format_expr(e), table) == e
    assert format_expr(LinExpr.zero(table)) == "0"


def test_sqrt2_expr_to_num(table):
    e = parse_expr("3/2 - 2*sqrt2", table)
    assert sqrt2_expr_to_num(e) == Sqrt2Num(Fraction(3, 2), -2)
    with pytest.raises(ValueError):
        sqrt2_expr_to_num(parse_expr("1*sqrt3", table))


@given(st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20))
def test_rational_text_matches_str(q):
    assert rational_text(q) == str(q)
    assert str(Sqrt2Num(0, q)) == (f"{q}*sqrt2" if q else "0")
    assert str(Sqrt2Num(1, q)) == (f"1 {'-' if q < 0 else '+'} {abs(q)}*sqrt2" if q else "1")


def test_rational_text_past_the_int_digit_limit():
    n = int("7" * 3000) ** 2 + 1  # 6000 digits
    q = Fraction(-n, 3)
    num, den = rational_text(q).split("/")
    assert Decimal(num) == -n and den == "3"
    assert Decimal(rational_text(n)) == n
    e = LinExpr(GeneratorTable([Generator("g", Fraction(1), Fraction(2))]), {0: n, 1: q})
    unit, g = format_expr(e).split(" - ")
    assert Decimal(unit) == n and g == rational_text(-q) + "*g"
