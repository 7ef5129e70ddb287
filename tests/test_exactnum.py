"""Exact scalars: rationals, Q(sqrt2), linear expressions, enclosures and
the exact sign."""

from __future__ import annotations

import copy
import math
import pickle
import random
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqtile import (
    EQUAL,
    GREATER,
    LESS,
    AmbiguousComparison,
    Basis,
    Certificate,
    DocumentError,
    Failure,
    Generator,
    GeneratorTable,
    GoodSquareAnalysis,
    LinExpr,
    Placement,
    Refutation,
    TableMismatch,
    Tiling,
    ValidationReport,
    Verdict,
    analyze_good_squares,
    decide,
    extract_basis,
    format_expr,
    parse_expr,
    parse_rational,
    refute_square_tiling,
    validate,
)

from sqtile.exactnum import MAX_GENERATORS, rational_text

from conftest import (
    CONVERGENT_BRACKETS,
    bouwkamp_tiling,
    q2,
    q2_conj,
    q2_mul,
    q2_pair,
    sign,
    sign_oracle,
    tight_enclosure,
    tight_table,
    workloads,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)
sqrt2nums = st.builds(q2, rationals, rationals)


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
    assert q2_conj(q2(1, 1)) == q2(1, -1)
    a = q2(Fraction(5, 7))
    assert q2_conj(a) == a  # rational fixed point
    s = q2(3, -5)
    assert q2_conj(q2_conj(s)) == s  # involution


def test_sqrt2_arith_examples():
    one_plus = q2(1, 1)
    assert q2_mul(one_plus, one_plus) == q2(3, 2)
    assert q2_mul(one_plus, q2(1, -1)) == q2(-1)
    s = q2(2, 1)
    assert q2_mul(s, q2(1)) == s
    assert s + q2(0) == s


@given(sqrt2nums, sqrt2nums)
def test_conjugation_is_a_homomorphism(s, t):
    assert q2_conj(s + t) == q2_conj(s) + q2_conj(t)
    assert q2_conj(q2_mul(s, t)) == q2_mul(q2_conj(s), q2_conj(t))


@given(sqrt2nums)
def test_conjugation_involution_and_fixed_points(s):
    assert q2_conj(q2_conj(s)) == s
    assert (q2_conj(s) == s) == (q2_pair(s)[1] == 0)


@given(sqrt2nums)
def test_exact_sign_matches_decimal_oracle(s):
    assert sign(s) == sign_oracle(s)


@given(sqrt2nums, sqrt2nums)
def test_ordering_consistent_with_sign(s, t):
    assert (s == t) == (s.cmp(t) == EQUAL) == (sign(s - t) == EQUAL)


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


def test_root_generator_brackets_its_root():
    # checked exactly: lo^2 <= N <= hi^2, endpoints included
    Generator("sqrt4", Fraction(2), Fraction(3))
    Generator("sqrt4", Fraction(1), Fraction(2))
    Generator("sqrt2", Fraction(0), Fraction(3, 2))
    for n in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        Generator(f"sqrt{n}", *tight_enclosure(n))
        Generator(f"sqrt{n}", *workloads.enclosure(n))  # the benchmark's brackets
    for sym, lo, hi in (
        ("sqrt2", Fraction(3), Fraction(4)),
        ("sqrt2", Fraction(1), Fraction(7, 5)),  # 7/5 < sqrt2
        ("sqrt2", Fraction(3, 2), Fraction(2)),
        ("sqrt4", Fraction(201, 100), Fraction(3)),
        ("sqrt10", Fraction(-4), Fraction(-3)),
    ):
        with pytest.raises(DocumentError, match="does not contain the square root"):
            Generator(sym, lo, hi)
    with pytest.raises(DocumentError, match="square root of 2"):
        Generator("sqrt02", Fraction(3), Fraction(4))
    with pytest.raises(DocumentError, match="does not contain"):  # N past the int digit limit
        Generator("sqrt" + "7" * 5000, Fraction(1), Fraction(2))
    # other symbols, "sqrt0" included, name no positive root and are not checked
    for sym in ("g", "msqrt2", "sqrt2x", "sqrt0", "Sqrt2"):
        Generator(sym, Fraction(3), Fraction(4))


def test_table_uniqueness_and_lookup(table):
    assert table.symbols == ("1", "sqrt2", "sqrt3")
    assert table.index("sqrt3") == 2
    assert parse_expr("1", table).eval_interval() == (Fraction(1), Fraction(1))
    with pytest.raises(DocumentError):
        table.index("sqrt5")
    g = Generator("g", Fraction(1), Fraction(2))
    with pytest.raises(DocumentError):
        GeneratorTable([g, g])


def test_table_holds_at_most_max_generators():
    """Every value stores one numerator per generator, so the table size
    is bounded; the unit is not counted."""
    assert len(WIDE_TABLE) == MAX_GENERATORS + 1 == 33
    assert parse_expr("1*g31", WIDE_TABLE).eval_interval() == (Fraction(32), Fraction(33))
    with pytest.raises(DocumentError) as info:
        GeneratorTable(WIDE_TABLE.generators + (Generator("g32", Fraction(33), Fraction(34)),))
    assert str(info.value) == "a generator table holds at most 32 generators, got 33"


def _root(n: int, symbol=None) -> Generator:
    r = math.isqrt(n)
    return Generator(symbol or f"sqrt{n}", Fraction(r), Fraction(r + 1))


def test_table_rejects_provably_dependent_roots():
    for roots, message in (
        ([_root(2), _root(8)], "generator sqrt8 is a rational multiple of sqrt2: sqrt8 = 2*sqrt2"),
        ([_root(8), _root(2)], "generator sqrt2 is a rational multiple of sqrt8: sqrt2 = 1/2*sqrt8"),
        ([_root(4)], "generator sqrt4 is rational: sqrt4 = 2"),
        ([_root(1)], "generator sqrt1 is rational: sqrt1 = 1"),
        ([_root(2), _root(2, "sqrt02")], "generator sqrt02 is a rational multiple of sqrt2: sqrt02 = 1*sqrt2"),
        ([_root(3), _root(12)], "generator sqrt12 is a rational multiple of sqrt3: sqrt12 = 2*sqrt3"),
        # the first hit in table order, past the independent sqrt5
        ([_root(3), _root(5), _root(9), _root(20)], "generator sqrt9 is rational: sqrt9 = 3"),
    ):
        with pytest.raises(DocumentError) as info:
            GeneratorTable([Generator("g", Fraction(1), Fraction(2))] + roots)
        assert str(info.value) == message
    # long symbols and long multiples are clipped, so the report stays short
    square = (10**300 + 7) ** 2
    with pytest.raises(DocumentError) as info:
        GeneratorTable([_root(square)])
    assert str(info.value).endswith(f"... {len(str(10**300 + 7))} characters")
    assert len(str(info.value).encode()) < 512
    with pytest.raises(DocumentError) as info:
        GeneratorTable([_root(2), _root(2 * 25**300, "sqrt" + "0" * 500 + str(2 * 25**300))])
    assert str(info.value).endswith(f"... {len(str(5**300))} characters*sqrt2")
    assert len(str(info.value).encode()) < 512


def test_table_accepts_independent_roots():
    builtin = [Generator(sym, *CONVERGENT_BRACKETS[sym]) for sym in ("sqrt2", "sqrt3", "sqrt5")]
    table = GeneratorTable(builtin + [Generator(f"sqrt{n}", *workloads.enclosure(n)) for n in (6, 7, 10, 11, 13)])
    assert table.symbols[1:] == tuple(f"sqrt{n}" for n in workloads.RADICANDS)
    long_seven = int("7" * 500)
    assert len(GeneratorTable(builtin + [_root(long_seven)])) == 5
    # the 'sqrt' prefix alone does not make a root: these are plain symbols
    GeneratorTable(builtin + [Generator(s, Fraction(2), Fraction(3)) for s in ("sqrt0", "sqrt2x", "Sqrt4")])


# --- linear expressions ------------------------------------------------------


def test_lin_combine_examples(table):
    e = parse_expr("2 + 1*sqrt2", table)
    assert (e * 1 + e * -1).is_zero
    third = LinExpr.constant(table, Fraction(1, 3))
    two_thirds = LinExpr.constant(table, Fraction(2, 3))
    assert third * 1 + two_thirds * 1 == LinExpr.constant(table, 1)
    t3 = e * 1 + parse_expr("1*sqrt3", table) * -1
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
    assert e.eval_interval() == (2 + lo, 2 + hi)
    assert LinExpr.constant(table, 5).eval_interval() == (Fraction(5), Fraction(5))
    assert LinExpr.zero(table).eval_interval() == (Fraction(0), Fraction(0))


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
    g = parse_expr("1*g", table)
    with pytest.raises(AmbiguousComparison):
        g.cmp(LinExpr.constant(table, Fraction(3, 2)))
    # symbolic equality wins even with a coarse enclosure
    assert g.cmp(parse_expr("1*g", table)) == EQUAL


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
    lo, hi = (a - b).eval_interval()
    # the second round answers from the enclosures cached by the first
    for _ in range(2):
        if a == b:
            assert a.cmp(b) == EQUAL
        elif lo <= 0 <= hi:
            with pytest.raises(AmbiguousComparison) as info:
                a.cmp(b)
            assert str(info.value) == (
                f"cannot order {a} against {b}: enclosures overlap; "
                "declare tighter generator enclosures"
            )
        else:
            assert a.cmp(b) == (GREATER if lo > 0 else LESS)


# --- the exact sign of roots ------------------------------------------------


def _sqrt2_convergents(digits: int):
    """Two consecutive convergents p/q of sqrt2 with ``digits`` or more
    digits in q, one on each side of sqrt2."""
    p, q = 1, 1
    while q < 10 ** (digits - 1):
        p, q = p + 2 * q, p + q
    return (p, q), (p + 2 * q, p + q)


def test_exact_sign_of_a_4000_digit_convergent():
    """q*sqrt2 against p differs by about 10**-4000 when p/q is a
    4,000-digit convergent: ordered exactly, both ways round, both sides
    of sqrt2, at the convergent bracket."""
    table = KERNEL_TABLES[0]
    pairs = _sqrt2_convergents(4000)
    start = time.perf_counter()
    for p, q in pairs:
        root, rational = LinExpr(table, {1: q}), LinExpr.constant(table, p)
        want = GREATER if p * p < 2 * q * q else LESS
        assert (root.cmp(rational), rational.cmp(root)) == (want, -want)
    assert time.perf_counter() - start < 1
    assert {p * p < 2 * q * q for p, q in pairs} == {True, False}


def test_exact_sign_of_a_near_tie_over_three_roots():
    """c2*sqrt2 + c3*sqrt3 + c5*sqrt5 with 30-digit c against the integers
    on either side of it: the difference's enclosure at the convergent
    brackets is about 10**18 wide, and the oracle gives the answer."""
    table = KERNEL_TABLES[0]
    rng = random.Random(29)
    for _ in range(20):
        coeffs = [rng.randint(-(10**30), 10**30) for _ in range(3)]
        roots = LinExpr(table, dict(zip((1, 2, 3), coeffs)))
        with localcontext() as ctx:
            ctx.prec = 100
            n = math.floor(sum(c * Decimal(r).sqrt() for c, r in zip(coeffs, (2, 3, 5))))
        assert (sign_oracle(roots - n), sign_oracle(roots - (n + 1))) == (1, -1)
        for k, want in ((n, GREATER), (n + 1, LESS)):
            rational = LinExpr.constant(table, k)
            d_lo, d_hi = (roots - rational).eval_interval()
            assert d_lo < 0 < d_hi
            assert (roots.cmp(rational), rational.cmp(roots)) == (want, -want)


def test_exact_sign_never_trusts_another_generator():
    """A difference over the unit and roots is ordered exactly however
    wide the brackets; one with a user generator left in raises."""
    table = GeneratorTable([Generator("sqrt2", Fraction(1), Fraction(2)), Generator("g", Fraction(1), Fraction(2))])
    e = lambda text: parse_expr(text, table)
    assert e("1*sqrt2").cmp(e("3/2")) == LESS
    assert e("1*sqrt2 + 1*g").cmp(e("7/5 + 1*g")) == GREATER  # g cancels
    for a, b in (("1*g", "3/2"), ("1*sqrt2 + 1/1000*g", "3/2"), ("1*sqrt2 - 1*g", "0")):
        with pytest.raises(AmbiguousComparison, match="cannot order "):
            e(a).cmp(e(b))


# --- the integer enclosure kernel against termwise Fraction arithmetic -------


def _enclosures(table: GeneratorTable) -> list:
    """Each table generator's declared bracket, the unit's [1, 1] first."""
    return [(Fraction(1), Fraction(1))] + [(g.lo, g.hi) for g in table.generators]


def _ref_eval_interval(e: LinExpr) -> tuple:
    """The enclosure as it was computed before the integer kernel: one
    scaled generator interval per term, summed with Fraction arithmetic."""
    lo = hi = Fraction(0)
    brackets = _enclosures(e.table)
    for i, c in e.coeffs.items():
        g_lo, g_hi = brackets[i]
        lo, hi = (lo + c * g_lo, hi + c * g_hi) if c >= 0 else (lo + c * g_hi, hi + c * g_lo)
    return lo, hi


def _ref_cmp(a: LinExpr, b: LinExpr) -> int:
    """Sign of the difference's reference enclosure, or where that
    contains 0 the Decimal oracle's sign for a difference over the unit
    and roots alone, as in ``tests/test_validate_reference.py``."""
    if a == b:
        return EQUAL
    lo, hi = _ref_eval_interval(a - b)
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


def _negated(lo, hi):
    return -hi, -lo


KERNEL_TABLES = (
    # convergent brackets: lo and hi have different denominators
    GeneratorTable(Generator(s, *CONVERGENT_BRACKETS[s]) for s in ("sqrt2", "sqrt3", "sqrt5")),
    # 60-digit brackets, one of them negative
    GeneratorTable(
        [
            Generator("sqrt7", *tight_enclosure(7)),
            Generator("msqrt11", *_negated(*tight_enclosure(11))),
            Generator("sqrt2", *CONVERGENT_BRACKETS["sqrt2"]),
        ]
    ),
    # wide brackets, one negative, so that overlapping pairs are common
    GeneratorTable(
        [Generator("g", Fraction(1), Fraction(2)), Generator("m", Fraction(-7, 2), Fraction(-5, 2))]
    ),
)


def _digits(n: int):
    return st.integers(10 ** (n - 1), 10**n - 1)


kernel_coeffs = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(
        lambda num, den, neg: Fraction(-num if neg else num, den),
        st.integers(1, 80).flatmap(_digits),
        st.integers(1, 20).flatmap(_digits),
        st.booleans(),
    ),
)


@st.composite
def kernel_pairs(draw):
    table = draw(st.sampled_from(KERNEL_TABLES))
    exprs = st.dictionaries(st.integers(0, len(table) - 1), kernel_coeffs, max_size=len(table))
    a = LinExpr(table, draw(exprs))
    b = draw(st.one_of(exprs.map(lambda c: LinExpr(table, c)), st.just(LinExpr(table, a.coeffs))))
    return a, b


@given(kernel_pairs())
@example((LinExpr(KERNEL_TABLES[0]), LinExpr(KERNEL_TABLES[0])))  # zero against zero
@example((LinExpr(KERNEL_TABLES[1], {1: Fraction(-3, 7)}), LinExpr(KERNEL_TABLES[1])))
@example((LinExpr(KERNEL_TABLES[2], {1: 1}), LinExpr(KERNEL_TABLES[2], {0: -3})))  # ambiguous
@example((LinExpr(KERNEL_TABLES[2], {0: 2}), LinExpr(KERNEL_TABLES[2], {1: 1})))  # touching
# sqrt2 - 14142135623730/10^13 > 0, inside the convergent bracket's width
@example((LinExpr(KERNEL_TABLES[0], {1: 1}), LinExpr(KERNEL_TABLES[0], {0: Fraction(14142135623730, 10**13)})))
def test_kernel_matches_termwise_fraction_reference(pair):
    a, b = pair
    # the first round evaluates; the second answers from cached bounds and hashes
    for _ in range(2):
        for x, y in ((a, b), (b, a)):
            try:
                want = _ref_cmp(x, y)
            except AmbiguousComparison as exc:
                with pytest.raises(AmbiguousComparison) as info:
                    x.cmp(y)
                assert str(info.value) == str(exc)
            else:
                assert x.cmp(y) == want
        hash(a), hash(b)
    for e in (a, b, a - b):
        want_lo, want_hi = _ref_eval_interval(e)
        got = e.eval_interval()
        assert got == (want_lo, want_hi) and type(got[0]) is type(got[1]) is Fraction
        # the cached bounds are not reduced: equal as rationals, over positive denominators
        lo_n, lo_d, hi_n, hi_d = e._enclosure
        assert lo_d > 0 and hi_d > 0
        assert lo_n * want_lo.denominator == want_lo.numerator * lo_d
        assert hi_n * want_hi.denominator == want_hi.numerator * hi_d


@st.composite
def near_pairs(draw):
    """``(a, a + d)`` for a small ``d``, so that many pairs overlap."""
    table = draw(st.sampled_from(KERNEL_TABLES))
    index = st.integers(0, len(table) - 1)
    a = LinExpr(table, draw(st.dictionaries(index, kernel_coeffs, max_size=len(table))))
    scale = Fraction(1, 10 ** draw(st.integers(0, 14)))
    d = draw(st.dictionaries(index, small.map(lambda q: q * scale), max_size=2))
    return a, a + LinExpr(table, d)


@given(st.one_of(kernel_pairs(), near_pairs()))
# sqrt2 - 275807/195025 > 0 certified, enclosures overlapping
@example((parse_expr("10*sqrt2", KERNEL_TABLES[0]), parse_expr("9*sqrt2 + 275807/195025", KERNEL_TABLES[0])))
# a near tie that only the exact sign orders
@example((parse_expr("1*sqrt2", KERNEL_TABLES[0]), parse_expr("14142135623730/10000000000000", KERNEL_TABLES[0])))
def test_certified_greater_has_the_greater_lower_bound(pair):
    """An enclosure is the exact range of its expression over the box of
    generator brackets.  So an a > b that the difference's enclosure
    certifies holds on the whole box and forces lo(a) > lo(b): the
    lower-bound order of such values is their ``cmp`` order, which
    ``certified_order`` confirms pair by pair."""
    a, b = pair
    for x, y in ((a, b), (b, a)):
        if (x - y).eval_interval()[0] > 0:
            assert x.cmp(y) == GREATER
            assert x.eval_interval()[0] > y.eval_interval()[0]


# --- the stored form: one denominator, integer numerators, reduced -----------


def _oracle(terms) -> dict:
    """Termwise Fraction sum of ``(index, p, q)`` terms: the coefficient
    map with the zeros dropped."""
    out = {}
    for i, p, q in terms:
        out[i] = out.get(i, 0) + Fraction(p, q)
    return {i: c for i, c in sorted(out.items()) if c}


def _expr_text(table: GeneratorTable, terms) -> str:
    """The terms as written, unreduced: ``p/q*sym``, or a bare symbol for
    1/1 except as a negative first term, where the grammar has none."""
    parts = []
    for i, p, q in terms:
        body = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
        if i:
            bare = body == "1" and (parts or p > 0)
            body = table.symbols[i] if bare else f"{body}*{table.symbols[i]}"
        sign = "-" if p < 0 else "+"
        parts.append(f"{sign} {body}" if parts else f"-{body}" if p < 0 else body)
    return " ".join(parts)


def _assert_canonical(e: LinExpr):
    assert len(e._nums) == len(e.table)
    assert all(type(v) is int for v in e._nums)
    assert type(e._den) is int and e._den > 0
    assert math.gcd(e._den, *e._nums) == 1


def check_canonical_form(table: GeneratorTable, terms_a, terms_b, scalar: Fraction, k: int):
    """Parse, add, subtract, negate and scale against the termwise oracle;
    every result is in the stored form, and equal values share it."""
    a, b = parse_expr(_expr_text(table, terms_a), table), parse_expr(_expr_text(table, terms_b), table)
    # the same value spelt with every term scaled by k/k, in reverse order
    a2 = parse_expr(_expr_text(table, [(i, p * k, q * k) for i, p, q in reversed(terms_a)]), table)
    neg_b = [(i, -p, q) for i, p, q in terms_b]
    cases = [
        (a, _oracle(terms_a)),
        (a2, _oracle(terms_a)),
        (b, _oracle(terms_b)),
        (a + b, _oracle(terms_a + terms_b)),
        (a - b, _oracle(terms_a + neg_b)),
        (-b, _oracle(neg_b)),
        (a * scalar, _oracle([(i, p * scalar.numerator, q * scalar.denominator) for i, p, q in terms_a])),
    ]
    for e, want in cases:
        assert e.coeffs == want
        _assert_canonical(e)
        twin = LinExpr(table, want)
        assert e == twin and hash(e) == hash(twin) and (e._den, e._nums) == (twin._den, twin._nums)


def _signed(digits):
    return st.builds(lambda n, neg: -n if neg else n, digits, st.booleans())


# The largest table admitted; its terms use only its last three generators.
WIDE_TABLE = GeneratorTable(Generator(f"g{i}", Fraction(i + 1), Fraction(i + 2)) for i in range(MAX_GENERATORS))


@st.composite
def canonical_cases(draw):
    table = draw(st.sampled_from(KERNEL_TABLES + (WIDE_TABLE,)))
    first = len(table) - 3 if table is WIDE_TABLE else 0
    long_ints = st.integers(1, 80).flatmap(_digits)
    shared = draw(st.lists(long_ints, min_size=1, max_size=3))
    dens = st.one_of(st.sampled_from(shared), long_ints, st.integers(1, 4))
    nums = st.one_of(_signed(long_ints), st.integers(-3, 3))
    terms = st.lists(st.tuples(st.integers(first, len(table) - 1), nums, dens), min_size=1, max_size=8)
    return table, draw(terms), draw(terms), draw(kernel_coeffs), draw(st.integers(1, 10**6))


@given(canonical_cases())
@example((KERNEL_TABLES[0], [(1, 2, 4)], [(1, 1, 2)], Fraction(2), 3))  # 2/4*sqrt2 - 1/2*sqrt2
@example((KERNEL_TABLES[0], [(0, 1, 3), (0, 1, 6)], [(0, -1, 2)], Fraction(0), 1))  # 1/3 + 1/6 - 1/2
@example((KERNEL_TABLES[2], [(1, -1, 1), (1, 1, 1)], [(2, 6, 4)], Fraction(-4, 6), 7))  # -1*g + g
# over denominators 12 and 6, the sqrt2 terms cancel in the sum
@example((KERNEL_TABLES[0], [(1, 1, 6), (0, 1, 4)], [(1, -1, 6), (0, 1, 3)], Fraction(1), 1))
@example((WIDE_TABLE, [(32, 1, 2), (31, -1, 3)], [(32, -1, 2), (31, 1, 3)], Fraction(5, 3), 2))  # sum 0
def test_stored_form_matches_termwise_fraction_oracle(case):
    check_canonical_form(*case)


def test_spellings_of_one_value_are_one_form():
    t0, t2 = KERNEL_TABLES[0], KERNEL_TABLES[2]
    for table, x, y in ((t0, "2/4*sqrt2", "1/2*sqrt2"), (t0, "1/3 + 1/6", "1/2"), (t2, "1*g - 1*g", "0")):
        a, b = parse_expr(x, table), parse_expr(y, table)
        assert a == b and hash(a) == hash(b)
    third, sixth = LinExpr.constant(t0, Fraction(1, 3)), LinExpr.constant(t0, Fraction(1, 6))
    assert third + sixth == parse_expr("1/2", t0) and hash(third + sixth) == hash(parse_expr("1/2", t0))


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
    mids = [(lo + hi) / 2 for lo, hi in _enclosures(table)]
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
        (a_lo, a_hi), (b_lo, b_hi) = e1.eval_interval(), e2.eval_interval()
        inner_lo, inner_hi = (e1 + e2).eval_interval()
        assert a_lo + b_lo <= inner_lo <= inner_hi <= a_hi + b_hi


def _records(table):
    """One value of each record type, from calls where one is cheap."""
    t = bouwkamp_tiling(workloads.MORON_CODE, table, x_unit=parse_expr("1*sqrt2", table))
    one, sqrt2 = LinExpr.constant(table, 1), parse_expr("1*sqrt2", table)
    report = validate(Tiling(t.outer_w, t.outer_h, t.tiles[1:], table))
    return [
        Generator("g", Fraction(1, 2), Fraction(5, 2)),
        t.tiles[0],
        t,
        report.failures[0],
        report,
        decide(one, sqrt2).certificate,
        decide(one, sqrt2),
        decide(one, one * 2),
        refute_square_tiling(t),
        analyze_good_squares([q2(1, 1, table)], q2(1, 0, table), q2(1, 1, table)),
    ]


def test_copy_and_pickle_round_trip():
    table = tight_table(2, 3, 5)
    rng = random.Random(19)
    round_trips = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
    records = _records(table)
    assert repr(records[0]) == "Generator(symbol='g', lo=Fraction(1, 2), hi=Fraction(5, 2))"
    assert {type(v) for v in records} == {
        Generator, Placement, Tiling, Failure, ValidationReport, Certificate, Verdict, Refutation, GoodSquareAnalysis
    }
    assert Certificate(Fraction(-1)) != ValidationReport(Fraction(-1))  # equal fields, other type
    for v in records:
        for trip in round_trips:
            c = trip(v)
            assert type(c) is type(v) and c == v and repr(c) == repr(v)
            if not isinstance(v, (Failure, ValidationReport, Refutation)):  # a dict witness, here or in a failure
                assert hash(c) == hash(v)
            for name in type(v).__slots__:
                with pytest.raises(AttributeError):
                    setattr(c, name, None)
                with pytest.raises(AttributeError):
                    delattr(c, name)
    for _ in range(20):
        e, other = _random_expr(rng, table), _random_expr(rng, table)
        hash(e), e.eval_interval()  # fill the write-once slots first
        for trip in round_trips:
            c = trip(e)
            assert c == e and hash(c) == hash(e)
            assert c.cmp(e) == EQUAL and c.cmp(other) == e.cmp(other)
            with pytest.raises(AttributeError):
                c._hash = 0
            with pytest.raises(AttributeError):
                del c._hash
            assert c.table == table and c.table._brackets == table._brackets
    # a table compares, hashes and pickles by its generators; a basis by identity
    lengths = [LinExpr.constant(table, 1), parse_expr("1*sqrt2", table), parse_expr("2 + 3*sqrt2", table)]
    basis = extract_basis(lengths)
    for trip in round_trips:
        t = trip(table)
        assert type(t) is GeneratorTable and t == table and hash(t) == hash(table) and repr(t) == repr(table)
        assert (t._index, t._brackets) == (table._index, table._brackets)
        b = trip(basis)
        assert type(b) is Basis and b != basis and repr(b) != repr(basis)
        assert (b.elements, b.has_t0, b.rank) == (basis.elements, basis.has_t0, basis.rank)
        assert [b.coords(p) for p in lengths] == [basis.coords(p) for p in lengths]
        assert all(type(r) is tuple and type(r[1]) is tuple for r in b._rows)
    for v in (table, basis):
        for name in type(v).__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
    # no private container can be changed in place either
    assert all(type(r) is tuple and type(r[1]) is tuple for r in basis._rows)
    with pytest.raises(TypeError):
        table._index["sqrt2"] = 2
    assert parse_expr("1*sqrt2", table) == lengths[1]
    assert basis.coords_st(lengths[2]) == (2, 3) and lengths[1].eval_interval()[0] > 1


# --- grammar -----------------------------------------------------------------


def test_parse_expr_grammar(table):
    e = parse_expr("2 + 1*sqrt2 - 1*sqrt3", table)
    assert e.coeffs == {0: Fraction(2), 1: Fraction(1), 2: Fraction(-1)}
    assert parse_expr("  2+1*sqrt2-1*sqrt3 ", table) == e
    assert parse_expr("sqrt2", table) == parse_expr("1*sqrt2", table)
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


@pytest.mark.parametrize(
    "text, message, column, token",
    [
        ("", "empty expression", None, ""),
        ("   ", "empty expression (near '   ')", None, "   "),
        ("2 ^ 3", "unexpected character in expression at column 3 (near '^')", 3, "^"),
        ("2 +", "dangling operator at column 3 (near '+')", 3, "+"),
        ("1 1", "expected '+' or '-' at column 3 (near '1')", 3, "1"),
        ("2 * 3", "expected a symbol after '*' at column 5 (near '3')", 5, "3"),
        ("*1", "expected a rational or symbol at column 1 (near '*')", 1, "*"),
        ("1*sqrt5", "undeclared symbol 'sqrt5' (near 'sqrt5')", None, "sqrt5"),
        ("1/0*sqrt2", "rational with zero denominator (near '1/0')", None, "1/0"),
    ],
)
def test_parse_expr_error_branches(table, text, message, column, token):
    with pytest.raises(DocumentError) as exc:
        parse_expr(text, table)
    assert (str(exc.value), exc.value.column, exc.value.token) == (message, column, token)


def test_parse_expr_end_of_input_column(table):
    # the column just past the text, not the column of the rational
    for text in ("1*", "2 + 1* "):
        with pytest.raises(DocumentError) as exc:
            parse_expr(text, table)
        col = len(text) + 1
        assert str(exc.value) == f"expected a symbol after '*' at column {col} (near 'end of input')"
        assert (exc.value.column, exc.value.token) == (col, "end of input")


# The tokenize-then-parse reading of the grammar, as parse_expr had it
# before its one-regex scanner: the oracle for results and for the
# message, column and token of every error.
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<rational>-?[0-9]+(?:/[0-9]+)?)|(?P<symbol>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*])"
)


def _reference_parse(text, table):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise DocumentError("unexpected character in expression", column=pos + 1, token=text[pos])
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    if not tokens:
        raise DocumentError("empty expression", token=text)
    coeffs = {}

    def add(idx, c):
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + c

    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        kind, value, col = tokens[i]
        if not first:
            if kind == "rational" and value.startswith("-"):
                sign = Fraction(-1)
                value = value[1:]
            elif kind == "op" and value in "+-":
                if value == "-":
                    sign = Fraction(-1)
                i += 1
                if i >= len(tokens):
                    raise DocumentError("dangling operator", column=col, token=value)
                kind, value, col = tokens[i]
            else:
                raise DocumentError("expected '+' or '-'", column=col, token=value)
        first = False

        if kind == "rational":
            coeff = sign * parse_rational(value)
            i += 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "symbol":
                    bad = tokens[i] if i < len(tokens) else (None, "end of input", len(text) + 1)
                    raise DocumentError("expected a symbol after '*'", column=bad[2], token=bad[1])
                add(table.index(tokens[i][1]), coeff)
                i += 1
            else:
                add(0, coeff)
        elif kind == "symbol":
            add(table.index(value), sign)
            i += 1
        else:
            raise DocumentError("expected a rational or symbol", column=col, token=value)
    return LinExpr(table, coeffs)


def _outcome(parse, text):
    """The LinExpr, or the (message, column, token) of the error."""
    try:
        return parse(text, _PARSE_TABLE)
    except DocumentError as exc:
        return (str(exc), exc.column, exc.token)


_PARSE_TABLE = GeneratorTable([*tight_table(2, 3).generators, Generator("g", Fraction(1, 2), Fraction(5, 2))])
_BIG = "9" * 64
_OVER = "1" + "0" * 4300  # one digit past the default int-string limit
_PARSE_REJECTS = [
    "+1", " + 1*sqrt2", "- 1", "-sqrt2", " -g + 1", "2 - -1", "2 +-1", "1\t+ 1", "1 +\n1",
    "1\u00a0+ 1", "\u20031*sqrt2", "1*sqrt5", "2 + sqrt7", "1/0", "2 - 3/0*g", _OVER, "1/" + _OVER,
    f"2 + {_OVER}*g", "\u0661", "1 + \u0662*sqrt2", "", "   ", "1 1", "2sqrt2", "1*", "1 +", "1/2/3",
]
_ASCII_SPACES = st.sampled_from(["", " ", "  "])
_PARSE_SPACES = st.one_of(_ASCII_SPACES, st.sampled_from(["\t", "\n", "\u00a0", "\u2003"]))
_GOOD_COEFFS = st.sampled_from(["0", "1", "12", "007", "7/3", "12/8", "0/5", _BIG, f"{_BIG}/{_BIG[1:]}7"])
_PARSE_COEFFS = st.one_of(_GOOD_COEFFS, st.sampled_from(["1/0", _OVER, "\u0661", "3\u0662/4"]))
_DECLARED = st.sampled_from(["sqrt2", "sqrt3", "g"])
_PARSE_SYMBOLS = st.one_of(_DECLARED, st.sampled_from(["sqrt5", "_x"]))
_PARSE_TOKENS = st.one_of(_PARSE_COEFFS, _PARSE_SYMBOLS, st.sampled_from(["+", "-", "*", "/", "^", "--", "- -"]))


@st.composite
def _token_strings(draw):
    """Free token sequences, mostly malformed."""
    parts = [draw(_PARSE_SPACES)]
    for token in draw(st.lists(_PARSE_TOKENS, max_size=8)):
        parts += [token, draw(_PARSE_SPACES)]
    return "".join(parts)


@st.composite
def _expression_strings(draw):
    """Term sequences, half of them well formed with ASCII spaces.  The
    rest mixes in other whitespace, bad rationals, undeclared symbols and
    misplaced signs."""
    strict = draw(st.booleans())
    spaces = _ASCII_SPACES if strict else _PARSE_SPACES
    coeffs = _GOOD_COEFFS if strict else _PARSE_COEFFS
    symbols = _DECLARED if strict else _PARSE_SYMBOLS
    lead = ["", "", "-"] if strict else ["", "-", "+", "- "]
    ops = ["+", "-"] if strict else ["+", "-", "- -", "+-"]
    parts = [draw(spaces), draw(st.sampled_from(lead))]
    for k in range(draw(st.integers(1, 4))):
        if k:
            parts += [draw(spaces), draw(st.sampled_from(ops)), draw(spaces)]
        kind = draw(st.sampled_from(["rational", "symbol", "term", "term"]))
        if kind == "rational":
            parts.append(draw(coeffs))
        elif kind == "symbol":
            parts.append(draw(symbols))
        else:
            parts += [draw(coeffs), draw(spaces), "*", draw(spaces), draw(symbols)]
    parts.append(draw(spaces))
    return "".join(parts)


@pytest.mark.parametrize("text", _PARSE_REJECTS)
def test_fast_parser_rejects_outside_its_subset(text):
    """Texts outside the canonical form: other whitespace, signs the
    grammar forbids or allows only there, bad rationals, undeclared
    symbols and broken terms read as the reference reads them."""
    assert _outcome(parse_expr, text) == _outcome(_reference_parse, text)


@given(st.one_of(_token_strings(), _expression_strings(), _expression_strings(), st.sampled_from(_PARSE_REJECTS)))
@example("2 -1*sqrt2 + g - 1/2*g")
@example(f" -{_BIG}/7 * sqrt3 -  sqrt3 ")
@example("1/0 $")  # an unexpected character anywhere comes first
@example("1/0 *")  # then the rational's value, before the '*' check
@example("--1")
@example("2 --1")
@example("1 + *")
@example(" -g + 1")
@example("2 -1/0*g")  # the token is the rational without the term's sign
def test_parser_matches_reference(text):
    """parse_expr gives the reference's LinExpr, or raises its message,
    column and token."""
    got = _outcome(parse_expr, text)
    want = _outcome(_reference_parse, text)
    assert got == want
    if isinstance(want, LinExpr):
        assert got.table is want.table


def test_format_parse_round_trip(table):
    rng = random.Random(3)
    for _ in range(200):
        e = _random_expr(rng, table)
        assert parse_expr(format_expr(e), table) == e
    assert format_expr(LinExpr.zero(table)) == "0"


@given(st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20))
def test_rational_text_matches_str(q):
    assert rational_text(q) == str(q)


def test_rational_text_past_the_int_digit_limit():
    n = int("7" * 3000) ** 2 + 1  # 6000 digits
    q = Fraction(-n, 3)
    num, den = rational_text(q).split("/")
    assert Decimal(num) == -n and den == "3"
    assert Decimal(rational_text(n)) == n
    e = LinExpr(GeneratorTable([Generator("g", Fraction(1), Fraction(2))]), {0: n, 1: q})
    unit, g = format_expr(e).split(" - ")
    assert Decimal(unit) == n and g == rational_text(-q) + "*g"
