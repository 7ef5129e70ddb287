"""Basis extraction: the greedy underlining scan and coordinate solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqtile import (
    CommensurableSides,
    LinExpr,
    NotInSpan,
    commensurability_ratio,
    extract_basis,
    parse_expr,
)

from conftest import tight_table


@pytest.fixture(scope="module")
def table():
    return tight_table(2, 3)


def fig4_lengths(table):
    """The worked side-length list: 1, 2+sqrt2, 1/3, sqrt3, 2/3, sqrt3, 1, 2+sqrt2-sqrt3."""
    e = lambda s: parse_expr(s, table)
    return [
        e("1"),
        e("2 + 1*sqrt2"),
        e("1/3"),
        e("1*sqrt3"),
        e("2/3"),
        e("1*sqrt3"),
        e("1"),
        e("2 + 1*sqrt2 - 1*sqrt3"),
    ]


def test_fig4_selection_golden(table):
    lengths = fig4_lengths(table)
    basis = extract_basis(lengths)
    assert basis.elements == (lengths[0], lengths[1], lengths[3])
    assert basis.has_t0
    # every input reconstructs exactly from its coordinates
    for p, coords in zip(basis.inputs, basis.input_coords):
        assert basis.combine(coords) == p


def test_two_independent_inputs(table):
    one = LinExpr.constant(table, 1)
    r2 = parse_expr("1*sqrt2", table)
    basis = extract_basis([one, r2])
    assert basis.elements == (one, r2)
    assert basis.coords(r2) == (0, 1)


def test_dependent_third_input(table):
    one = LinExpr.constant(table, 1)
    r2 = parse_expr("1*sqrt2", table)
    p = parse_expr("3 - 2*sqrt2", table)
    basis = extract_basis([one, r2, p])
    assert basis.elements == (one, r2)
    # hand-solved 2x2 rational system: p = 3*1 + (-2)*sqrt2
    assert basis.coords(p) == (3, -2)


def test_coords_st_examples(table):
    basis = extract_basis(fig4_lengths(table))
    s0 = LinExpr.constant(table, 1)
    assert basis.coords_st(s0) == (1, 0)
    t3 = parse_expr("2 + 1*sqrt2 - 1*sqrt3", table)
    assert basis.coords_st(t3) == (0, 1)
    third = LinExpr.constant(table, Fraction(1, 3))
    assert basis.coords_st(third) == (Fraction(1, 3), 0)


def test_not_in_span(table):
    one = LinExpr.constant(table, 1)
    r2 = parse_expr("1*sqrt2", table)
    basis = extract_basis([one, r2])
    with pytest.raises(NotInSpan):
        basis.coords(parse_expr("1*sqrt3", table))


def test_commensurable_sides_error(table):
    one = LinExpr.constant(table, 1)
    with pytest.raises(CommensurableSides) as exc:
        extract_basis([one, LinExpr.constant(table, Fraction(3, 2))])
    assert exc.value.ratio == Fraction(3, 2)


def test_commensurable_sides_error_past_int_digit_limit(table):
    ratio = Fraction(10**5000 + 1, 3)
    with pytest.raises(CommensurableSides) as exc:
        extract_basis([LinExpr.constant(table, 1), LinExpr.constant(table, ratio)])
    assert exc.value.ratio == ratio
    assert str(exc.value).endswith("0001/3")


def test_relaxed_extraction_for_commensurable_sides(table):
    one = LinExpr.constant(table, 1)
    half = LinExpr.constant(table, Fraction(1, 2))
    basis = extract_basis([one, half, half], require_incommensurable=False)
    assert basis.elements == (one,)
    assert not basis.has_t0
    assert basis.coords_st(half) == (Fraction(1, 2), 0)


def test_extraction_preconditions(table):
    one = LinExpr.constant(table, 1)
    with pytest.raises(ValueError):
        extract_basis([one])
    with pytest.raises(ValueError):
        extract_basis([one, LinExpr.constant(table, -1)])


def test_commensurability_ratio_examples(table):
    e = lambda s: parse_expr(s, table)
    assert commensurability_ratio(e("1"), e("3/2")) == Fraction(3, 2)
    assert commensurability_ratio(e("1"), e("2 + 1*sqrt2")) is None
    assert commensurability_ratio(e("2 + 2*sqrt2"), e("3 + 3*sqrt2")) == Fraction(3, 2)
    assert commensurability_ratio(e("1*sqrt2"), e("1*sqrt3")) is None


def _random_lengths(rng, table, count):
    """Random positive expressions: rational combinations shifted positive."""
    out = [LinExpr.constant(table, 1), parse_expr("2 + 1*sqrt2", table)]
    while len(out) < count:
        e = LinExpr(
            table,
            {
                i: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for i in range(len(table))
                if rng.random() < 0.7
            },
        )
        # shift by a constant to certify positivity
        lo = e.eval_interval().lo
        if lo <= 0:
            e = e + LinExpr.constant(table, 1 - lo)
        if e.eval_interval().sign() > 0:
            out.append(e)
    return out


def _rank_oracle(vectors):
    """Plain fraction Gaussian elimination with reversed column order."""
    rows = [list(reversed(v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_selected_count_equals_independent_rank_oracle():
    table = tight_table(2, 3, 5)
    rng = random.Random(42)
    for _ in range(60):
        lengths = _random_lengths(rng, table, rng.randint(3, 10))
        try:
            basis = extract_basis(lengths)
        except CommensurableSides:
            basis = extract_basis(lengths, require_incommensurable=False)
        assert len(basis.elements) == _rank_oracle([p.coeff_vector() for p in lengths])
        assert basis.rank == len(basis.elements)
        for p, coords in zip(basis.inputs, basis.input_coords):
            assert basis.combine(coords) == p


def test_tail_order_changes_set_but_not_span(table):
    e = lambda s: parse_expr(s, table)
    head = [e("1"), e("2 + 1*sqrt2")]
    tail = [e("1/3"), e("1*sqrt3"), e("2/3"), e("1*sqrt3"), e("1"), e("2 + 1*sqrt2 - 1*sqrt3")]
    b1 = extract_basis(head + tail)
    b2 = extract_basis(head + list(reversed(tail)))
    # the reversed scan may underline 2+sqrt2-sqrt3 instead of sqrt3
    assert b1.elements != b2.elements
    assert len(b1.elements) == len(b2.elements)
    for x in b1.elements:
        b2.coords(x)  # no NotInSpan: span(b1) <= span(b2)
    for x in b2.elements:
        b1.coords(x)  # and conversely


def test_perturbed_coordinates_break_reconstruction(table):
    basis = extract_basis(fig4_lengths(table))
    for p, coords in zip(basis.inputs, basis.input_coords):
        for k in range(len(coords)):
            bumped = list(coords)
            bumped[k] += 1
            assert basis.combine(bumped) != p


# Positive coefficients keep every length certified positive.  sqrt7 is
# declared but never used by a side, so lengths involving it lie outside
# every extracted span.
SPAN_TABLE = tight_table(2, 3, 5, 7)
positive_sides = st.lists(
    st.builds(
        lambda cs: LinExpr(SPAN_TABLE, dict(enumerate(cs))),
        st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6), min_size=4, max_size=4),
    ).filter(lambda e: not e.is_zero),
    min_size=2,
    max_size=8,
)


@given(positive_sides, st.data())
def test_coords_of_inputs_sums_and_outside_lengths(sides, data):
    basis = extract_basis(sides, require_incommensurable=False)
    for p, coords in zip(basis.inputs, basis.input_coords):
        assert basis.coords(p) == coords
    p = data.draw(st.sampled_from(sides))
    q = data.draw(st.sampled_from(sides))
    total = basis.coords(p + q)
    assert total == tuple(a + b for a, b in zip(basis.coords(p), basis.coords(q)))
    assert basis.combine(total) == p + q
    outside = LinExpr.of_symbol(SPAN_TABLE, "sqrt7")
    with pytest.raises(NotInSpan):
        basis.coords(outside)
    with pytest.raises(NotInSpan):
        basis.coords(p + outside)
