"""Basis extraction: the greedy underlining scan and coordinate solving."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqtile.basis
from sqtile import (
    AmbiguousComparison,
    Generator,
    GeneratorTable,
    LinExpr,
    NotInSpan,
    Placement,
    TableMismatch,
    Tiling,
    decide,
    extract_basis,
    parse_expr,
    y_area,
)
from sqtile.cli import build_tiling, parse_document

from conftest import BOUWKAMP_CODES, combine, tight_enclosure, tight_table, workloads


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
    for p in lengths:
        assert combine(basis, basis.coords(p)) == p


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


def test_input_coordinates_are_read_only_and_survive_copies(table):
    """The coordinates of the inputs cannot be rewritten in place: a
    write would change what ``coords`` says of an input, and so every y
    area, as here for h = 1*sqrt2 (y(h) = -1 would become 5).  Copies and
    pickles rebuild the same coordinates."""
    w, h = LinExpr.constant(table, 1), parse_expr("1*sqrt2", table)
    basis = extract_basis([w, h])
    assert y_area(w, h, basis, -1) == -1
    with pytest.raises(TypeError):
        basis._known[h] = (Fraction(5), Fraction(0))
    assert y_area(w, h, basis, -1) == -1
    lengths = fig4_lengths(table)
    basis = extract_basis(lengths)
    for other in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert other is not basis
        assert other.elements == basis.elements and other.has_t0 == basis.has_t0
        for p in lengths + [parse_expr("5 + 1*sqrt2 - 7/2*sqrt3", table)]:
            assert other.coords(p) == basis.coords(p)


def test_coordinates_stay_integers_until_asked(monkeypatch):
    """Extraction keeps each input's coordinates as integer numerators
    over one denominator, so extracting a 64-digit columns row builds no
    Fraction, and ``y_area`` builds two per call: y and the area.  A
    pickled copy of the basis answers ``coords`` with equal Fractions."""
    doc = workloads.columns(random.Random(6), 13, 6, 64)
    _, tiling = build_tiling(parse_document(doc.data))
    lengths = tiling.side_lengths()
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    y = Fraction(-3, 7)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    basis = extract_basis(lengths)
    assert built == []
    for w, h in zip(lengths[::2], lengths[1::2]):  # the outer sides, then each tile's
        del built[:]
        y_area(w, h, basis, y)
        assert len(built) <= 2
    monkeypatch.undo()
    copied = pickle.loads(pickle.dumps(basis))
    for p in lengths:
        coords = copied.coords(p)
        assert coords == basis.coords(p) and {type(c) for c in coords} == {Fraction}


def test_coords_refuse_a_length_over_another_table():
    """A table of the same size must not alias: 1*sqrt3 over {sqrt3}
    would otherwise read the coordinates of 1*sqrt2 over {sqrt2}, and its
    y area at -1 would come out -1.  An equal table, as a pickled copy
    carries, still answers."""
    sqrt2, sqrt3 = tight_table(2), tight_table(3)
    one = LinExpr.constant(sqrt2, 1)
    basis = extract_basis([one, parse_expr("1*sqrt2", sqrt2)])
    other = parse_expr("1*sqrt3", sqrt3)
    with pytest.raises(TableMismatch):
        basis.coords(other)
    with pytest.raises(TableMismatch):
        y_area(one, other, basis, -1)
    copied = pickle.loads(pickle.dumps(parse_expr("1 + 1*sqrt2", sqrt2)))
    assert copied.table is not sqrt2
    assert basis.coords(copied) == (1, 1)
    assert y_area(one, copied, basis, -1) == 0


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


def test_commensurable_sides_leave_t0_unselected(table):
    one = LinExpr.constant(table, 1)
    t0 = LinExpr.constant(table, Fraction(3, 2))
    basis = extract_basis([one, t0])
    assert basis.elements == (one,)
    assert not basis.has_t0
    assert basis.coords(t0) == (Fraction(3, 2),)


def test_commensurable_ratio_past_int_digit_limit(table):
    ratio = Fraction(10**5000 + 1, 3)
    w, h = LinExpr.constant(table, 1), LinExpr.constant(table, ratio)
    assert extract_basis([w, h]).coords(h) == (ratio,)
    verdict = decide(w, h)
    assert verdict.ratio == ratio
    assert verdict.as_dict()["ratio"].endswith("0001/3")


def test_relaxed_extraction_for_commensurable_sides(table):
    one = LinExpr.constant(table, 1)
    half = LinExpr.constant(table, Fraction(1, 2))
    basis = extract_basis([one, half, half])
    assert basis.elements == (one,)
    assert not basis.has_t0
    assert basis.coords_st(half) == (Fraction(1, 2), 0)


def test_extraction_preconditions(table):
    one = LinExpr.constant(table, 1)
    with pytest.raises(ValueError):
        extract_basis([one])
    with pytest.raises(ValueError):
        extract_basis([one, LinExpr.constant(table, -1)])


def test_extraction_certifies_positivity_like_decide(table):
    one = LinExpr.constant(table, 1)
    for bad in (LinExpr.zero(table), parse_expr("1 - 1*sqrt2", table)):
        with pytest.raises(ValueError, match="must be positive"):
            extract_basis([one, bad])
    coarse = GeneratorTable([Generator("g", Fraction(1, 2), Fraction(5, 2))])
    ambiguous = parse_expr("-1 + 1*g", coarse)
    with pytest.raises(AmbiguousComparison, match=r"cannot order -1 \+ 1\*g against 0"):
        extract_basis([LinExpr.constant(coarse, 1), ambiguous])


def test_commensurability_ratio_examples(table):
    e = lambda s: parse_expr(s, table)

    def ratio(s0, t0):
        basis = extract_basis([e(s0), e(t0)])
        return None if basis.has_t0 else basis.coords(e(t0))[0]

    assert ratio("1", "3/2") == Fraction(3, 2)
    assert ratio("1", "2 + 1*sqrt2") is None
    assert ratio("2 + 2*sqrt2", "3 + 3*sqrt2") == Fraction(3, 2)
    assert ratio("1*sqrt2", "1*sqrt3") is None


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
        lo = e.eval_interval()[0]
        if lo <= 0:
            e = e + LinExpr.constant(table, 1 - lo)
        if e.eval_interval()[0] > 0:
            out.append(e)
    return out


def _dense(p: LinExpr) -> list:
    """The coefficients of ``p``, one per generator of its table."""
    coeffs = p.coeffs
    return [coeffs.get(i, Fraction(0)) for i in range(len(p.table))]


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
        basis = extract_basis(lengths)
        assert len(basis.elements) == _rank_oracle([_dense(p) for p in lengths])
        assert basis.rank == len(basis.elements)
        for p in lengths:
            assert combine(basis, basis.coords(p)) == p
        # non-inputs are solved by the elimination pass, not the input table
        for _ in range(3):
            q = LinExpr.zero(table)
            for p in lengths:
                big = 10 ** rng.randint(1, 64)
                q = q + p * Fraction(rng.randint(-big, big), rng.randint(1, big))
            assert q not in lengths
            assert combine(basis, basis.coords(q)) == q


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
    lengths = fig4_lengths(table)
    basis = extract_basis(lengths)
    for p in lengths:
        coords = basis.coords(p)
        for k in range(len(coords)):
            bumped = list(coords)
            bumped[k] += 1
            assert combine(basis, bumped) != p


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
    basis = extract_basis(sides)
    for p in sides:
        coords = basis.coords(p)
        assert len(coords) == len(basis.elements)
        assert combine(basis, coords) == p
    p = data.draw(st.sampled_from(sides))
    q = data.draw(st.sampled_from(sides))
    total = basis.coords(p + q)
    assert total == tuple(a + b for a, b in zip(basis.coords(p), basis.coords(q)))
    assert combine(basis, total) == p + q
    outside = parse_expr("1*sqrt7", SPAN_TABLE)
    with pytest.raises(NotInSpan):
        basis.coords(outside)
    with pytest.raises(NotInSpan):
        basis.coords(p + outside)


# --- the elimination against a termwise Fraction oracle ------------------------

# sqrtN enclosures to 200 digits keep 64-digit combinations certified positive
ORACLE_TABLES = {
    n: GeneratorTable(Generator(f"sqrt{r}", *tight_enclosure(r, 200)) for r in (2, 3, 5, 7, 11, 13, 17)[: n - 1])
    for n in range(2, 9)
}


def _solve(columns, target):
    """Coordinates c with sum_k c[k] * columns[k] == target, or None when
    ``target`` is outside their span.  ``columns`` are independent; plain
    Gauss-Jordan elimination with one Fraction operation per entry."""
    k = len(columns)
    m = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    pivots = []
    for j in range(k):
        r = len(pivots)
        i = next(i for i in range(r, len(m)) if m[i][j] != 0)
        m[r], m[i] = m[i], m[r]
        m[r] = [v / m[r][j] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(j)
    if any(row[k] != 0 for row in m[k:]):
        return None
    return [m[r][k] for r in range(k)]


def _oracle_scan(lengths):
    """The greedy in-order scan, each length solved from scratch."""
    elements, coords = [], []
    for p in lengths:
        c = _solve([_dense(e) for e in elements], _dense(p))
        if c is None:
            c = [Fraction(0)] * len(elements) + [Fraction(1)]
            elements.append(p)
        coords.append(c)
    return elements, [tuple(c + [Fraction(0)] * (len(elements) - len(c))) for c in coords]


@st.composite
def _big_fraction(draw):
    num = draw(st.integers(1, 64).flatmap(lambda d: st.integers(-(10**d) + 1, 10**d - 1)))
    den = draw(st.integers(1, 64).flatmap(lambda d: st.integers(1, 10**d - 1)))
    return Fraction(num, den)


@st.composite
def _oracle_case(draw):
    """Lengths over 2-8 generators (the unit included) with 1-64-digit
    coefficients: free vectors, combinations and exact repeats of earlier
    lengths (t0 may repeat s0), and a t0 that may be a rational multiple
    of s0; plus lengths that are no input, and one that is."""
    table = ORACLE_TABLES[draw(st.integers(2, 8))]
    n = len(table)
    vectors = []

    def combination():
        vec = [Fraction(0)] * n
        for v in vectors:
            c = draw(st.one_of(st.just(Fraction(0)), _big_fraction()))
            vec = [a + c * b for a, b in zip(vec, v)]
        return vec

    for i in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["free", "free", "combination", "repeat"] + ["multiple"] * (i == 1)))
        if kind == "repeat" and vectors:
            vectors.append(draw(st.sampled_from(vectors)))
            continue
        if kind == "multiple":
            vec = [draw(_big_fraction()) * a for a in vectors[0]]
        elif kind == "combination" and vectors:
            vec = combination()
        else:
            vec = [draw(st.one_of(st.just(Fraction(0)), _big_fraction())) for _ in range(n)]
        p = LinExpr(table, dict(enumerate(vec)))
        if p.is_zero:
            p = LinExpr.constant(table, draw(st.integers(1, 10**64)))
        elif p.cmp(LinExpr.zero(table)) < 0:
            p = -p
        vectors.append(_dense(p))
    others = [combination() for _ in range(2)]
    others.append([draw(st.one_of(st.just(Fraction(0)), _big_fraction())) for _ in range(n)])
    others.append(draw(st.sampled_from(vectors)))
    return [LinExpr(table, dict(enumerate(v))) for v in vectors], [LinExpr(table, dict(enumerate(v))) for v in others]


def _assert_matches_oracle(lengths, others):
    basis = extract_basis(lengths)
    elements, coords = _oracle_scan(lengths)
    assert basis.elements == tuple(elements)
    assert basis.has_t0 == (len(_oracle_scan(lengths[:2])[0]) == 2)
    assert basis.rank == len(elements)
    assert tuple(basis.coords(p) for p in lengths) == tuple(coords)
    for q in others:
        want = _solve([_dense(e) for e in elements], _dense(q))
        if want is None:
            with pytest.raises(NotInSpan):
                basis.coords(q)
        else:
            assert basis.coords(q) == tuple(want)


@given(_oracle_case())
def test_extraction_matches_fraction_elimination_oracle(case):
    _assert_matches_oracle(*case)


def test_square_tiling_side_lengths_match_oracle():
    """The side lengths of a claimed square tiling: every tile has
    w == h, and an outer square repeats s0 as t0."""
    table = ORACLE_TABLES[3]
    one, r2, r3 = (LinExpr(table, {i: 1}) for i in range(3))
    units = (one + r2, r2 * Fraction(1, 3), one + r3)
    squares, w, h = workloads.bouwkamp_squares(BOUWKAMP_CODES["duijvestijn"])
    assert w == h
    u = units[0]
    for unit in (lambda s: u, lambda s: units[s % 3]):
        tiles = tuple(Placement(u * x, u * y, unit(s) * s, unit(s) * s) for x, y, s in squares)
        lengths = Tiling(u * w, u * h, tiles, table).side_lengths()
        assert lengths[0] == lengths[1] and all(a == b for a, b in zip(lengths[2::2], lengths[3::2]))
        _assert_matches_oracle(lengths, [lengths[2] + lengths[-1], r3, one])


@pytest.mark.parametrize("k", [6, 7])
def test_extraction_reduces_each_distinct_length_once(monkeypatch, k):
    """A columns row over k width generators: one reduction per distinct
    side length, and at most rank * (rank - 1) / 2 row rebuilds."""
    doc = workloads.columns(random.Random(k), 13, k, 64)
    _, tiling = build_tiling(parse_document(doc.data))
    lengths = tiling.side_lengths()
    reduced, rebuilt = [], []
    reduce, pivot_on = sqtile.basis._reduce, sqtile.basis._pivot_on

    def counted_reduce(rows, scale, p, width):
        reduced.append(p)
        return reduce(rows, scale, p, width)

    def counted_pivot_on(rows, *args):
        rebuilt.append(len(rows))
        return pivot_on(rows, *args)

    monkeypatch.setattr(sqtile.basis, "_reduce", counted_reduce)
    monkeypatch.setattr(sqtile.basis, "_pivot_on", counted_pivot_on)
    basis = extract_basis(lengths)
    assert basis.rank == doc.expect["rank"] == k + 2
    assert len(set(lengths)) < len(lengths) // 2
    assert len(reduced) == len(set(reduced)) == len(set(lengths))
    assert sum(rebuilt) <= basis.rank * (basis.rank - 1) // 2
