"""Tilability verdicts, certificates, and refutation of claimed square tilings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sqtile import (
    LinExpr,
    Placement,
    RefutationKind,
    Tiling,
    ValidationReport,
    decide,
    euclid_tiling,
    extract_basis,
    parse_expr,
    refute_square_tiling,
    validate,
    verify_certificate,
    y_area,
)
from sqtile.dehn import Certificate

from conftest import combine, guillotine_tiling, rand_fraction, tight_table


@pytest.fixture(scope="module")
def table():
    return tight_table(2, 3)


def test_decide_not_tilable_examples(table):
    e = lambda s: parse_expr(s, table)
    for h in ("1*sqrt2", "1 + 1*sqrt2", "2 + 1*sqrt2"):
        verdict = decide(e("1"), e(h))
        assert not verdict.tilable
        assert verdict.certificate.y == Fraction(-1)
        assert verify_certificate(e("1"), e(h), verdict.certificate)


def test_decide_tilable_examples(table):
    e = lambda s: parse_expr(s, table)
    assert decide(e("3"), e("2")).ratio == Fraction(2, 3)
    assert decide(e("1"), e("1")).ratio == 1
    assert decide(e("2 + 2*sqrt2"), e("3 + 3*sqrt2")).ratio == Fraction(3, 2)


def test_decide_requires_positive_sides(table):
    e = lambda s: parse_expr(s, table)
    with pytest.raises(ValueError):
        decide(e("0"), e("1"))
    with pytest.raises(ValueError):
        decide(e("1"), e("-1 - 1*sqrt2"))


def test_decide_symmetry_and_scale_invariance(table):
    e = lambda s: parse_expr(s, table)
    rng = random.Random(31)
    pairs = [(e("3"), e("2")), (e("1"), e("2 + 1*sqrt2")), (e("2 + 2*sqrt2"), e("3 + 3*sqrt2"))]
    for _ in range(30):
        w = e("1") * rand_fraction(rng, 9, 9) + parse_expr("1*sqrt2", table) * rand_fraction(rng, 9, 9)
        h = e("1") * rand_fraction(rng, 9, 9) + parse_expr("1*sqrt3", table) * rand_fraction(rng, 9, 9)
        pairs.append((w, h))
    for w, h in pairs:
        v1, v2 = decide(w, h), decide(h, w)
        assert v1.tilable == v2.tilable
        if v1.tilable:
            assert v1.ratio * v2.ratio == 1
        lam = rand_fraction(rng, 9, 9)
        v3 = decide(w * lam, h * lam)
        assert v3.tilable == v1.tilable
        if v1.tilable:
            assert v3.ratio == v1.ratio


def test_verify_certificate_rejects_commensurable_sides(table):
    e = lambda s: parse_expr(s, table)
    cert = Certificate(Fraction(-1))
    assert not verify_certificate(e("1"), e("3/2"), cert)
    assert not verify_certificate(e("2 + 2*sqrt2"), e("3 + 3*sqrt2"), cert)


def test_certificate_rejects_nonnegative_y():
    with pytest.raises(ValueError):
        Certificate(Fraction(0))
    with pytest.raises(ValueError):
        Certificate(Fraction(1, 2))


def test_certificate_soundness_square_sums_nonnegative(table):
    # any list of squares with sides in a basis span has y-area sum >= 0 at y = -1
    e = lambda s: parse_expr(s, table)
    basis = extract_basis([e("1"), e("2 + 1*sqrt2"), e("1*sqrt3")])
    rng = random.Random(37)
    for _ in range(100):
        sides = [
            combine(basis, [rand_fraction(rng, 8, 4, signed=True) for _ in basis.elements])
            for _ in range(rng.randint(1, 6))
        ]
        total = sum(y_area(s, s, basis, Fraction(-1)) for s in sides)
        assert total >= 0


def test_refute_blatant_non_square(table):
    e = lambda s: parse_expr(s, table)
    r2 = e("1*sqrt2")
    tiles = (
        Placement(e("0"), e("0"), e("1"), e("1")),
        Placement(e("0"), e("1"), e("1"), r2 - e("1")),
    )
    t = Tiling(e("1"), r2, tiles, table)
    refutation = refute_square_tiling(t)
    assert refutation.kind is RefutationKind.TILE_NOT_SQUARE
    assert refutation.witness["tile"] == 1
    assert t.tiles[1].w != t.tiles[1].h


def test_refute_undersized_cover(table):
    e = lambda s: parse_expr(s, table)
    half = e("1/2")
    tiles = tuple(
        Placement(half * i, half * j, half, half) for i in range(2) for j in range(2)
    )
    t = Tiling(e("1"), e("1*sqrt2"), tiles, table)
    refutation = refute_square_tiling(t)
    assert refutation.kind is RefutationKind.GEOMETRY_INVALID
    kinds = {f["kind"] for f in refutation.witness["failures"]}
    assert "gap" in kinds


def test_refute_gap_in_constructed_fixture(table):
    e = lambda s: parse_expr(s, table)
    t0 = e("2 + 1*sqrt2")
    # corrupt a plausible square list: drop the middle band entirely
    tiles = (
        Placement(e("0"), e("0"), e("1"), e("1")),
        Placement(e("0"), t0 - e("1"), e("1"), e("1")),
    )
    t = Tiling(e("1"), t0, tiles, table)
    refutation = refute_square_tiling(t)
    assert refutation.kind is RefutationKind.GEOMETRY_INVALID
    report = validate(t)
    assert not report.is_valid  # witness re-checks
    assert any(f.kind in ("gap", "overlap") for f in report.failures)


def test_refute_requires_incommensurable_outer(table):
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("1"), (Placement(e("0"), e("0"), e("1"), e("1")),), table)
    with pytest.raises(ValueError):
        refute_square_tiling(t)
    t = Tiling(e("2"), e("3"), (Placement(e("0"), e("0"), e("2"), e("3")),), table)
    with pytest.raises(ValueError, match="ratio 3/2"):
        refute_square_tiling(t)


def test_refute_additivity_violated_witness(table, monkeypatch):
    # a validator that passes every claim lets a one-square claim on the
    # 1 x sqrt2 rectangle reach the exact additivity check
    monkeypatch.setattr("sqtile.dehn.validate", lambda t: ValidationReport(()))
    e = lambda s: parse_expr(s, table)
    t = Tiling(e("1"), e("1*sqrt2"), (Placement(e("0"), e("0"), e("1"), e("1")),), table)
    refutation = refute_square_tiling(t)
    assert refutation.kind is RefutationKind.ADDITIVITY_VIOLATED
    assert refutation.witness == {"y": "-1", "outer_y_area": "-1", "tile_y_area_sum": "1"}


def test_refute_propagates_ambiguity_with_guidance():
    from sqtile import AmbiguousComparison, Generator, GeneratorTable

    coarse = GeneratorTable([Generator("g", Fraction(9, 10), Fraction(11, 10))])
    e = lambda s: parse_expr(s, coarse)
    tiles = (
        Placement(e("0"), e("0"), e("1*g"), e("1*g")),
        Placement(e("1"), e("0"), e("2 - 1*g"), e("2 - 1*g")),
    )
    t = Tiling(e("2"), e("1*g"), tiles, coarse)
    with pytest.raises(AmbiguousComparison) as exc:
        refute_square_tiling(t)
    assert "tighter" in str(exc.value)


def test_refute_mislabeled_rectangle_tilings(table):
    e = lambda s: parse_expr(s, table)
    rng = random.Random(41)
    for _ in range(25):
        t = guillotine_tiling(rng, e("1"), e("2 + 1*sqrt2"), depth=4)
        refutation = refute_square_tiling(t)
        assert refutation.kind in (
            RefutationKind.GEOMETRY_INVALID,
            RefutationKind.TILE_NOT_SQUARE,
        )
        if refutation.kind is RefutationKind.TILE_NOT_SQUARE:
            i = refutation.witness["tile"]
            assert t.tiles[i].w != t.tiles[i].h


def test_tilable_soundness_via_construction(table):
    rng = random.Random(43)
    e = lambda s: parse_expr(s, table)
    for _ in range(25):
        w, h = rand_fraction(rng, 20, 20), rand_fraction(rng, 20, 20)
        verdict = decide(LinExpr.constant(table, w), LinExpr.constant(table, h))
        assert verdict.tilable and verdict.ratio == h / w
        t = euclid_tiling(w, h)
        assert validate(t).is_valid
        assert all(p.w == p.h for p in t.tiles)
