"""Acceptance suite: one test per criterion, exact counts, zero tolerance.

Every check here is exact rational arithmetic; there are no numeric
tolerances to tune.  A per-criterion PASS/FAIL summary is printed by the
conftest terminal hook.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from sqtile import (
    Contradiction,
    Placement,
    RefutationKind,
    Sqrt2Num,
    Tiling,
    additivity_check,
    analyze_good_squares,
    continued_fraction,
    decide,
    euclid_tiling,
    extract_basis,
    parse_expr,
    refute_square_tiling,
    validate,
    verify_certificate,
    x_area,
    x_area_nonneg_for_all_x,
    y_area,
)
from sqtile.cli import (
    build_tiling,
    document_from_tiling,
    parse_document,
    render_svg,
    run_command,
    serialize_document,
)

from conftest import guillotine_tiling, rand_fraction, tight_table


# --- criterion 1: Fig. 4 golden test -----------------------------------------


def test_criterion_1_fig4_golden(fig4_doc):
    _, tiling = build_tiling(fig4_doc)
    assert validate(tiling).is_valid

    lengths = tiling.side_lengths()
    basis = extract_basis(lengths)
    table = tiling.table
    expected = (
        parse_expr("1", table),
        parse_expr("2 + 1*sqrt2", table),
        parse_expr("1*sqrt3", table),
    )
    assert basis.elements == expected  # selected in input order

    ys = [Fraction(-5), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(7)]
    assert additivity_check(tiling, basis, ys)
    # additivity is exact equality at each y, not an approximation
    for y in ys:
        outer = y_area(tiling.outer_w, tiling.outer_h, basis, y)
        assert outer == y
        assert outer == sum(y_area(p.w, p.h, basis, y) for p in tiling.tiles)


# --- criterion 2: tilability verdicts ----------------------------------------


def test_criterion_2_dehn_verdicts():
    table = tight_table(2)
    e = lambda s: parse_expr(s, table)

    for height in ("1*sqrt2", "1 + 1*sqrt2", "2 + 1*sqrt2"):
        verdict = decide(e("1"), e(height))
        assert not verdict.tilable
        cert = verdict.certificate
        assert cert.y == Fraction(-1)
        # re-verify: the outer y-area at -1 is exactly -1
        basis = extract_basis([e("1"), e(height)])
        assert y_area(e("1"), e(height), basis, Fraction(-1)) == Fraction(-1)
        assert verify_certificate(e("1"), e(height), cert)

    for w, h, ratio in (
        ("3", "2", Fraction(2, 3)),
        ("1", "1", Fraction(1)),
        ("2 + 2*sqrt2", "3 + 3*sqrt2", Fraction(3, 2)),
    ):
        verdict = decide(e(w), e(h))
        assert verdict.tilable and verdict.ratio == ratio


# --- criterion 3: constructive direction -------------------------------------


def test_criterion_3_euclid_tilings():
    rng = random.Random(2203)
    for _ in range(500):
        w, h = rand_fraction(rng, 50, 50), rand_fraction(rng, 50, 50)
        t = euclid_tiling(w, h)
        assert validate(t).is_valid
        assert all(p.w == p.h for p in t.tiles)
        ratio = max(w, h) / min(w, h)
        assert len(t.tiles) == sum(continued_fraction(ratio))

    assert len(euclid_tiling(2, 3).tiles) == 3
    assert len(euclid_tiling(8, 13).tiles) == 6


# --- criterion 4: additivity at scale ----------------------------------------


def test_criterion_4_additivity_at_scale():
    rng = random.Random(1903)
    tables = [tight_table(2), tight_table(2, 3), tight_table(2, 3, 5)]
    for _ in range(200):
        table = rng.choice(tables)
        gens = table.symbols[1:]
        w = parse_expr(rng.choice(["1", "3/2", "2"]), table)
        h = parse_expr(f"{rng.randint(0, 2)} + {rng.randint(1, 3)}*{rng.choice(gens)}", table)
        t = guillotine_tiling(rng, w, h, depth=rng.randint(2, 6))
        basis = extract_basis(t.side_lengths())
        ys = [rand_fraction(rng, 30, 10, signed=True) for _ in range(10)]
        assert additivity_check(t, basis, ys)  # exact equality at every y


# --- criterion 5: conjugation and x-area identities ---------------------------


def test_criterion_5_conjugation_and_x_area_identities():
    rng = random.Random(1742)

    def rand_good():
        return Sqrt2Num(
            Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
        )

    for _ in range(1000):
        s, t = rand_good(), rand_good()
        assert (s + t).conj() == s.conj() + t.conj()
        assert (s * t).conj() == s.conj() * t.conj()
        assert x_area(s, t, Sqrt2Num(0, 1)) == s * t
        assert x_area(s, t, -Sqrt2Num(0, 1)) == (s * t).conj()


# --- criterion 6: nonnegative areas iff rational ratio ------------------------


def test_criterion_6_task4_equivalence():
    rng = random.Random(1968)

    def rand_positive():
        while True:
            s = Sqrt2Num(
                Fraction(rng.randint(0, 20), rng.randint(1, 10)),
                Fraction(rng.randint(-6, 20), rng.randint(1, 10)),
            )
            if s.sign() > 0:
                return s

    for _ in range(1000):
        w = rand_positive()
        if rng.random() < 0.5:
            h = w * Fraction(rng.randint(1, 12), rng.randint(1, 12))
        else:
            h = rand_positive()
        # h/w is rational iff this 2x2 determinant is zero
        rational_ratio = h.a * w.b == h.b * w.a
        assert x_area_nonneg_for_all_x(w, h) == rational_ratio


# --- criterion 7: refutation exhaustiveness -----------------------------------


def _adversarial_tiling(rng, kind: int) -> Tiling:
    table = tight_table(2, 3)
    e = lambda s: parse_expr(s, table)
    outer_w = e(rng.choice(["1", "3/2"]))
    outer_h = e(rng.choice(["1 + 1*sqrt2", "2 + 1*sqrt2", "1*sqrt3"]))

    if kind == 0:  # a genuine rectangle tiling mislabeled as a square tiling
        return guillotine_tiling(rng, outer_w, outer_h, depth=rng.randint(1, 4))
    if kind == 1:  # gap: delete one tile
        t = guillotine_tiling(rng, outer_w, outer_h, depth=rng.randint(2, 4))
        if len(t.tiles) > 1:
            k = rng.randrange(len(t.tiles))
            return Tiling(t.outer_w, t.outer_h, t.tiles[:k] + t.tiles[k + 1 :], table)
        return t
    if kind == 2:  # overlap: duplicate one tile
        t = guillotine_tiling(rng, outer_w, outer_h, depth=rng.randint(1, 4))
        return Tiling(t.outer_w, t.outer_h, t.tiles + (t.tiles[rng.randrange(len(t.tiles))],), table)
    # kind 3: scaled square stacks that under- or overshoot the outer height
    n = rng.randint(1, 3)
    square = euclid_tiling(Fraction(1), Fraction(n))
    tiles = tuple(_scaled_placement(p, outer_w) for p in square.tiles)
    return Tiling(outer_w, outer_h, tiles, table)


def _scaled_placement(p, outer_w):
    # stretch the unit-wide stack to the outer width
    conv = lambda expr: outer_w * expr.constant_value()
    return Placement(conv(p.x), conv(p.y), conv(p.w), conv(p.h))


def test_criterion_7_refutation_exhaustiveness():
    rng = random.Random(1776)
    for i in range(100):
        t = _adversarial_tiling(rng, i % 4)
        refutation = refute_square_tiling(t)
        assert refutation.kind in RefutationKind
        # every witness re-checks independently
        if refutation.kind is RefutationKind.TILE_NOT_SQUARE:
            idx = refutation.witness["tile"]
            assert t.tiles[idx].w != t.tiles[idx].h
        elif refutation.kind is RefutationKind.GEOMETRY_INVALID:
            report = validate(t)
            assert not report.is_valid
            witnessed = {f["kind"] for f in refutation.witness["failures"]}
            assert witnessed == {f.kind for f in report.failures}
        elif refutation.kind is RefutationKind.ADDITIVITY_VIOLATED:
            basis = extract_basis(t.side_lengths())
            y = Fraction(refutation.witness["y"])
            outer = y_area(t.outer_w, t.outer_h, basis, y)
            total = sum(y_area(p.w, p.h, basis, y) for p in t.tiles)
            assert outer != total


# --- criterion 8: good-square analysis ----------------------------------------


def test_criterion_8_random_candidates_always_contradicted():
    rng = random.Random(1842)
    target_w, target_h = Sqrt2Num(1), Sqrt2Num(1, 1)
    for _ in range(200):
        sides = [
            Sqrt2Num(
                Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
                Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
            )
            for _ in range(rng.randint(1, 8))
        ]
        analysis = analyze_good_squares(sides, target_w, target_h)
        assert analysis.contradiction is not Contradiction.NONE


def test_criterion_8_conjugate_negative_hand_built():
    """The conjugate argument rules out the closest hand-built candidate.

    No side list tiles the 1 x (1+sqrt2) target: if sum((a_i +
    b_i*sqrt2)^2) equalled the target area, conjugating would give
    sum((a_i - b_i*sqrt2)^2) = conj(target area) = 1 - sqrt2 < 0, yet the
    left side is a sum of squares of reals, hence >= 0.  So the area
    identity fails for every side list and the analysis reports
    AREA_MISMATCH.  Equivalently, a_i^2 + 2*b_i^2 >= 2*sqrt2*a_i*b_i
    forces A + 2B >= 2*sqrt2*C, so a candidate that matches the sqrt2
    component (2C = 1) has A + 2B >= sqrt2 > 1 and misses the rational
    component.  The single side 1 + sqrt2/2 is such a candidate, with
    A + 2B = 3/2.
    """
    target_w, target_h = Sqrt2Num(1), Sqrt2Num(1, 1)
    # best attempt: one square matching the sqrt2 part of the area exactly
    sides = [Sqrt2Num(1, Fraction(1, 2))]
    analysis = analyze_good_squares(sides, target_w, target_h)
    A, B, C = analysis.A, analysis.B, analysis.C
    assert 2 * C == 1  # the sqrt2 components agree
    assert A == 1 and B == Fraction(1, 4)
    assert A + 2 * B == Fraction(3, 2)  # over the target's rational part 1
    # conjugate target area is negative, conjugate square area is not
    assert (target_w * target_h).conj().sign() < 0
    assert Sqrt2Num(A + 2 * B, -2 * C).sign() >= 0
    assert not analysis.area_identity_holds
    assert analysis.contradiction is Contradiction.AREA_MISMATCH


# --- criterion 9: CLI contract -------------------------------------------------


def test_criterion_9_cli_contract(fig4_path, fig4_doc, tmp_path, capsys):
    # all four exit codes are reachable
    assert run_command(["validate", fig4_path]) == 0
    assert run_command(
        ["decide", "--width", "1", "--height", "1*sqrt2"]
    ) == 1
    bad = tmp_path / "bad.tiling"
    bad.write_text("{nope")
    assert run_command(["validate", str(bad)]) == 2
    amb = tmp_path / "amb.tiling"
    amb.write_text(
        json.dumps(
            {
                "generators": [{"symbol": "g", "lo": "9/10", "hi": "11/10"}],
                "outer": {"w": "2", "h": "1"},
                "tiles": [
                    {"x": "0", "y": "0", "w": "1*g", "h": "1"},
                    {"x": "1", "y": "0", "w": "2 - 1*g", "h": "1"},
                ],
            }
        )
    )
    assert run_command(["validate", str(amb)]) == 3
    capsys.readouterr()

    # serialize/parse round trip on 100 generated documents
    rng = random.Random(1955)
    table = tight_table(2, 3)
    for i in range(100):
        if i % 2:
            t = guillotine_tiling(
                rng,
                parse_expr(rng.choice(["1", "5/3"]), table),
                parse_expr("1 + 1*sqrt2", table),
                depth=rng.randint(1, 4),
            )
        else:
            t = euclid_tiling(rand_fraction(rng, 20, 20), rand_fraction(rng, 20, 20))
        doc = document_from_tiling(t)
        assert parse_document(serialize_document(doc)) == doc

    # byte-identical SVG across two runs
    assert render_svg(fig4_doc, 6).encode() == render_svg(fig4_doc, 6).encode()
