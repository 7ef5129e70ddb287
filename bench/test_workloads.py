"""The benchmark's own tests: each generator's oracle agrees with the package.

    python3 -m pytest bench -q        (from the root of a checkout)
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

PKG = worker.load_package(ROOT)
SEEDS = (1, 2, 3)


def tiling_of(doc):
    return PKG.cli.build_tiling(PKG.cli.parse_document(doc.data))[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", [W.log_cabin, W.staircase])
@pytest.mark.parametrize("defect", [None, "shrink", "nudge"])
def test_grid_families_agree_with_validate(seed, family, defect):
    doc = family(random.Random(seed), 30, defect)
    report = PKG.tiling.validate(tiling_of(doc))
    assert report.verdict == doc.expect["verdict"]
    if defect:
        assert sorted({f.kind for f in report.failures}) == doc.expect["kinds"]


@pytest.mark.parametrize("seed", SEEDS)
def test_staircase_square_count_is_the_quotient_sum(seed):
    doc = W.staircase(random.Random(seed), 25)
    t = tiling_of(doc)
    assert doc.tiles == doc.expect["squares"]
    assert len(PKG.construct.euclid_tiling(t.outer_w.constant_value(), t.outer_h.constant_value()).tiles) == doc.tiles


@pytest.mark.parametrize("seed", SEEDS)
def test_columns_oracle(seed):
    doc = W.columns(random.Random(seed), 9, 6 + seed % 2, 20)
    t = tiling_of(doc)
    verdict = PKG.dehn.decide(t.outer_w, t.outer_h)
    assert not verdict.tilable
    assert PKG.dehn.verify_certificate(t.outer_w, t.outer_h, verdict.certificate)
    assert PKG.tiling.validate(t).is_valid
    assert PKG.basis.extract_basis(t.side_lengths()).rank == doc.expect["rank"]
    assert PKG.dehn.refute_square_tiling(t).kind.value == doc.expect["refutation"]


@pytest.mark.parametrize("index", range(2, 10))
def test_convergent_claims_are_geometry_invalid(index):
    doc = W.convergent_claim(random.Random(index), index)
    t = tiling_of(doc)
    assert doc.tiles == doc.expect["squares"]
    assert PKG.dehn.refute_square_tiling(t).kind.value == doc.expect["refutation"]


def test_moron_decodes_to_a_valid_squared_rectangle():
    squares, w, h = W.bouwkamp_squares(W.MORON_CODE)
    assert (w, h, len(squares)) == (33, 32, 9)
    assert sum(s * s for _, _, s in squares) == w * h
    doc = W.moron()
    assert PKG.tiling.validate(tiling_of(doc)).is_valid


def test_bouwkamp_rejects_a_code_that_does_not_close():
    with pytest.raises(ValueError):
        W.bouwkamp_squares(((2, 1),))


def test_fig4_is_valid_but_not_a_square_tiling():
    t = tiling_of(W.fig4())
    assert PKG.tiling.validate(t).is_valid
    assert PKG.dehn.refute_square_tiling(t).kind.value == "tile_not_square"


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_ops_agree_in_process(seed):
    tr = spans.Tracer()
    for op in W.cli(seed)[:12]:
        worker.cli_replay(PKG, tr, op)
    assert {op.command for op in W.cli(seed)[:12]} == {
        "decide", "construct", "validate", "verify", "render", "analyze-good"}


@pytest.mark.parametrize("name", sorted(W.PLANS))
def test_plans_are_deterministic_per_seed(name):
    a, b, c = W.PLANS[name](5), W.PLANS[name](5), W.PLANS[name](6)
    key = lambda items: [getattr(i, "data", None) or getattr(i, "argv") for i in items]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_enclosures_bracket_the_root():
    for n in W.RADICANDS:
        lo, hi = W.enclosure(n)
        assert lo * lo < n < hi * hi


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.op = 0
    tr.spans = [["op", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 50, 60, 0, 0], ["a", 20, 30, 1, 0]]
    assert tr.self_times() == [60, 20, 10, 10]
    assert tr.busy_by_op()["a"][0] == 30


def test_counters_are_restored():
    tr = spans.Tracer()
    cls = PKG.exactnum.LinExpr
    before = cls.cmp
    restore = spans.install_counters(PKG.exactnum, PKG.errors, tr)
    t = tiling_of(W.fig4())
    PKG.tiling.validate(t)
    restore()
    assert cls.cmp is before
    assert tr.counts["exactnum.cmp_calls"] > 0
    assert tr.counts["exactnum.ambiguous"] == 0


def test_wide_ys_make_the_outer_area_y():
    doc = W.columns(random.Random(4), 8, 6, 10)
    t = tiling_of(doc)
    b = PKG.basis.extract_basis(t.side_lengths())
    for y in worker.WIDE_YS:
        assert PKG.hamel.y_area(t.outer_w, t.outer_h, b, y) == y == sum(
            (PKG.hamel.y_area(p.w, p.h, b, y) for p in t.tiles), Fraction(0))
