"""Continued fractions and greedy Euclid square tilings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqtile import (
    LinExpr,
    additivity_check,
    continued_fraction,
    euclid_tiling,
    extract_basis,
    validate,
)
from sqtile.cli import document_from_tiling

from conftest import rand_fraction


def _euclid_quotients_oracle(p: int, q: int):
    """Independent subtractive Euclid: count how many times each side fits."""
    quotients = []
    while q:
        count = 0
        while p >= q:
            p -= q
            count += 1
        quotients.append(count)
        p, q = q, p
    return quotients


def test_continued_fraction_examples():
    assert continued_fraction(Fraction(3, 2)) == (1, 2)
    assert continued_fraction(Fraction(5)) == (5,)
    assert continued_fraction(Fraction(13, 8)) == (1, 1, 1, 1, 2)
    assert continued_fraction(Fraction(13, 8)) == tuple(
        _euclid_quotients_oracle(13, 8)
    )
    assert continued_fraction(Fraction(2, 3)) == (0, 1, 2)


def test_continued_fraction_rejects_nonpositive():
    for bad in (Fraction(0), Fraction(-3, 2)):
        with pytest.raises(ValueError):
            continued_fraction(bad)


@given(st.fractions(min_value="1/50", max_value=50, max_denominator=50))
def test_continued_fraction_round_trip(r):
    cf = continued_fraction(r)
    folded = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        folded = a + 1 / folded
    assert folded == r
    assert all(a >= 1 for a in cf[1:])
    if len(cf) > 1:
        assert cf[-1] >= 2


def test_euclid_tiling_examples():
    t = euclid_tiling(1, 1)
    assert len(t.tiles) == 1 and t.tiles[0].w == t.tiles[0].h

    t = euclid_tiling(2, 3)
    assert len(t.tiles) == 3
    sides = sorted(p.w.constant_value() for p in t.tiles)
    assert sides == [1, 1, 2]
    assert validate(t).is_valid

    t = euclid_tiling(8, 13)
    assert len(t.tiles) == 6
    assert validate(t).is_valid


def test_euclid_tiling_layout_is_canonical():
    # wide residuals lose a square on the left, tall ones at the bottom
    t = euclid_tiling(3, 2)
    first = t.tiles[0]
    assert first.x.constant_value() == 0 and first.y.constant_value() == 0
    assert first.w.constant_value() == 2  # the 2x2 square comes off the left
    second = t.tiles[1]
    assert second.x.constant_value() == 2


def test_euclid_tiling_rejects_nonpositive():
    with pytest.raises(ValueError):
        euclid_tiling(0, 1)
    with pytest.raises(ValueError):
        euclid_tiling(Fraction(3, 2), Fraction(-1))


def test_euclid_tiling_random_round_trip():
    rng = random.Random(47)
    for _ in range(100):
        w, h = rand_fraction(rng), rand_fraction(rng)
        t = euclid_tiling(w, h)
        assert validate(t).is_valid
        assert all(p.w == p.h for p in t.tiles)
        ratio = max(w, h) / min(w, h)
        assert len(t.tiles) == sum(continued_fraction(ratio))
        # exact area bookkeeping
        assert sum(p.w.constant_value() ** 2 for p in t.tiles) == w * h


def test_euclid_tiling_additivity_with_trivial_basis():
    rng = random.Random(53)
    for _ in range(25):
        w, h = rand_fraction(rng, 20, 20), rand_fraction(rng, 20, 20)
        t = euclid_tiling(w, h)
        basis = extract_basis(t.side_lengths())
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        assert additivity_check(t, basis, ys)


def test_euclid_tiling_builds_constants_in_stored_form(monkeypatch):
    """Constants take the stored form directly, not the generic
    constructor's one Fraction per generator and lcm."""

    def generic(*_):
        raise AssertionError("LinExpr.__init__ called")

    monkeypatch.setattr(LinExpr, "__init__", generic)
    t = euclid_tiling(1, Fraction(13, 8))
    doc = document_from_tiling(t)
    assert doc["outer"] == {"w": "1", "h": "13/8"}
    assert [tile["w"] for tile in doc["tiles"]] == ["1", "5/8", "3/8", "1/4", "1/8", "1/8"]
