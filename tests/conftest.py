"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sqtile import Generator, GeneratorTable, LinExpr, Placement, Tiling
from sqtile.cli import parse_document

DATA = Path(__file__).parent / "data"


def _load_workloads():
    """The benchmark's input generators, loaded by file path (no copy)."""
    name = "sqtile_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = _load_workloads()

# Two non-guillotine squared rectangles, as Bouwkamp codes: Moron's 33 x 32
# and Duijvestijn's 112 x 112 simple perfect squared square.
BOUWKAMP_CODES = {
    "moron": workloads.MORON_CODE,
    "duijvestijn": (
        (50, 35, 27), (8, 19), (15, 17, 11), (6, 24), (29, 25, 9, 2),
        (7, 18), (16,), (42,), (4, 37), (33,),
    ),
}


def tight_enclosure(n: int, digits: int = 60):
    """Bracket sqrt(n) to ``digits`` decimal digits with integer sqrt."""
    scale = 10**digits
    root = math.isqrt(n * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def tight_table(*roots: int) -> GeneratorTable:
    """Table of sqrtN generators with very tight certified enclosures."""
    return GeneratorTable(
        Generator(f"sqrt{n}", *tight_enclosure(n)) for n in roots
    )


def combine(basis, coords) -> LinExpr:
    """The expression sum(coords[i] * basis.elements[i])."""
    return sum((e * c for c, e in zip(coords, basis.elements)), LinExpr.zero(basis.elements[0].table))


def rand_fraction(rng, max_num=50, max_den=50, signed=False) -> Fraction:
    num = rng.randint(1, max_num)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, max_den))


def pick_cut(rng, side: LinExpr) -> LinExpr:
    """A cut strictly inside (0, side), certified by construction.

    Either a rational fraction of the side (generator-weighted) or a
    pure rational below the side's enclosure.  Rational cuts are snapped
    to a coarse 1/64 grid so they stay far from every generator-weighted
    coordinate (no spurious ambiguity from near-coincident cuts).
    """
    lam = Fraction(rng.randint(1, 7), 8)
    if rng.random() < 0.5:
        lo = side.eval_interval()[0]
        r = Fraction((lo * lam * 64).__floor__(), 64)
        if 0 < r < lo:
            return LinExpr.constant(side.table, r)
    return side * lam


def guillotine_tiling(rng, outer_w: LinExpr, outer_h: LinExpr, depth: int = 6) -> Tiling:
    """Random valid tiling by recursive full-width / full-height cuts."""
    table = outer_w.table
    tiles = []

    def split(x, y, w, h, d):
        if d == 0 or rng.random() < 0.25:
            tiles.append(Placement(x, y, w, h))
            return
        if rng.random() < 0.5:
            cut = pick_cut(rng, w)
            split(x, y, cut, h, d - 1)
            split(x + cut, y, w - cut, h, d - 1)
        else:
            cut = pick_cut(rng, h)
            split(x, y, w, cut, d - 1)
            split(x, y + cut, w, h - cut, d - 1)

    zero = LinExpr.zero(table)
    split(zero, zero, outer_w, outer_h, depth)
    return Tiling(outer_w, outer_h, tuple(tiles), table)


def bouwkamp_tiling(code, table: GeneratorTable, x_unit: LinExpr | None = None) -> Tiling:
    """The squared rectangle of a Bouwkamp code; every x value and width
    is a multiple of ``x_unit`` (default 1), so a generator stretches it."""
    squares, w, h = workloads.bouwkamp_squares(code)
    one = LinExpr.constant(table, 1)
    x_unit = one if x_unit is None else x_unit
    tiles = tuple(Placement(x_unit * x, one * y, x_unit * s, one * s) for x, y, s in squares)
    return Tiling(x_unit * w, one * h, tiles, table)


@pytest.fixture(scope="session")
def fig4_doc():
    return parse_document((DATA / "fig4.tiling").read_bytes())


@pytest.fixture(scope="session")
def fig4_path():
    return str(DATA / "fig4.tiling")


# --- acceptance summary -----------------------------------------------------

_CRITERIA = {
    "1": "Fig. 4 golden test (parse, validate, basis selection, additivity)",
    "2": "tilability verdicts and certificate re-verification",
    "3": "constructive direction (greedy Euclid tilings, CF counts)",
    "4": "exact additivity over random guillotine tilings",
    "5": "conjugation and parametric-area identities",
    "6": "nonnegative-areas-for-all-x iff rational side ratio",
    "7": "refutation exhaustiveness on adversarial inputs",
    "8": "good-square analysis of the 1 x (1+sqrt2) target",
    "9": "CLI contract (exit codes, round trips, deterministic SVG)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            number = name.removeprefix("test_criterion_").split("_")[0]
            rows.append((number, name, "PASS" if outcome == "passed" else "FAIL"))
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, status in sorted(rows, key=lambda r: (int(r[0]), r[1])):
        detail = _CRITERIA.get(number, "")
        terminalreporter.write_line(f"{status}  criterion {number}: {detail}  [{name}]")
