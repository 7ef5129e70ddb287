"""Constructive square tilings for rational side ratios.

Repeatedly slicing the largest possible square off the residual
rectangle is the Euclidean algorithm on the side ratio: the tiling
terminates exactly because the ratio is rational, and the number of
squares is the sum of the continued-fraction quotients.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import GeneratorTable, LinExpr
from .tiling import Placement, Tiling

__all__ = ["continued_fraction", "euclid_tiling"]


def continued_fraction(r) -> tuple:
    """The quotients (a0, a1, ..., an) of the canonical continued fraction
    [a0; a1, ..., an] of a positive rational.

    a0 is 0 exactly when the value is below 1; a1.. are positive, and the
    last is >= 2 unless it is the only quotient.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"continued fraction requires a positive rational, got {r}")
    quotients = []
    num, den = r.numerator, r.denominator
    while den:
        a, num = divmod(num, den)
        quotients.append(a)
        num, den = den, num
    # Euclid on positive input ends with a final quotient >= 2 (or a lone a0)
    return tuple(quotients)


def euclid_tiling(w, h) -> Tiling:
    """Cut the w x h rectangle into squares by greedy Euclid slicing.

    Squares come off the left of a wide residual and off the bottom of a
    tall one, giving one canonical layout.  The square count equals the
    continued-fraction quotient sum of max(w, h) / min(w, h).
    """
    w, h = Fraction(w), Fraction(h)
    if w <= 0 or h <= 0:
        raise ValueError(f"rectangle sides must be positive, got {w} x {h}")

    table = GeneratorTable()
    expr = lambda q: LinExpr.constant(table, q)

    tiles = []
    x0, y0 = Fraction(0), Fraction(0)
    cw, ch = w, h
    while True:
        if cw == ch:
            tiles.append(Placement(expr(x0), expr(y0), expr(cw), expr(ch)))
            break
        if cw > ch:
            tiles.append(Placement(expr(x0), expr(y0), expr(ch), expr(ch)))
            x0 += ch
            cw -= ch
        else:
            tiles.append(Placement(expr(x0), expr(y0), expr(cw), expr(cw)))
            y0 += cw
            ch -= cw
    return Tiling(expr(w), expr(h), tuple(tiles), table)
