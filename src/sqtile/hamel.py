"""Generalized area functionals.

A value of Q(sqrt2) is a ``LinExpr`` a + b*sqrt2 over a table holding
``sqrt2``.  For a rectangle with sides a + b*sqrt2 and c + d*sqrt2 the
parametric area at x is (a + b*x)(c + d*x): ordinary area at x = sqrt2,
its conjugate at x = -sqrt2.  The basis-relative analogue replaces (a, b)
and (c, d) by the coordinates of the sides on the first two basis
elements.  Both are exact; the additivity check over a validated tiling
is an identity of rationals, not an approximation.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import Basis
from .errors import InvalidTiling, clip
from .exactnum import LinExpr, Value, rational_text
from .tiling import Tiling, validate

__all__ = [
    "GoodSquareAnalysis",
    "x_area",
    "x_area_nonneg_for_all_x",
    "y_area",
    "additivity_check",
    "analyze_good_squares",
]


def _pair(e: LinExpr) -> tuple:
    """The rationals (a, b) of e = a + b*sqrt2; ValueError when e has a
    nonzero coefficient on another generator."""
    coeffs = e.coeffs
    a, b = coeffs.pop(0, Fraction(0)), coeffs.pop(e.table._index.get("sqrt2"), Fraction(0))
    if coeffs:
        raise ValueError(f"{clip(str(e))} involves generators outside {{1, sqrt2}}")
    return a, b


def x_area(w: LinExpr, h: LinExpr, x):
    """The parametric area (a + b*x)(c + d*x) of sides over {1, sqrt2}.

    A rational ``x`` gives a Fraction; an ``x`` over {1, sqrt2} (the
    expression ``1*sqrt2`` for sqrt2 itself) gives a LinExpr over the
    table of ``w``.
    """
    (a, b), (c, d) = _pair(w), _pair(h)
    if not isinstance(x, LinExpr):
        return (a + b * x) * (c + d * x)
    u, v = _pair(x)
    # (p + q*r)(s + t*r) = (ps + 2qt) + (pt + qs)*r  with r*r = 2
    p, q, s, t = a + b * u, b * v, c + d * u, d * v
    if p * t + q * s == 0:  # rational, so w's table need not hold sqrt2
        return LinExpr.constant(w.table, p * s + 2 * q * t)
    return LinExpr(w.table, {0: p * s + 2 * q * t, w.table.index("sqrt2"): p * t + q * s})


def x_area_nonneg_for_all_x(w: LinExpr, h: LinExpr) -> bool:
    """True iff every parametric area of the w x h rectangle is >= 0.

    Requires w, h > 0.  Equivalent to the side ratio being rational; the
    test suite checks both characterizations against each other.
    """
    (a, b), (c, d) = _pair(w), _pair(h)
    if w.cmp(LinExpr.zero(w.table)) <= 0 or h.cmp(LinExpr.zero(h.table)) <= 0:
        raise ValueError("sides must be positive")
    # (a + b*x)(c + d*x) = c2*x^2 + c1*x + c0
    c2, c1, c0 = b * d, b * c + a * d, a * c
    if c2 == 0:
        return c1 == 0 and c0 >= 0
    return c2 > 0 and c1 * c1 - 4 * c2 * c0 <= 0


def y_area(w: LinExpr, h: LinExpr, basis: Basis, y) -> Fraction:
    """Basis-relative area (a + b*y)(c + d*y) at rational y.

    (a, b) and (c, d) are the coordinates of w and h on the first two
    basis elements, read as integers over one denominator each, so the
    area is one Fraction; NotInSpan propagates for lengths outside the span.
    """
    y = Fraction(y)
    p, q = y.numerator, y.denominator
    a, b, e = basis._st(w)
    c, d, f = basis._st(h)
    return Fraction((a * q + b * p) * (c * q + d * p), e * f * q * q)


def additivity_check(t: Tiling, basis: Basis, ys) -> bool:
    """Exact additivity of the basis-relative area over a genuine cutting.

    Validates the tiling first (InvalidTiling carries the report of a
    geometric failure; AmbiguousComparison propagates from ``validate``),
    then checks, for every y in ``ys``, that the outer rectangle's area
    value equals the exact rational sum of the tiles' area values.
    """
    report = validate(t)
    if not report.is_valid:
        raise InvalidTiling(report)
    return all(outer == total for outer, total in (_y_area_sums(t, basis, y) for y in ys))


def _y_area_sums(t: Tiling, basis: Basis, y) -> tuple:
    """The outer rectangle's y-area and the exact sum of the tiles' at y."""
    outer = y_area(t.outer_w, t.outer_h, basis, y)
    total = sum((y_area(p.w, p.h, basis, y) for p in t.tiles), Fraction(0))
    return outer, total


class GoodSquareAnalysis(Value):
    """Outcome of testing a claimed decomposition into squares in Q(sqrt2).

    A, B, C are the component sums of the claimed square sides; the sum
    of the squares' areas is (A + 2B) + 2C*sqrt2.
    """

    __slots__ = ("A", "B", "C", "area_identity_holds")

    def as_dict(self) -> dict:
        return {
            "A": rational_text(self.A),
            "B": rational_text(self.B),
            "C": rational_text(self.C),
            "area_identity_holds": self.area_identity_holds,
            "contradiction": "none" if self.area_identity_holds else "area_mismatch",
        }


def analyze_good_squares(sides, target_w: LinExpr, target_h: LinExpr) -> GoodSquareAnalysis:
    """Check whether squares with the given sides could cut the target.

    Every value is a LinExpr over {1, sqrt2}.  Computes A = sum(a_i^2),
    B = sum(b_i^2), C = sum(a_i*b_i) and compares the total square area
    (A + 2B) + 2C*sqrt2 against the target area.  The analysis reports an
    area mismatch exactly when that identity fails.  A negative conjugate
    target area needs no verdict of its own: the conjugate of the square
    area, sum((a_i - b_i*sqrt2)^2), is never negative, so the identity
    already fails for such a target.
    """
    pairs = [_pair(s) for s in sides]
    if not pairs:
        raise ValueError("need at least one square side")
    A = sum((a * a for a, _ in pairs), Fraction(0))
    B = sum((b * b for _, b in pairs), Fraction(0))
    C = sum((a * b for a, b in pairs), Fraction(0))
    (a, b), (c, d) = _pair(target_w), _pair(target_h)
    identity = (a * c + 2 * b * d, a * d + b * c) == (A + 2 * B, 2 * C)
    return GoodSquareAnalysis(A, B, C, identity)
