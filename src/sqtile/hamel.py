"""Generalized area functionals.

For a rectangle with sides a + b*sqrt2 and c + d*sqrt2 the parametric
area at x is (a + b*x)(c + d*x): ordinary area at x = sqrt2, its
conjugate at x = -sqrt2.  The basis-relative analogue replaces (a, b)
and (c, d) by the coordinates of the sides on the first two basis
elements.  Both are exact; the additivity check over a validated tiling
is an identity of rationals, not an approximation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .basis import Basis
from .errors import InvalidTiling
from .exactnum import LinExpr, Sqrt2Num, Value, rational_text
from .tiling import Tiling, validate

__all__ = [
    "Contradiction",
    "GoodSquareAnalysis",
    "x_area",
    "x_area_nonneg_for_all_x",
    "y_area",
    "additivity_check",
    "analyze_good_squares",
]


def x_area(w: Sqrt2Num, h: Sqrt2Num, x) -> Sqrt2Num:
    """The parametric area (a + b*x)(c + d*x) evaluated in Q(sqrt2).

    ``x`` may be a Sqrt2Num (use Sqrt2Num(0, 1) for sqrt2 itself) or a
    plain rational.
    """
    if not isinstance(x, Sqrt2Num):
        x = Sqrt2Num(x)
    return (Sqrt2Num(w.a) + x * w.b) * (Sqrt2Num(h.a) + x * h.b)


def x_area_nonneg_for_all_x(w: Sqrt2Num, h: Sqrt2Num) -> bool:
    """True iff every parametric area of the w x h rectangle is >= 0.

    Requires w, h > 0.  Equivalent to the side ratio being rational; the
    test suite checks both characterizations against each other.
    """
    if w.sign() <= 0 or h.sign() <= 0:
        raise ValueError("sides must be positive")
    # (a + b*x)(c + d*x) = c2*x^2 + c1*x + c0
    c2 = w.b * h.b
    c1 = w.b * h.a + w.a * h.b
    c0 = w.a * h.a
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


class Contradiction(Enum):
    AREA_MISMATCH = "area_mismatch"
    NONE = "none"


class GoodSquareAnalysis(Value):
    """Outcome of testing a claimed decomposition into squares in Q(sqrt2).

    A, B, C are the component sums of the claimed square sides; the sum
    of the squares' areas is (A + 2B) + 2C*sqrt2.
    """

    __slots__ = ("A", "B", "C", "area_identity_holds", "contradiction")

    def as_dict(self) -> dict:
        return {
            "A": rational_text(self.A),
            "B": rational_text(self.B),
            "C": rational_text(self.C),
            "area_identity_holds": self.area_identity_holds,
            "contradiction": self.contradiction.value,
        }


def analyze_good_squares(sides, target_w: Sqrt2Num, target_h: Sqrt2Num) -> GoodSquareAnalysis:
    """Check whether squares with the given sides could cut the target.

    Computes A = sum(a_i^2), B = sum(b_i^2), C = sum(a_i*b_i) and compares
    the total square area (A + 2B) + 2C*sqrt2 against the target area.
    The contradiction is AREA_MISMATCH exactly when that identity fails.
    A negative conjugate target area needs no verdict of its own: the
    conjugate of the square area, sum((a_i - b_i*sqrt2)^2), is never
    negative, so the identity already fails for such a target.
    """
    sides = list(sides)
    if not sides:
        raise ValueError("need at least one square side")
    A = sum((s.a * s.a for s in sides), Fraction(0))
    B = sum((s.b * s.b for s in sides), Fraction(0))
    C = sum((s.a * s.b for s in sides), Fraction(0))
    square_sum = Sqrt2Num(A + 2 * B, 2 * C)
    target_area = target_w * target_h
    identity = target_area == square_sum
    kind = Contradiction.NONE if identity else Contradiction.AREA_MISMATCH
    return GoodSquareAnalysis(A, B, C, identity, kind)
