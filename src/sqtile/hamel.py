"""Generalized area functionals.

For a rectangle with sides a + b*sqrt2 and c + d*sqrt2 the parametric
area at x is (a + b*x)(c + d*x): ordinary area at x = sqrt2, its
conjugate at x = -sqrt2.  The basis-relative analogue replaces (a, b)
and (c, d) by the coordinates of the sides on the first two basis
elements.  Both are exact; the additivity check over a validated tiling
is an identity of rationals, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .basis import Basis
from .errors import InvalidTiling
from .exactnum import LinExpr, Sqrt2Num, rational_text
from .tiling import Tiling, validate

__all__ = [
    "QuadPoly",
    "Contradiction",
    "GoodSquareAnalysis",
    "x_area",
    "x_area_poly",
    "x_area_nonneg_for_all_x",
    "y_area",
    "additivity_check",
    "analyze_good_squares",
]


@dataclass(frozen=True, slots=True)
class QuadPoly:
    """The quadratic c2*x^2 + c1*x + c0 with rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def nonneg_on_reals(self) -> bool:
        """True iff the polynomial is >= 0 for every real x."""
        if self.c2 == 0:
            return self.c1 == 0 and self.c0 >= 0
        if self.c2 < 0:
            return False
        return self.c1 * self.c1 - 4 * self.c2 * self.c0 <= 0


def x_area(w: Sqrt2Num, h: Sqrt2Num, x) -> Sqrt2Num:
    """The parametric area (a + b*x)(c + d*x) evaluated in Q(sqrt2).

    ``x`` may be a Sqrt2Num (use Sqrt2Num(0, 1) for sqrt2 itself) or a
    plain rational.
    """
    if not isinstance(x, Sqrt2Num):
        x = Sqrt2Num(x)
    return (Sqrt2Num(w.a) + x * w.b) * (Sqrt2Num(h.a) + x * h.b)


def x_area_poly(w: Sqrt2Num, h: Sqrt2Num) -> QuadPoly:
    """Coefficients (bd, bc + ad, ac) of the parametric area in x."""
    return QuadPoly(w.b * h.b, w.b * h.a + w.a * h.b, w.a * h.a)


def x_area_nonneg_for_all_x(w: Sqrt2Num, h: Sqrt2Num) -> bool:
    """True iff every parametric area of the w x h rectangle is >= 0.

    Requires w, h > 0.  Equivalent to the side ratio being rational; the
    test suite checks both characterizations against each other.
    """
    if w.sign() <= 0 or h.sign() <= 0:
        raise ValueError("sides must be positive")
    return x_area_poly(w, h).nonneg_on_reals()


def y_area(w: LinExpr, h: LinExpr, basis: Basis, y) -> Fraction:
    """Basis-relative area (a + b*y)(c + d*y) at rational y.

    (a, b) and (c, d) are the coordinates of w and h on the first two
    basis elements; NotInSpan propagates for lengths that never entered
    the extraction.
    """
    y = Fraction(y)
    a, b = basis.coords_st(w)
    c, d = basis.coords_st(h)
    return (a + b * y) * (c + d * y)


def additivity_check(t: Tiling, basis: Basis, ys) -> bool:
    """Exact additivity of the basis-relative area over a genuine cutting.

    Validates the tiling first (InvalidTiling carries the report), then
    checks, for every y in ``ys``, that the outer rectangle's area value
    equals the exact rational sum of the tiles' area values.
    """
    report = validate(t)
    if not report.is_valid:
        raise InvalidTiling(report)
    for y in ys:
        outer = y_area(t.outer_w, t.outer_h, basis, y)
        total = sum((y_area(p.w, p.h, basis, y) for p in t.tiles), Fraction(0))
        if outer != total:
            return False
    return True


class Contradiction(Enum):
    AREA_MISMATCH = "area_mismatch"
    CONJUGATE_NEGATIVE = "conjugate_negative"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class GoodSquareAnalysis:
    """Outcome of testing a claimed decomposition into squares in Q(sqrt2).

    A, B, C are the component sums of the claimed square sides; the sum
    of the squares' areas is (A + 2B) + 2C*sqrt2.
    """

    A: Fraction
    B: Fraction
    C: Fraction
    area_identity_holds: bool
    contradiction: Contradiction

    def as_dict(self) -> dict:
        return {
            "A": rational_text(self.A),
            "B": rational_text(self.B),
            "C": rational_text(self.C),
            "area_identity_holds": self.area_identity_holds,
            "contradiction": self.contradiction.value,
        }


def _classify(identity_holds: bool, conj_target: Sqrt2Num, conj_square_sum: Sqrt2Num) -> Contradiction:
    if not identity_holds:
        return Contradiction.AREA_MISMATCH
    if conj_target.sign() < 0 <= conj_square_sum.sign():
        return Contradiction.CONJUGATE_NEGATIVE
    return Contradiction.NONE


def analyze_good_squares(sides, target_w: Sqrt2Num, target_h: Sqrt2Num) -> GoodSquareAnalysis:
    """Check whether squares with the given sides could cut the target.

    Computes A = sum(a_i^2), B = sum(b_i^2), C = sum(a_i*b_i) and compares
    the total square area (A + 2B) + 2C*sqrt2 against the target area.
    With exact arithmetic the identity already fails whenever the
    target's conjugate area is negative, since the conjugate square area
    sum((a_i - b_i*sqrt2)^2) is never negative; so this function never
    returns CONJUGATE_NEGATIVE.  That outcome is reached only by calling
    ``_classify`` directly.
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
    kind = _classify(identity, target_area.conj(), square_sum.conj())
    return GoodSquareAnalysis(A, B, C, identity, kind)
