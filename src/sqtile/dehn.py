"""Tilability verdicts and impossibility certificates.

A rectangle is tilable by squares iff its side ratio is rational.  The
negative verdict ships a certificate: at any negative y the outer
rectangle's basis-relative area is y itself, yet every square's is a
square of a rational, so a genuine square tiling would sum nonnegative
numbers to a negative one.  Refutation of a claimed square tiling finds
the first checkable failure in a fixed order.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .basis import extract_basis
from .exactnum import LinExpr, Value, rational_text
from .hamel import _y_area_sums, y_area
from .tiling import Tiling, validate

__all__ = [
    "Certificate",
    "Verdict",
    "RefutationKind",
    "Refutation",
    "decide",
    "verify_certificate",
    "refute_square_tiling",
]

DEFAULT_CERTIFICATE_Y = Fraction(-1)


class Certificate(Value):
    """A negative y witnessing impossibility.

    The outer rectangle's basis-relative area at y is exactly y (negative),
    while every square's is (a + b*y)^2 >= 0.
    """

    __slots__ = ("y",)

    def __init__(self, y: Fraction):
        if y >= 0:
            raise ValueError(f"certificate y must be negative, got {rational_text(y)}")
        super().__init__(y)

    @property
    def statement(self) -> str:
        y = rational_text(self.y)
        return (
            f"at y = {y} the outer rectangle's basis-relative area equals "
            f"{y} < 0, while every square's is a square of a rational, "
            "hence nonnegative; a square tiling would sum nonnegative numbers "
            "to a negative one"
        )

    def as_dict(self) -> dict:
        y = rational_text(self.y)
        return {"y": y, "outer_y_area": y, "statement": self.statement}


class Verdict(Value):
    """Either Tilable with the side ratio, or NotTilable with a certificate."""

    __slots__ = ("tilable", "ratio", "certificate")

    def __init__(self, tilable: bool, ratio: Fraction | None = None, certificate: Certificate | None = None):
        super().__init__(tilable, ratio, certificate)

    def as_dict(self) -> dict:
        if self.tilable:
            return {"verdict": "tilable", "ratio": rational_text(self.ratio)}
        return {"verdict": "not_tilable", "certificate": self.certificate.as_dict()}


def decide(w: LinExpr, h: LinExpr, *, y=DEFAULT_CERTIFICATE_Y) -> Verdict:
    """Decide square-tilability of the w x h rectangle.

    Positivity of the sides is certified first (AmbiguousComparison when
    the enclosures cannot).  The verdict comes from extracting a basis
    from [w, h]: Tilable with ratio q = coords(h)[0] when h is not
    selected (h = q*w), otherwise NotTilable with a certificate at y.
    """
    zero = LinExpr.zero(w.table)
    for name, e in (("width", w), ("height", h)):
        if e.cmp(zero) <= 0:
            raise ValueError(f"{name} must be positive")
    basis = extract_basis([w, h])
    if not basis.has_t0:
        return Verdict(tilable=True, ratio=basis.coords(h)[0])
    return Verdict(tilable=False, certificate=Certificate(Fraction(y)))


def verify_certificate(w: LinExpr, h: LinExpr, cert: Certificate) -> bool:
    """Re-check a NotTilable certificate against the rectangle.

    Confirms y < 0 and that the outer basis-relative area at y
    re-evaluates to exactly y.  Commensurable sides h = q*w never pass:
    their extraction does not select h, so that area is q > 0 at every y.
    """
    if cert.y >= 0:
        return False
    basis = extract_basis([w, h])
    return y_area(w, h, basis, cert.y) == cert.y


class RefutationKind(Enum):
    GEOMETRY_INVALID = "geometry_invalid"
    TILE_NOT_SQUARE = "tile_not_square"
    ADDITIVITY_VIOLATED = "additivity_violated"


class Refutation(Value):
    """Why a claimed square tiling fails, with a re-checkable witness."""

    __slots__ = ("kind", "witness")

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "witness": self.witness}


def refute_square_tiling(t: Tiling, *, y=DEFAULT_CERTIFICATE_Y) -> Refutation:
    """Find the first failure in a claimed square tiling of an
    incommensurable rectangle.

    The witness is the first of ``_refute``'s three kinds.  At least one
    always fires; reporting "no failure" is a hard error.  Commensurable
    sides raise ValueError: a square tiling of them exists, so there is
    nothing to refute.  A comparison the enclosures cannot settle raises
    AmbiguousComparison, from ``decide`` or ``validate``.
    """
    verdict = decide(t.outer_w, t.outer_h, y=y)
    if verdict.tilable:
        raise ValueError(
            f"outer sides are commensurable (ratio {rational_text(verdict.ratio)}); "
            "nothing to refute, use the constructive path"
        )
    return _refute(t, verdict)


def _refute(t: Tiling, verdict: Verdict) -> Refutation | None:
    """The first failure of the claimed square tiling ``t``, given the
    verdict on its outer sides, or None when a commensurable claim holds.

    The kinds are checked in this fixed order, so witnesses are
    deterministic: GEOMETRY_INVALID (the tiles do not cut the rectangle,
    with ``validate``'s failures), TILE_NOT_SQUARE (the first tile with
    w != h), and ADDITIVITY_VIOLATED (the tiles' y-areas at the
    certificate's y do not sum to the outer one).  A commensurable claim
    that passes the first two is a square tiling, and the answer is None.
    Otherwise only a broken validator reaches ADDITIVITY_VIOLATED: over
    independent generators no valid tiling of an incommensurable
    rectangle is all squares.  It stays as the paper's third witness kind
    and a cross-check on ``validate``.  The basis is extracted from every
    side, so every side is an extraction input and ``y_area`` never meets
    a length outside the span."""
    report = validate(t)
    if not report.is_valid:
        return Refutation(RefutationKind.GEOMETRY_INVALID, {"failures": report.as_dict()["failures"]})

    for i, p in enumerate(t.tiles):
        if p.w != p.h:
            return Refutation(
                RefutationKind.TILE_NOT_SQUARE,
                {"tile": i, "w": str(p.w), "h": str(p.h)},
            )

    if verdict.tilable:
        return None
    y = verdict.certificate.y
    outer, total = _y_area_sums(t, extract_basis(t.side_lengths()), y)
    if outer != total:
        return Refutation(
            RefutationKind.ADDITIVITY_VIOLATED,
            {
                "y": rational_text(y),
                "outer_y_area": rational_text(outer),
                "tile_y_area_sum": rational_text(total),
            },
        )

    raise RuntimeError(
        "no failure found in a claimed square tiling of an incommensurable "
        "rectangle; this contradicts the theorem and indicates a bug"
    )
