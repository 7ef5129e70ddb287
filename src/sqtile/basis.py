"""Basis extraction for side lengths.

Scans the lengths in input order and selects ("underlines") each one
that is not a rational combination of the previously selected ones,
using exact Gaussian elimination over the generator coordinates.  The
selected lengths, led by the outer sides s0 and t0, form a basis in
which every input length has unique rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbiguousComparison, CommensurableSides, NotInSpan
from .exactnum import LinExpr

__all__ = ["Basis", "extract_basis", "commensurability_ratio"]


class _Row:
    """A reduced elimination row.

    ``vec`` is a dense generator-coordinate vector with 1 at ``pivot``
    and 0 at every other row's pivot; ``rep`` expresses ``vec`` as a
    combination of the selected elements.
    """

    __slots__ = ("pivot", "vec", "rep")

    def __init__(self, pivot, vec, rep):
        self.pivot = pivot
        self.vec = vec
        self.rep = rep


class Basis:
    """Selected elements plus an exact coordinate solver.

    ``elements[0]`` is s0 and, in the incommensurable case, ``elements[1]``
    is t0.  ``coords`` solves for the unique representation of any length
    in the span; ``input_coords`` holds the precomputed coordinates of
    every extraction input, aligned with ``inputs``.
    """

    def __init__(self, elements, rows, inputs, input_coords, has_t0):
        self.elements = tuple(elements)
        self._rows = tuple(rows)
        self.inputs = tuple(inputs)
        self.input_coords = tuple(tuple(v) for v in input_coords)
        self.has_t0 = has_t0
        self._known = dict(zip(self.inputs, self.input_coords))

    def __len__(self):
        return len(self.elements)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def coords(self, p: LinExpr) -> tuple:
        """Unique coordinates of ``p`` over ``elements``.

        Raises NotInSpan if ``p`` is not a rational combination of the
        basis elements.  Extraction inputs are answered from
        ``input_coords``.
        """
        known = self._known.get(p)
        if known is not None:
            return known
        residue, acc = _reduce(self._rows, p.coeff_vector(), len(self.elements))
        if any(residue):
            raise NotInSpan(f"{p} is not in the span of the basis")
        return tuple(acc)

    def coords_st(self, p: LinExpr) -> tuple:
        """The (s0, t0) coordinate pair of ``p``'s unique representation.

        When the basis has no t0 (commensurable extraction), the t0
        coordinate is 0 for every length in the span.
        """
        c = self.coords(p)
        a = c[0] if c else Fraction(0)
        b = c[1] if self.has_t0 and len(c) > 1 else Fraction(0)
        return a, b

    def combine(self, coords) -> LinExpr:
        """Rebuild the expression sum(coords[i] * elements[i])."""
        out = LinExpr.zero(self.elements[0].table)
        for c, e in zip(coords, self.elements):
            out = out + e * c
        return out


def _reduce(rows, vector, width):
    """One elimination pass of the dense ``vector`` against ``rows``.

    Returns the residue, which is all zero exactly when ``vector`` is in
    the rows' span, and the coordinates of the eliminated part over the
    first ``width`` selected elements.  ``vector`` is reduced in place.
    """
    acc = [Fraction(0)] * width
    for row in rows:
        f = vector[row.pivot]
        if f != 0:
            for k, v in enumerate(row.vec):
                vector[k] -= f * v
            for k, v in enumerate(row.rep):
                acc[k] += f * v
    return vector, acc


def _pad(rep, n):
    return rep + [Fraction(0)] * (n - len(rep))


def extract_basis(lengths, *, require_incommensurable: bool = True) -> Basis:
    """Select a basis from ``lengths`` by the greedy in-order scan.

    ``lengths[0]`` is s0 and ``lengths[1]`` is t0.  Every length must be
    positive under its enclosure.  When t0 reduces to a rational multiple
    of s0, CommensurableSides is raised (carrying the ratio) unless
    ``require_incommensurable`` is False, in which case t0 is simply not
    selected and every t0 coordinate is 0.

    The scan is purely symbolic; AmbiguousComparison cannot occur here.
    """
    lengths = list(lengths)
    if len(lengths) < 2:
        raise ValueError("need at least s0 and t0")
    table = lengths[0].table
    for p in lengths:
        if p.table != table:
            raise ValueError("all lengths must share one generator table")
        sign = p.eval_interval().sign()
        if sign < 0:
            raise ValueError(f"length {p} is negative")
        if sign == 0:
            raise AmbiguousComparison(f"cannot certify that length {p} is positive")

    elements: list[LinExpr] = []
    rows: list[_Row] = []
    input_coords: list[list[Fraction]] = []
    has_t0 = True

    for pos, p in enumerate(lengths):
        residue, acc = _reduce(rows, p.coeff_vector(), len(elements))
        if not any(residue):
            # in the span of the already selected elements
            if pos == 1:
                ratio = acc[0]
                if require_incommensurable:
                    raise CommensurableSides(ratio)
                has_t0 = False
            input_coords.append(acc)
            continue

        # independent: underline p as a new element
        k = len(elements)
        elements.append(p)
        pivot = next(i for i, v in enumerate(residue) if v != 0)
        inv = Fraction(1) / residue[pivot]
        vec = [v * inv for v in residue]
        rep = [-c * inv for c in acc] + [inv]
        # keep the rows mutually reduced so a single pass solves exactly
        for row in rows:
            g = row.vec[pivot]
            if g != 0:
                for i, v in enumerate(vec):
                    row.vec[i] -= g * v
                row.rep = _pad(row.rep, k + 1)
                for i, v in enumerate(rep):
                    row.rep[i] -= g * v
        rows.append(_Row(pivot, vec, rep))
        for prev in input_coords:
            prev.extend([Fraction(0)])
        unit = [Fraction(0)] * (k + 1)
        unit[k] = Fraction(1)
        input_coords.append(unit)

    width = len(elements)
    coords = [_pad(list(v), width) for v in input_coords]
    for row in rows:
        row.rep = _pad(row.rep, width)
    return Basis(elements, rows, lengths, coords, has_t0)


def commensurability_ratio(s0: LinExpr, t0: LinExpr) -> Fraction | None:
    """The rational q with t0 = q*s0 exactly, or None if no such q exists."""
    if s0.is_zero:
        raise ValueError("s0 must be nonzero")
    items = s0.coeffs
    idx, c = next(iter(items.items()))
    q = t0.coeff(idx) / c
    return q if t0 == s0 * q else None
