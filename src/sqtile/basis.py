"""Basis extraction for side lengths.

Scans the lengths in input order and selects ("underlines") each one
that is not a rational combination of the previously selected ones,
using exact Gaussian elimination over the generator coordinates.  The
selected lengths, led by the outer side s0, form a basis in which every
input length has unique rational coordinates.  This scan is the
package's one commensurability test: the outer side t0 is selected
exactly when it is not a rational multiple of s0, and otherwise its
single coordinate is that ratio.

Each selected element adds one echelon row that is never changed
afterwards: its generator vector is 1 at its own pivot and 0 at the
pivot of every row selected before it, so one forward pass over the
rows in selection order zeroes every pivot.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInSpan
from .exactnum import LinExpr

__all__ = ["Basis", "extract_basis"]


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
        return c[0], c[1] if self.has_t0 else Fraction(0)


def _reduce(rows, vector, width):
    """One elimination pass of the dense ``vector`` against ``rows``.

    ``rows`` are ``(pivot, vec, rep)`` tuples in selection order; each
    ``vec`` is 1 at its pivot and 0 at every earlier row's pivot, and
    ``rep`` expresses ``vec`` over the selected elements.  Walking them
    in that order zeroes every pivot of ``vector``, so the residue is all
    zero exactly when ``vector`` is in the rows' span.  Returns the
    residue and the coordinates of the eliminated part over the first
    ``width`` selected elements.  ``vector`` is reduced in place.
    """
    acc = [Fraction(0)] * width
    for pivot, vec, rep in rows:
        f = vector[pivot]
        if f != 0:
            for k, v in enumerate(vec):
                vector[k] -= f * v
            for k, v in enumerate(rep):
                acc[k] += f * v
    return vector, acc


def extract_basis(lengths) -> Basis:
    """Select a basis from ``lengths`` by the greedy in-order scan.

    ``lengths[0]`` is s0 and ``lengths[1]`` is t0.  Every length must be
    certified positive (ValueError otherwise, AmbiguousComparison when
    the enclosures cannot tell).  When t0 is a rational multiple q of s0
    it is not selected: ``has_t0`` is False, ``coords(t0)[0]`` is q and
    every t0 coordinate is 0.
    """
    lengths = list(lengths)
    if len(lengths) < 2:
        raise ValueError("need at least s0 and t0")
    table = lengths[0].table
    zero = LinExpr.zero(table)
    for p in lengths:
        if p.table != table:
            raise ValueError("all lengths must share one generator table")
        if p.cmp(zero) <= 0:
            raise ValueError(f"length {p} must be positive")

    elements: list[LinExpr] = []
    rows: list[tuple] = []
    input_coords: list[list[Fraction]] = []
    has_t0 = True

    for pos, p in enumerate(lengths):
        residue, acc = _reduce(rows, p.coeff_vector(), len(elements))
        if not any(residue):
            # in the span of the already selected elements
            if pos == 1:
                has_t0 = False
            input_coords.append(acc)
            continue

        # independent: underline p as a new element; the residue is
        # already 0 at every earlier pivot, so the new row is echelon
        k = len(elements)
        elements.append(p)
        pivot = next(i for i, v in enumerate(residue) if v != 0)
        inv = Fraction(1) / residue[pivot]
        rows.append((pivot, tuple(v * inv for v in residue), tuple(-c * inv for c in acc) + (inv,)))
        input_coords.append([Fraction(0)] * k + [Fraction(1)])

    width = len(elements)
    coords = [v + [Fraction(0)] * (width - len(v)) for v in input_coords]
    return Basis(elements, rows, lengths, coords, has_t0)
