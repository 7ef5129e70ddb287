"""Basis extraction for side lengths.

Scans the lengths in input order and selects ("underlines") each one
that is not a rational combination of the previously selected ones,
using exact Gaussian elimination over the generator coordinates.  The
selected lengths, led by the outer side s0, form a basis in which every
input length has unique rational coordinates.  This scan is the
package's one commensurability test: the outer side t0 is selected
exactly when it is not a rational multiple of s0, and otherwise its
single coordinate is that ratio.

The elimination runs on integers.  A length x is reduced as one integer
vector V with a positive denominator d: V's first part holds generator
coordinates, its second part coordinates over the selected elements,
and the invariant is

    V_gen + sum_k V_coord[k] * element_k = d * x.

Each selected element adds one row that is never changed afterwards: an
integer relation R with R_gen + sum_k R_coord[k] * element_k = 0, whose
generator part is positive at its own pivot and 0 at the pivot of every
row selected before it.  One forward pass over the rows in selection
order zeroes every pivot of V; after each step V and d are divided by
their gcd.  V starts as x's own stored form: its integer numerators
over its one denominator, with a zero coordinate part.  x is in the span
exactly when V_gen ends all zero, and then its coordinates are
V_coord / d.  Values become Fractions only where they leave the module,
in ``input_coords`` and ``coords``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .errors import NotInSpan
from .exactnum import LinExpr, Value

__all__ = ["Basis", "extract_basis"]


class Basis(Value):
    """Selected elements plus an exact coordinate solver.

    ``elements[0]`` is s0 and, in the incommensurable case, ``elements[1]``
    is t0.  ``coords`` solves for the unique representation of any length
    in the span; ``input_coords`` holds the precomputed coordinates of
    every extraction input, aligned with ``inputs``.  Two bases are equal
    only when they are the same object.
    """

    __slots__ = ("elements", "_rows", "inputs", "input_coords", "has_t0", "_known")

    def __init__(self, elements, rows, inputs, input_coords, has_t0):
        inputs = tuple(inputs)
        input_coords = tuple(tuple(v) for v in input_coords)
        known = dict(zip(inputs, input_coords))
        super().__init__(tuple(elements), tuple(rows), inputs, input_coords, has_t0, known)

    def __reduce__(self):
        return Basis, self._fields()[:-1]  # _known is rebuilt from the inputs

    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

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
        n = len(p.table)
        vector, d = _reduce(self._rows, p, len(self.elements))
        if any(vector[:n]):
            raise NotInSpan(f"{p} is not in the span of the basis")
        return tuple(Fraction(v, d) for v in vector[n:])

    def coords_st(self, p: LinExpr) -> tuple:
        """The (s0, t0) coordinate pair of ``p``'s unique representation.

        When the basis has no t0 (commensurable extraction), the t0
        coordinate is 0 for every length in the span.
        """
        c = self.coords(p)
        return c[0], c[1] if self.has_t0 else Fraction(0)


def _reduce(rows, p: LinExpr, width: int):
    """Reduce ``p`` against ``rows``; return the integer vector and its
    denominator, with a coordinate part ``width`` long.

    ``rows`` are ``(pivot, R, R[pivot])`` in selection order, as the
    module docstring states.  Each step with a nonzero ``f = V[pivot]``
    replaces V by ``R[pivot] * V - f * R`` and d by ``R[pivot] * d``,
    which keeps the invariant and zeroes the pivot.
    """
    d = p._den
    vector = [0] * (len(p.table) + width)
    for i, v in p._nums:
        vector[i] = v
    for pivot, row, r in rows:
        f = vector[pivot]
        if f:
            vector = [r * v - f * x for v, x in zip_longest(vector, row, fillvalue=0)]
            d *= r
            g = gcd(d, *vector)
            if g != 1:
                vector = [v // g for v in vector]
                d //= g
    return vector, d


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

    n = len(table)
    elements: list[LinExpr] = []
    rows: list[tuple] = []
    input_coords: list[list[Fraction]] = []
    has_t0 = True

    for pos, p in enumerate(lengths):
        k = len(elements)
        vector, d = _reduce(rows, p, k)
        pivot = next((i for i in range(n) if vector[i]), None)
        if pivot is None:
            # in the span of the already selected elements
            if pos == 1:
                has_t0 = False
            input_coords.append([Fraction(v, d) for v in vector[n:]])
            continue

        # independent: underline p as a new element.  V is already 0 at
        # every earlier pivot, and V with coordinate -d on p is a relation.
        elements.append(p)
        row = vector + [-d]
        if row[pivot] < 0:
            row = [-v for v in row]
        rows.append((pivot, row, row[pivot]))
        input_coords.append([Fraction(0)] * k + [Fraction(1)])

    width = len(elements)
    coords = [v + [Fraction(0)] * (width - len(v)) for v in input_coords]
    return Basis(elements, rows, lengths, coords, has_t0)
