"""Basis extraction for side lengths.

Scans the lengths in input order and selects ("underlines") each one
that is not a rational combination of the previously selected ones,
using exact Gauss-Jordan elimination over the generator coordinates.
The selected lengths, led by the outer side s0, form a basis in which
every input length has unique rational coordinates.  This scan is the
package's one commensurability test: the outer side t0 is selected
exactly when it is not a rational multiple of s0, and otherwise its
single coordinate is that ratio.  Each distinct length is reduced once;
a repeat takes the coordinates of its first occurrence.

The elimination is fraction-free.  A vector's first part holds generator
coordinates, its second part coordinates over the selected elements.
Each selected element adds one integer relation row R, with
R_gen + sum_k R_coord[k] * element_k = 0, and all rows share one pivot
value ``scale``: R[pivot] == scale for every row, and every row is 0 at
every other row's pivot.  A length x, stored as integer numerators P
over one denominator den, reduces in one pass to

    V = scale * P - sum_j P[pivot_j] * R_j  over  d = scale * den,

which is 0 at every pivot and keeps V_gen + sum_k V_coord[k] *
element_k = d * x.  x is in the span exactly when V_gen is all zero, and
then its coordinates are V_coord / d.  Otherwise x is selected: U = V
with coordinate -d on x is a new relation, its pivot is V's first
nonzero generator coordinate and r = U[pivot]; each old row becomes
(r * R - R[pivot] * U) / scale, and r is the new scale.  Every entry is
then a minor of the relation matrix, so by Sylvester's identity that
division is exact (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968), and no
gcd is taken.  Each distinct input keeps its coordinates as integers,
V_coord padded to the basis width over d; they become Fractions, which
reduce them, only when ``coords`` (one each) or ``coords_st`` (two) asks.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import NotInSpan
from .exactnum import LinExpr, Value

__all__ = ["Basis", "extract_basis"]


class Basis(Value):
    """Selected elements plus an exact coordinate solver.

    ``elements[0]`` is s0 and, in the incommensurable case, ``elements[1]``
    is t0.  ``coords`` solves for the unique representation of any length
    in the span.  ``known`` maps each distinct extraction input to its
    coordinates as integer numerators and one denominator; the basis
    keeps it as a read-only view, which answers ``coords`` for those
    inputs.  Two bases are equal only when they are the same object.
    """

    __slots__ = ("elements", "_rows", "_scale", "has_t0", "_known")

    def __init__(self, elements, rows, scale, has_t0, known):
        super().__init__(tuple(elements), tuple(rows), scale, has_t0, MappingProxyType(dict(known)))

    def __reduce__(self):
        return Basis, (*self._fields()[:-1], dict(self._known))  # a view does not pickle

    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    @property
    def rank(self) -> int:
        return len(self._rows)

    def coords(self, p: LinExpr) -> tuple:
        """Unique coordinates of ``p`` over ``elements``.

        Raises TableMismatch if ``p`` is over another generator table, and
        NotInSpan if it is not a rational combination of the basis
        elements.  Extraction inputs are answered from the map the basis
        was built with.
        """
        nums, d = self._coords(p)
        return tuple(Fraction(v, d) for v in nums)

    def _coords(self, p: LinExpr) -> tuple:
        """``coords`` of ``p`` as integer numerators over one denominator."""
        if p.table is not self.elements[0].table:
            self.elements[0]._check_table(p)
        known = self._known.get(p)
        if known is not None:
            return known
        n = len(p.table)
        vector, d = _reduce(self._rows, self._scale, p, len(self.elements))
        if any(vector[:n]):
            raise NotInSpan(f"{p} is not in the span of the basis")
        return vector[n:], d

    def coords_st(self, p: LinExpr) -> tuple:
        """The (s0, t0) coordinate pair of ``p``'s unique representation.

        When the basis has no t0 (commensurable extraction), the t0
        coordinate is 0 for every length in the span.
        """
        a, b, d = self._st(p)
        return Fraction(a, d), Fraction(b, d)

    def _st(self, p: LinExpr) -> tuple:
        """``coords_st`` of ``p`` as two integer numerators and a denominator."""
        nums, d = self._coords(p)
        return nums[0], nums[1] if self.has_t0 else 0, d


def _reduce(rows, scale, p: LinExpr, width: int):
    """Reduce ``p`` against ``rows``; return the integer vector V and its
    denominator d, with a coordinate part ``width`` long.

    ``rows`` are ``(pivot, R)`` pairs with the common pivot value
    ``scale``, as the module docstring states, so one pass
    V = scale * P - sum_j P[pivot_j] * R_j zeroes every pivot of P.
    """
    vector = list(p._nums) + [0] * width
    out = [scale * v for v in vector]
    for pivot, row in rows:
        f = vector[pivot]
        if f:
            out = [v - f * x for v, x in zip(out, row)]
    return out, scale * p._den


def _pivot_on(rows, scale, pivot: int, u: tuple):
    """Add the relation ``u``, 0 at every old pivot, with pivot ``pivot``;
    return the new rows and their common pivot value r = ``u[pivot]``.
    Each old row R becomes (r * R - R[pivot] * u) / scale, exactly.
    """
    r = u[pivot]
    rows = tuple((j, tuple((r * x - row[pivot] * y) // scale for x, y in zip(row + (0,), u))) for j, row in rows)
    return rows + ((pivot, u),), r


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
    rows, scale = (), 1
    seen: dict[LinExpr, tuple] = {}  # (numerators, denominator) of each distinct length
    for pos, p in enumerate(lengths):
        if p not in seen:
            k = len(elements)
            vector, d = _reduce(rows, scale, p, k)
            pivot = next((i for i in range(n) if vector[i]), None)
            if pivot is None:  # in the span of the already selected elements
                seen[p] = vector[n:], d
            else:  # independent: underline p as a new element
                elements.append(p)
                rows, scale = _pivot_on(rows, scale, pivot, (*vector, -d))
                seen[p] = [0] * k + [1], 1
        if pos == 1:  # t0 is selected only if it is not s0 or in its span
            has_t0 = len(elements) == 2

    pad = [0] * len(elements)
    known = {p: (tuple(c + pad[len(c):]), d) for p, (c, d) in seen.items()}
    return Basis(elements, rows, scale, has_t0, known)
