"""Rectangle tilings and their exact geometric validation.

The validator indexes the distinct x and y edge values (cuts) by
``exactnum.index_sums``, on their integer stored form, so a right or top
edge becomes an expression only when no tile starts there and it is
neither 0 nor the outer side.  It orders the cuts once per axis, by
``exactnum.certified_order``, then checks sides and bounds and sweeps
the x-cuts left to right on integer cut ranks.  Side and bound
failures are always explained by certified comparison of cut values,
so they are reported even when a pair of cuts cannot be ordered, before
that pair is raised (``validate`` gives the argument and the cost).
Between two neighbouring x-cuts lies a slab.  The validator accepts
exactly when every slab is covered exactly once along its whole height
and everything stays inside the outer rectangle.  Only a failing slab
is expanded into its cells of the refined grid (every tile edge
extended across the rectangle), so failure witnesses are refined-grid
cells.  All decisions are made by symbolic equality or certified
interval comparison; floating point is never consulted.
"""

from __future__ import annotations

import operator

from .errors import AmbiguousComparison
from .exactnum import GeneratorTable, LinExpr, Value, certified_order, index_sums

__all__ = [
    "Placement",
    "Tiling",
    "Failure",
    "ValidationReport",
    "validate",
]


class Placement(Value):
    """An axis-aligned tile: lower-left corner (x, y), sides w x h."""

    __slots__ = ("x", "y", "w", "h")


class Tiling(Value):
    """An outer rectangle with a nonempty list of tile placements."""

    __slots__ = ("outer_w", "outer_h", "tiles", "table")

    def __init__(self, outer_w: LinExpr, outer_h: LinExpr, tiles, table: GeneratorTable):
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("a tiling needs at least one tile")
        exprs = [outer_w, outer_h]
        for t in tiles:
            exprs += [t.x, t.y, t.w, t.h]
        for e in exprs:
            if e.table is not table and e.table != table:
                raise ValueError("all expressions must use the tiling's generator table")
        super().__init__(outer_w, outer_h, tiles, table)

    def side_lengths(self) -> list:
        """Outer sides then every tile's w, h, in tile order."""
        out = [self.outer_w, self.outer_h]
        for t in self.tiles:
            out += [t.w, t.h]
        return out


class Failure(Value):
    """One validation failure: a kind, the tiles involved, a grid cell and a witness."""

    __slots__ = ("kind", "tiles", "cell", "witness")  # kind: overlap | gap | out_of_bounds | nonpositive_side

    def __init__(self, kind: str, tiles: tuple = (), cell: tuple | None = None, witness: dict | None = None):
        super().__init__(kind, tiles, cell, {} if witness is None else witness)

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "tiles": list(self.tiles)}
        if self.cell is not None:
            out["cell"] = list(self.cell)
        if self.witness:
            out["witness"] = {k: str(v) for k, v in self.witness.items()}
        return out


class ValidationReport(Value):
    __slots__ = ("failures",)

    @property
    def verdict(self) -> str:
        return "valid" if not self.failures else "invalid"

    @property
    def is_valid(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "failures": [f.as_dict() for f in self.failures]}

    def __str__(self):
        if self.is_valid:
            return "valid"
        return "invalid: " + "; ".join(
            f.kind + (f" tiles {list(f.tiles)}" if f.tiles else "") for f in self.failures
        )


_X_W, _Y_H = operator.attrgetter("x", "w"), operator.attrgetter("y", "h")


def _side_failures(t: Tiling, edges, zero):
    """Nonpositive-side and out-of-bounds failures, in tile order.

    The one explanation of a failed side or bounds check, by certified
    ``LinExpr.cmp`` on cut values.  ``edges`` holds each tile's
    (x, right, y, top).  A side is positive as its far edge lies past its
    near edge.
    """
    failures = []
    for name, value in (("outer_w", t.outer_w), ("outer_h", t.outer_h)):
        if value.cmp(zero) <= 0:
            failures.append(Failure("nonpositive_side", witness={"side": name, "value": value}))
    for i, (p, (x, right, y, top)) in enumerate(zip(t.tiles, edges)):
        before = len(failures)
        for name, e, hi, lo in (("w", p.w, right, x), ("h", p.h, top, y)):
            if hi.cmp(lo) <= 0:
                failures.append(
                    Failure("nonpositive_side", tiles=(i,), witness={"side": name, "value": e})
                )
        # bounds only meaningful for tiles with certified positive sides
        if len(failures) > before:
            continue
        for cond, lo, hi in (
            ("x >= 0", zero, x),
            ("y >= 0", zero, y),
            ("right <= outer_w", right, t.outer_w),
            ("top <= outer_h", top, t.outer_h),
        ):
            if hi.cmp(lo) < 0:
                failures.append(
                    Failure("out_of_bounds", tiles=(i,), witness={"constraint": cond, "x": p.x, "y": p.y})
                )
    return failures


def _ranks(order):
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def _at(seq, indices) -> list:
    return list(map(seq.__getitem__, indices))


def validate(t: Tiling) -> ValidationReport:
    """Check that the tiles cut the outer rectangle exactly.

    Geometric failures (gap, overlap, out_of_bounds, nonpositive_side)
    are reported as data.  A certified comparison the enclosures cannot
    settle is not: the first one raises AmbiguousComparison naming the
    pair (tighten the generator enclosures and retry).  Failures come in
    a fixed order: sides, then bounds, then coverage; any side or bounds
    failure ends the check before coverage.  Each tile's right and top
    edge is summed once on integers, by ``index_sums``, and equal cut
    values share one index, so each distinct value's enclosure is
    evaluated once.  An edge where a tile starts, or at 0 or the outer
    side, as every edge of a valid tiling is, builds no expression.

    The distinct x and y cut values are ordered first, each axis by
    ``certified_order`` inside one ``try``.  The cases:

    * Both orders come back.  Every neighbouring pair of each order is
      certified LESS (confirmed on the lower-bound order, or compared by
      a ``cmp`` sort that succeeded), so by transitivity every pair of
      cuts certifies, since the difference of the ends of a chain lies
      inside the sum of the chain's enclosures.  Each ``cmp`` on two
      cuts therefore gives the rank comparison's answer.  A tiling
      passes the side and bounds checks exactly when each tile's near
      edge ranks below its far edge and the least near and greatest far
      edge ranks lie inside the outer ones, so the check is a few passes
      over rank lists, and the coverage sweep runs on ranks too.  A
      failed check is explained by ``_side_failures``, the one side and
      bounds explanation, which compares the cut values by ``cmp``; no
      comparison there can raise, so it lists the failures the ranks
      would.
    * An order raises on a pair of cuts.  ``_side_failures`` runs on the
      same cut values, as it would before any sort: its failures are
      the report, or it raises on the first side or bounds pair it
      cannot order.  Only when it finds none is the cut pair re-raised,
      the pair a ``cmp`` sort of the cuts in first-seen order meets
      first (the x cuts before the y cuts).

    Coverage is one sweep over the x-cuts.  ``net[j]`` counts the active
    tiles (those spanning the current slab) whose y-span starts at y-cut
    ``j``, minus those whose y-span ends there.  Cell ``j`` of the slab
    lies in a tile's span ``[lo, hi)`` iff ``lo <= j < hi``, so it is
    covered ``sum(net[:j + 1])`` times.  Every cell is covered exactly
    once iff those prefix sums are all 1, that is iff ``net`` equals the
    exact-cover profile ``1`` at 0, ``0`` inside and ``-1`` at ``ny``
    (``net`` always sums to 0, which fixes the last entry).  ``bad``
    counts the indices where ``net`` differs from that profile, so slab
    ``i`` is exact iff ``bad == 0`` once the tiles ending and starting at
    x-cut ``i`` are applied.  Only a failing slab is expanded into its
    column of owner lists, in tile order, giving the same gap and overlap
    failures, in the same (i, j) order, as a full grid of cells.

    Cost: one integer sort of the cuts and n - 1 neighbour checks, most
    of them one cross-multiplication (O(n log n) certified comparisons
    on the fallback), then O(n + ny) integer work and memory for the
    sweep; a failing slab with c covered cells adds O(ny + c log c).
    """
    zero = LinExpr.zero(t.table)
    x_vals, x_lo, x_hi = index_sums((zero, t.outer_w), map(_X_W, t.tiles))
    y_vals, y_lo, y_hi = index_sums((zero, t.outer_h), map(_Y_H, t.tiles))

    def edges():  # each tile's (x, right, y, top) cut values
        return zip(_at(x_vals, x_lo), _at(x_vals, x_hi), _at(y_vals, y_lo), _at(y_vals, y_hi))

    try:
        x_order, y_order = certified_order(x_vals), certified_order(y_vals)
    except AmbiguousComparison:
        failures = _side_failures(t, edges(), zero)
        if failures:
            return ValidationReport(tuple(failures))
        raise
    x_rank, y_rank = _ranks(x_order), _ranks(y_order)
    x, right = _at(x_rank, x_lo), _at(x_rank, x_hi)
    y, top = _at(y_rank, y_lo), _at(y_rank, y_hi)
    zero_x, zero_y = x_rank[0], y_rank[0]
    outer_w, outer_h = x_rank[x_vals.index(t.outer_w)], y_rank[y_vals.index(t.outer_h)]
    # every tile positive and inside puts the outer sides past zero too
    if not (
        all(map(operator.lt, x, right)) and all(map(operator.lt, y, top))
        and zero_x <= min(x) and max(right) <= outer_w
        and zero_y <= min(y) and max(top) <= outer_h
    ):
        return ValidationReport(tuple(_side_failures(t, edges(), zero)))

    nx, ny = len(x_vals) - 1, len(y_vals) - 1
    starts = [[] for _ in range(nx + 1)]
    ends = [[] for _ in range(nx + 1)]
    for idx, (lo, hi) in enumerate(zip(x, right)):
        starts[lo].append(idx)
        ends[hi].append(idx)
    spans = list(zip(y, top))

    target = [0] * (ny + 1)
    target[0], target[ny] = 1, -1
    net = [0] * (ny + 1)
    bad = 2  # net starts all zero: wrong at 0 and at ny
    active, failures = set(), []

    def bump(j, d):
        nonlocal bad
        was = net[j] != target[j]
        net[j] += d
        bad += (net[j] != target[j]) - was

    for i in range(nx):
        for idx in ends[i]:
            active.remove(idx)
            lo, hi = spans[idx]
            bump(lo, -1)
            bump(hi, 1)
        for idx in starts[i]:
            active.add(idx)
            lo, hi = spans[idx]
            bump(lo, 1)
            bump(hi, -1)
        if not bad:
            continue
        column = [[] for _ in range(ny)]
        for idx in sorted(active):
            lo, hi = spans[idx]
            for j in range(lo, hi):
                column[j].append(idx)
        for j, owners in enumerate(column):
            cell_w = {"cell_x": x_vals[x_order[i]], "cell_y": y_vals[y_order[j]]}
            if not owners:
                failures.append(Failure("gap", cell=(i, j), witness=cell_w))
            elif len(owners) > 1:
                failures.append(
                    Failure("overlap", tiles=tuple(owners), cell=(i, j), witness=cell_w)
                )
    return ValidationReport(tuple(failures))
