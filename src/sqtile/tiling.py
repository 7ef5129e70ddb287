"""Rectangle tilings and their exact geometric validation.

The validator extends every tile edge across the outer rectangle,
producing a product grid of cells, and accepts exactly when every cell
is owned by exactly one tile, every tile is exactly its block of cells,
and everything stays inside the outer rectangle.  All decisions are
made by symbolic equality or certified interval comparison; floating
point is never consulted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import AmbiguousComparison
from .exactnum import GeneratorTable, LinExpr

__all__ = [
    "Placement",
    "Tiling",
    "Failure",
    "ValidationReport",
    "validate",
    "is_square",
]


@dataclass(frozen=True, slots=True)
class Placement:
    """An axis-aligned tile: lower-left corner (x, y), sides w x h."""

    x: LinExpr
    y: LinExpr
    w: LinExpr
    h: LinExpr

    @property
    def right(self) -> LinExpr:
        return self.x + self.w

    @property
    def top(self) -> LinExpr:
        return self.y + self.h


@dataclass(frozen=True, slots=True)
class Tiling:
    """An outer rectangle with a nonempty list of tile placements."""

    outer_w: LinExpr
    outer_h: LinExpr
    tiles: tuple
    table: GeneratorTable

    def __post_init__(self):
        object.__setattr__(self, "tiles", tuple(self.tiles))
        if not self.tiles:
            raise ValueError("a tiling needs at least one tile")
        exprs = [self.outer_w, self.outer_h]
        for t in self.tiles:
            exprs += [t.x, t.y, t.w, t.h]
        for e in exprs:
            if e.table != self.table:
                raise ValueError("all expressions must use the tiling's generator table")

    def side_lengths(self) -> list:
        """Outer sides then every tile's w, h, in tile order."""
        out = [self.outer_w, self.outer_h]
        for t in self.tiles:
            out += [t.w, t.h]
        return out


@dataclass(frozen=True, slots=True)
class Failure:
    """One validation failure: a kind, the tiles involved, and a witness."""

    kind: str  # overlap | gap | out_of_bounds | nonpositive_side | ambiguous
    tiles: tuple = ()
    cell: tuple | None = None
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "tiles": list(self.tiles)}
        if self.cell is not None:
            out["cell"] = list(self.cell)
        if self.witness:
            out["witness"] = {k: str(v) for k, v in self.witness.items()}
        return out


@dataclass(frozen=True, slots=True)
class ValidationReport:
    failures: tuple

    @property
    def verdict(self) -> str:
        return "valid" if not self.failures else "invalid"

    @property
    def is_valid(self) -> bool:
        return not self.failures

    @property
    def is_ambiguous(self) -> bool:
        return any(f.kind == "ambiguous" for f in self.failures)

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "failures": [f.as_dict() for f in self.failures]}

    def __str__(self):
        if self.is_valid:
            return "valid"
        return "invalid: " + "; ".join(
            f.kind + (f" tiles {list(f.tiles)}" if f.tiles else "") for f in self.failures
        )


def is_square(p: Placement) -> bool:
    """True iff w and h are symbolically equal expressions."""
    return p.w == p.h


def _side_failures(t: Tiling, zero, outer_w, outer_h, edges):
    """Nonpositive-side and out-of-bounds failures, by certified comparison."""
    failures = []

    def sign_of(hi, lo, what, tiles):
        """Certified sign of hi - lo; an ambiguity becomes a failure."""
        try:
            return hi.cmp(lo)
        except AmbiguousComparison:
            # worded as the sign of the difference, as the check is stated
            detail = str(AmbiguousComparison.overlap(hi - lo, zero))
            failures.append(Failure("ambiguous", tiles=tiles, witness={"detail": detail, "where": what}))
            return None

    for name, e in (("outer_w", outer_w), ("outer_h", outer_h)):
        s = sign_of(e, zero, name, ())
        if s is not None and s <= 0:
            failures.append(Failure("nonpositive_side", witness={"side": name, "value": e}))
    for i, (p, (x, right, y, top)) in enumerate(zip(t.tiles, edges)):
        before = len(failures)
        for name, e in (("w", p.w), ("h", p.h)):
            s = sign_of(e, zero, f"tile {i} {name}", (i,))
            if s is not None and s <= 0:
                failures.append(
                    Failure("nonpositive_side", tiles=(i,), witness={"side": name, "value": e})
                )
        # bounds only meaningful for tiles with certified positive sides
        if len(failures) > before:
            continue
        for cond, lo, hi in (
            ("x >= 0", zero, x),
            ("y >= 0", zero, y),
            ("right <= outer_w", right, outer_w),
            ("top <= outer_h", top, outer_h),
        ):
            s = sign_of(hi, lo, f"tile {i} {cond}", (i,))
            if s is not None and s < 0:
                failures.append(
                    Failure("out_of_bounds", tiles=(i,), witness={"constraint": cond, "x": p.x, "y": p.y})
                )
    return failures


def validate(t: Tiling) -> ValidationReport:
    """Check that the tiles cut the outer rectangle exactly.

    Failures are reported as data, never raised; an ambiguous certified
    comparison becomes a failure of kind "ambiguous" (tighten the
    generator enclosures and retry).  Every tile's right and top edge is
    built once, and equal cut values share one object, so each distinct
    value's enclosure is evaluated once.
    """
    zero = LinExpr.zero(t.table)
    xs = {zero: zero}
    ys = {zero: zero}
    outer_w = xs.setdefault(t.outer_w, t.outer_w)
    outer_h = ys.setdefault(t.outer_h, t.outer_h)
    edges = []
    for p in t.tiles:
        right, top = p.right, p.top
        edges.append((
            xs.setdefault(p.x, p.x),
            xs.setdefault(right, right),
            ys.setdefault(p.y, p.y),
            ys.setdefault(top, top),
        ))
    failures = _side_failures(t, zero, outer_w, outer_h, edges)
    if failures:
        return ValidationReport(tuple(failures))

    certified = functools.cmp_to_key(LinExpr.cmp)
    try:
        x_cuts = sorted(xs, key=certified)
        y_cuts = sorted(ys, key=certified)
    except AmbiguousComparison as exc:
        return ValidationReport((Failure("ambiguous", witness={"detail": str(exc)}),))
    x_index = {v: i for i, v in enumerate(x_cuts)}
    y_index = {v: i for i, v in enumerate(y_cuts)}

    nx, ny = len(x_cuts) - 1, len(y_cuts) - 1
    owners = [[[] for _ in range(ny)] for _ in range(nx)]
    for idx, (x, right, y, top) in enumerate(edges):
        for i in range(x_index[x], x_index[right]):
            for j in range(y_index[y], y_index[top]):
                owners[i][j].append(idx)
    for i in range(nx):
        for j in range(ny):
            cell_w = {"cell_x": x_cuts[i], "cell_y": y_cuts[j]}
            if not owners[i][j]:
                failures.append(Failure("gap", cell=(i, j), witness=cell_w))
            elif len(owners[i][j]) > 1:
                failures.append(
                    Failure("overlap", tiles=tuple(owners[i][j]), cell=(i, j), witness=cell_w)
                )
    return ValidationReport(tuple(failures))
