"""Seeded input generators for the sqtile benchmark.

Every generator returns documents (or argv) together with the answer the
package must give, and that answer comes from how the input was built,
never from running ``sqtile``.  This module imports nothing from the
package, so it can serve as an independent oracle.

Families:

* ``log_cabin``: strips of width 1/2, sqrt2/3 and sqrt3/5 wrapped round a
  unit square.  Cut lines never align, so the refined grid has about
  n^2/4 cells and every cut comparison needs certified enclosures.
* ``staircase``: the Euclid slicing of a Fibonacci-like integer rectangle;
  purely rational, about n^2/4 cells.
* ``columns``: a row of two-tile columns whose widths combine 6-7 square
  roots with coefficients of tens of digits; the outer height uses one
  more square root, so the rectangle is not tilable by construction.
* ``convergent_claim``: a claimed square tiling of 1 x sqrt2 built from a
  convergent p/q of sqrt2; its geometry is invalid by construction.
* ``moron`` and ``fig4``: fixed documents (Moron's 33 x 32 squared
  rectangle, decoded from its Bouwkamp code, and the paper's Fig. 4).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Squarefree radicands from 2 to 13; their square roots are linearly
# independent over Q (Besicovitch 1940), as the package assumes.
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
ENCLOSURE_DIGITS = 20


class Lin:
    """A rational combination of symbols; the unit is the symbol "1"."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {s: v for s, v in (coeffs or {}).items() if v}

    def __add__(self, other):
        out = dict(self.c)
        for s, v in other.c.items():
            out[s] = out.get(s, 0) + v
        return Lin(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        return Lin({s: v * q for s, v in self.c.items()})

    def key(self):
        return tuple(sorted(self.c.items()))

    def value(self):
        """A float estimate, used only to place defects, never to decide."""
        return sum(float(v) * (1.0 if s == "1" else math.sqrt(int(s[4:]))) for s, v in self.c.items())

    def digits(self):
        return max((_digits(v) for v in self.c.values()), default=1)

    def text(self, order):
        """The expression in the package's grammar, unit term first."""
        parts = []
        for s in order:
            v = self.c.get(s)
            if not v:
                continue
            body = str(abs(v)) if s == "1" else f"{abs(v)}*{s}"
            if parts:
                parts.append(("+ " if v > 0 else "- ") + body)
            else:
                parts.append(body if v > 0 else "-" + body)
        return " ".join(parts) if parts else "0"


def _digits(q: Fraction) -> int:
    return max(len(str(abs(q.numerator))), len(str(q.denominator)))


def const(q) -> Lin:
    return Lin({"1": q})


def sym(name: str, q=1) -> Lin:
    return Lin({name: q})


def enclosure(n: int, digits: int = ENCLOSURE_DIGITS):
    """A certified bracket [lo, hi] of sqrt(n) with hi - lo = 10**-digits."""
    scale = 10**digits
    r = math.isqrt(n * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


@dataclass
class Doc:
    """One benchmark document and what the package must say about it.

    ``cuts`` is the number of distinct x and y cut lines, deduplicated by
    exact value; the refined grid has (cuts_x - 1) * (cuts_y - 1) cells.
    """

    family: str
    data: bytes
    tiles: int
    cuts: tuple
    max_digits: int
    expect: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return (self.cuts[0] - 1) * (self.cuts[1] - 1)


def make_doc(family, symbols, outer_w: Lin, outer_h: Lin, tiles, expect, *, declare=True) -> Doc:
    """Serialise a tiling as a .tiling document.

    With ``declare`` every generator gets an explicit 20-digit bracket;
    without it the document relies on the package's built-in enclosures.
    """
    order = ["1"] + list(symbols)
    gens = []
    for s in symbols:
        g = {"symbol": s}
        if declare:
            lo, hi = enclosure(int(s[4:]))
            g.update(lo=str(lo), hi=str(hi))
        gens.append(g)
    raw = {
        "generators": gens,
        "outer": {"w": outer_w.text(order), "h": outer_h.text(order)},
        "tiles": [
            {"x": x.text(order), "y": y.text(order), "w": w.text(order), "h": h.text(order)}
            for x, y, w, h in tiles
        ],
    }
    xs = {Lin().key(), outer_w.key()}
    ys = {Lin().key(), outer_h.key()}
    for x, y, w, h in tiles:
        xs.update((x.key(), (x + w).key()))
        ys.update((y.key(), (y + h).key()))
    digits = max([outer_w.digits(), outer_h.digits()] + [e.digits() for t in tiles for e in t])
    return Doc(family, json.dumps(raw).encode(), len(tiles), (len(xs), len(ys)), digits, expect)


def _plant(rng, tiles, outer_w: Lin, kind: str):
    """Plant one defect and return the failure kinds ``validate`` must report.

    ``shrink`` makes one tile thinner by a tiny rational: exactly a gap.
    ``nudge`` shifts a tile whose right edge is inside the rectangle to
    the right by a tiny rational: a gap on its left, an overlap on its right.
    """
    delta = Fraction(1, rng.randrange(1000, 10000))
    if kind == "shrink":
        i = rng.randrange(len(tiles))
        x, y, w, h = tiles[i]
        tiles[i] = (x, y, w - const(delta), h)
        return ["gap"]
    room = outer_w.value() - 2 * float(delta)
    inner = [i for i, (x, y, w, h) in enumerate(tiles) if (x + w).value() < room]
    i = rng.choice(inner)
    x, y, w, h = tiles[i]
    tiles[i] = (x + const(delta), y, w, h)
    return ["gap", "overlap"]


def _finish(family, symbols, outer_w, outer_h, tiles, rng, defect, *, declare=True):
    expect = {"verdict": "valid"}
    if defect:
        expect = {"verdict": "invalid", "kinds": _plant(rng, tiles, outer_w, defect)}
    rng.shuffle(tiles)
    return make_doc(family, symbols, outer_w, outer_h, tiles, expect, declare=declare)


def log_cabin(rng: random.Random, n: int, defect: str | None = None) -> Doc:
    """A unit square wrapped by n - 1 strips, right, top, left, bottom in turn."""
    widths = (const(Fraction(1, 2)), sym("sqrt2", Fraction(1, 3)), sym("sqrt3", Fraction(1, 5)))
    zero = Lin()
    x0, y0, x1, y1 = zero, zero, const(1), const(1)
    tiles = [(zero, zero, const(1), const(1))]
    for i in range(n - 1):
        s = rng.choice(widths)
        side = i % 4
        if side == 0:
            tiles.append((x1, y0, s, y1 - y0))
            x1 = x1 + s
        elif side == 1:
            tiles.append((x0, y1, x1 - x0, s))
            y1 = y1 + s
        elif side == 2:
            x0 = x0 - s
            tiles.append((x0, y0, s, y1 - y0))
        else:
            y0 = y0 - s
            tiles.append((x0, y0, x1 - x0, s))
    tiles = [(x - x0, y - y0, w, h) for x, y, w, h in tiles]
    return _finish("log_cabin", ("sqrt2", "sqrt3"), x1 - x0, y1 - y0, tiles, rng, defect, declare=False)


def euclid_squares(w: Fraction, h: Fraction):
    """Greedy Euclid slicing of w x h: squares off the left when wide,
    off the bottom when tall.  Returns (x, y, side) triples."""
    out = []
    x0 = y0 = Fraction(0)
    while True:
        if w == h:
            out.append((x0, y0, w))
            return out
        if w > h:
            out.append((x0, y0, h))
            x0 += h
            w -= h
        else:
            out.append((x0, y0, w))
            y0 += w
            h -= w


def quotient_sum(q: Fraction) -> int:
    """Sum of the continued-fraction quotients of max(q, 1/q)."""
    num, den = max(q.numerator, q.denominator), min(q.numerator, q.denominator)
    total = 0
    while den:
        a, r = divmod(num, den)
        total += a
        num, den = den, r
    return total


def fibonacci_like(rng: random.Random, m: int):
    """Consecutive terms G(m+1), G(m) of G(k+1) = G(k) + G(k-1), seeded start."""
    a, b = rng.randrange(1, 10), rng.randrange(1, 10)
    for _ in range(m):
        a, b = b, a + b
    return b, a


def staircase(rng: random.Random, m: int, defect: str | None = None) -> Doc:
    """The Euclid tiling of a G(m+1) x G(m) rectangle."""
    w, h = fibonacci_like(rng, m)
    squares = euclid_squares(Fraction(w), Fraction(h))
    tiles = [(const(x), const(y), const(s), const(s)) for x, y, s in squares]
    doc = _finish("staircase", (), const(w), const(h), tiles, rng, defect)
    doc.expect["squares"] = quotient_sum(Fraction(w, h))
    return doc


def columns(rng: random.Random, cols: int, k: int, digits: int) -> Doc:
    """A row of two-tile columns over k width generators and one height one.

    Width j is (N_j0 + sum_i N_ji * g_i) / D with positive numerators of
    about ``digits`` digits, so every comparison is certified by positive
    enclosures.  The first k + 1 width vectors are strictly diagonally
    dominant, hence independent; the outer height c * g_h uses a generator
    no width uses.  So the side lengths have rank k + 2, the rectangle is
    not tilable, and its first tile is not a square.  ``cols`` must be at
    least k + 1.
    """
    if cols <= k:
        raise ValueError(f"need at least {k + 1} columns for rank {k + 2}")
    names = [f"sqrt{n}" for n in RADICANDS]
    rng.shuffle(names)
    wgens, hgen = names[:k], names[k]
    coords = ["1"] + wgens
    small = 10**digits
    den = rng.randrange(small, 10 * small)
    widths = []
    for j in range(cols):
        nums = [rng.randrange(1, small) for _ in coords]
        if j <= k:
            nums[j] = rng.randrange((k + 1) * small, (k + 2) * small)
        widths.append(Lin({s: Fraction(v, den) for s, v in zip(coords, nums)}))
    outer_h = sym(hgen, Fraction(rng.randrange(small, 10 * small), den))
    splits = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    tiles = []
    x = Lin()
    for w in widths:
        low = outer_h.scale(rng.choice(splits))
        tiles.append((x, Lin(), w, low))
        tiles.append((x, low, w, outer_h - low))
        x = x + w
    rng.shuffle(tiles)
    symbols = sorted(wgens + [hgen], key=lambda s: int(s[4:]))
    expect = {"verdict": "valid", "rank": k + 2, "refutation": "tile_not_square"}
    return make_doc("columns", symbols, x, outer_h, tiles, expect)


def sqrt2_convergents(count: int):
    """The first ``count`` convergents p/q of the continued fraction [1; 2, 2, ...]."""
    out = []
    p0, q0, p1, q1 = 1, 0, 1, 1
    for _ in range(count):
        out.append(Fraction(p1, q1))
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return out


def convergent_claim(rng: random.Random, index: int) -> Doc:
    """Euclid squares of 1 x p/q, claimed as a tiling of 1 x sqrt2."""
    pq = sqrt2_convergents(index + 1)[index]
    tiles = [(const(x), const(y), const(s), const(s)) for x, y, s in euclid_squares(Fraction(1), pq)]
    rng.shuffle(tiles)
    expect = {"verdict": "invalid", "refutation": "geometry_invalid", "squares": quotient_sum(pq)}
    return make_doc("convergent_claim", ("sqrt2",), const(1), sym("sqrt2"), tiles, expect)


# Moron's 33 x 32 squared rectangle, Bouwkamp code [18,15][7,8][14,4][10,1][9].
MORON_CODE = ((18, 15), (7, 8), (14, 4), (10, 1), (9,))


def bouwkamp_squares(code):
    """Decode a Bouwkamp code into (x, y, side) squares and the outer size.

    Each bracket fills, left to right, the lowest and then leftmost flat
    segment of the current skyline.
    """
    width = sum(code[0])
    sky = [(0, width, 0)]  # (x, length, height) segments, left to right
    squares = []
    for group in code:
        i = min(range(len(sky)), key=lambda j: (sky[j][2], sky[j][0]))
        x, length, height = sky[i]
        placed = 0
        new = []
        for s in group:
            squares.append((x + placed, height, s))
            new.append((x + placed, s, height + s))
            placed += s
        if placed > length:
            raise ValueError(f"bracket {group} overflows its segment")
        rest = [(x + placed, length - placed, height)] if placed < length else []
        sky[i : i + 1] = new + rest
        merged = []
        for seg in sky:
            if merged and merged[-1][2] == seg[2]:
                px, pl, ph = merged[-1]
                merged[-1] = (px, pl + seg[1], ph)
            else:
                merged.append(seg)
        sky = merged
    if len(sky) != 1:
        raise ValueError("Bouwkamp code does not close to a rectangle")
    return squares, width, sky[0][2]


def moron() -> Doc:
    squares, w, h = bouwkamp_squares(MORON_CODE)
    tiles = [(const(x), const(y), const(s), const(s)) for x, y, s in squares]
    expect = {"verdict": "valid", "verify": "confirmed", "ratio": Fraction(h, w)}
    return make_doc("moron", (), const(w), const(h), tiles, expect)


def fig4() -> Doc:
    """The paper's Fig. 4: a valid three-tile cut of 1 x (2 + sqrt2) that is
    not a square tiling (tile 0 is 1/3 x sqrt3)."""
    s3 = sym("sqrt3")
    tiles = [
        (Lin(), Lin(), const(Fraction(1, 3)), s3),
        (const(Fraction(1, 3)), Lin(), const(Fraction(2, 3)), s3),
        (Lin(), s3, const(1), const(2) + sym("sqrt2") - s3),
    ]
    expect = {"verdict": "valid", "verify": "refuted", "refutation": "tile_not_square"}
    return make_doc("fig4", ("sqrt2", "sqrt3"), const(1), const(2) + sym("sqrt2"), tiles, expect, declare=False)


# --- workload plans ----------------------------------------------------------
#
# Each plan fixes the sizes and the mix; the seed only picks shapes,
# coefficients, defect sites and order.  So every seed asks for about the
# same work, and run-to-run spread measures the machine, not the inputs.

GRID_SIZES = tuple(range(100, 400, 20))
GRID_DEFECTS = ("shrink",) * 4 + ("nudge",) * 4
WIDE_COLUMNS = tuple(range(8, 14)) * 2
WIDE_DIGITS = 64
WIDE_CLAIMS = 4
CLI_BLOCKS = 2


def library(seed: int) -> list:
    """In-process ops of both kinds, interleaved.

    Validation-heavy: log-cabin spirals and staircases of 100-380 tiles, a
    quarter of them defective.  Certification-heavy: column rows over 6-7
    generators with 64-digit coefficients, plus claimed tilings of 1 x sqrt2.
    """
    rng = random.Random(seed)
    specs = [(log_cabin, n) for n in GRID_SIZES] + [(staircase, n) for n in GRID_SIZES]
    defects = dict(zip(rng.sample(range(len(specs)), len(GRID_DEFECTS)), GRID_DEFECTS))
    docs = [make(rng, n, defects.get(i)) for i, (make, n) in enumerate(specs)]
    docs += [columns(rng, cols, 6 + i % 2, WIDE_DIGITS) for i, cols in enumerate(WIDE_COLUMNS)]
    docs += [convergent_claim(rng, rng.randrange(2, 10)) for _ in range(WIDE_CLAIMS)]
    rng.shuffle(docs)
    return docs


@dataclass
class CliOp:
    """One ``sqtile`` invocation and the exit code and JSON payload it must give.

    ``payload`` is the expected subset of the JSON report; ``rects`` is the
    number of <rect> elements a render must emit.  ``doc`` and ``ratio``
    let the traced run replay render and construct in-process.
    """

    command: str
    argv: list
    exit: int
    payload: dict
    max_digits: int
    stdin: bytes | None = None
    doc: Doc | None = None
    ratio: Fraction | None = None
    rects: int = 0


def _rand_q(rng, lo, hi, den=12):
    return Fraction(rng.randrange(lo * den, hi * den) + 1, den)


def _decide(rng, tilable: bool) -> CliOp:
    g1, g2 = rng.sample(["sqrt2", "sqrt3", "sqrt5"], 2)
    w = const(_rand_q(rng, 1, 5)) + sym(g1, _rand_q(rng, 1, 5))
    if tilable:
        q = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        h = w.scale(q)
        payload = {"verdict": "tilable", "ratio": str(q)}
    else:
        h = const(_rand_q(rng, 1, 5)) + sym(g2, _rand_q(rng, 1, 5))
        payload = {"verdict": "not_tilable", "certificate": {"y": "-1"}}
    order = ["1", "sqrt2", "sqrt3", "sqrt5"]
    argv = ["decide", "--width", w.text(order), "--height", h.text(order)]
    return CliOp("decide", argv, 0 if tilable else 1, payload, max(w.digits(), h.digits()))


def _construct(rng) -> CliOp:
    a, b = fibonacci_like(rng, rng.randrange(10, 26))
    q = Fraction(a, b)
    payload = {"squares": quotient_sum(q)}
    return CliOp("construct", ["construct", "--ratio", str(q)], 0, payload, _digits(q), ratio=q)


def _analyze(rng) -> CliOp:
    """Claimed square sides a + b*sqrt2 against 1 x (1 + sqrt2).

    A = sum a^2, B = sum b^2, C = sum ab.  The identity A + 2B = 1,
    2C = 1 is impossible (a^2 + 2b^2 >= 2*sqrt2*ab), so the analysis
    always reports an area mismatch.
    """
    sides = [(_rand_q(rng, 0, 1), _rand_q(rng, 0, 1) - Fraction(1, 12)) for _ in range(rng.randrange(2, 5))]
    A = sum(a * a for a, _ in sides)
    B = sum(b * b for _, b in sides)
    C = sum(a * b for a, b in sides)
    argv = ["analyze-good", "--width", "1", "--height", "1 + 1*sqrt2"]
    for a, b in sides:
        argv += ["--side", (const(a) + sym("sqrt2", b)).text(["1", "sqrt2"])]
    payload = {
        "analysis": {
            "A": str(A),
            "B": str(B),
            "C": str(C),
            "area_identity_holds": False,
            "contradiction": "area_mismatch",
        }
    }
    digits = max(_digits(v) for side in sides for v in side)
    return CliOp("analyze-good", argv, 1, payload, digits)


def _on_file(command: str, doc: Doc) -> CliOp:
    e = doc.expect
    if command == "validate":
        exit_code, payload, rects = 0, {"verdict": "valid"}, 0
    elif command == "render":
        exit_code, payload, rects = 0, {}, doc.tiles + 1
    elif e["verify"] == "confirmed":
        exit_code, payload, rects = 0, {"verdict": "confirmed", "ratio": str(e["ratio"])}, 0
    else:
        exit_code, payload, rects = 1, {"verdict": "refuted", "refutation": {"kind": e["refutation"]}}, 0
    return CliOp(command, [command, "-"], exit_code, payload, doc.max_digits, stdin=doc.data, doc=doc, rects=rects)


def cli(seed: int) -> list:
    """Blocks of twelve invocations, two of each subcommand, shuffled per block."""
    rng = random.Random(seed)
    files = (fig4(), moron())
    ops = []
    for _ in range(CLI_BLOCKS):
        block = [_decide(rng, True), _decide(rng, False), _construct(rng), _construct(rng)]
        block += [_on_file(c, d) for c in ("validate", "verify", "render") for d in files]
        block += [_analyze(rng), _analyze(rng)]
        rng.shuffle(block)
        ops += block
    for op in ops:
        op.argv += ["--format", "json"]
    return ops


PLANS = {"library": library, "cli": cli}
