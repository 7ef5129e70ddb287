"""Command-line front end and the .tiling document format.

Documents are UTF-8 JSON; every number is an exact rational string or
an expression in the grammar ("2 + 1*sqrt2 - 1*sqrt3"), never a float.
The only lossy surface is SVG rendering, which rounds enclosure
midpoints to a fixed number of decimal digits.

Exit codes: 0 valid/tilable/success, 1 refuted/not tilable, 2 input or
parse error, 3 ambiguous comparison (enclosures too coarse).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import construct as construct_mod
from .dehn import decide, refute_square_tiling
from .errors import AmbiguousComparison, DocumentError, InvalidTiling, SqtileError
from .exactnum import (
    Generator,
    GeneratorTable,
    _tokenize,
    format_expr,
    parse_expr,
    parse_rational,
    rational_text,
    sqrt2_expr_to_num,
)
from .hamel import Contradiction, analyze_good_squares
from .tiling import Placement, Tiling, is_square, validate

__all__ = [
    "DEFAULT_ENCLOSURES",
    "TilingDocument",
    "parse_document",
    "serialize_document",
    "document_from_tiling",
    "build_tiling",
    "render_svg",
    "run_command",
]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_AMBIGUOUS = 3

# Convergent brackets, all correct to at least 10 decimal digits.  A
# document (or CLI expression) may use these symbols without spelling
# out an enclosure; anything else needs an explicit [lo, hi].
DEFAULT_ENCLOSURES = {
    "sqrt2": (Fraction(1607521, 1136689), Fraction(665857, 470832)),
    "sqrt3": (Fraction(9973081, 5757961), Fraction(3650401, 2107560)),
    "sqrt5": (Fraction(3940598, 1762289), Fraction(16692641, 7465176)),
}


@dataclass(frozen=True, slots=True)
class GeneratorDecl:
    symbol: str
    lo: str
    hi: str


@dataclass(frozen=True, slots=True)
class TileDecl:
    x: str
    y: str
    w: str
    h: str


@dataclass(frozen=True, slots=True)
class TilingDocument:
    """The parsed .tiling file: generator declarations plus expression
    strings for the outer rectangle and every tile."""

    generators: tuple
    outer_w: str
    outer_h: str
    tiles: tuple


def _expect(cond, message, **loc):
    if not cond:
        raise DocumentError(message, **loc)


def parse_document(text) -> TilingDocument:
    """Parse document text (bytes or str) into a TilingDocument.

    Checks the JSON schema and the generator declarations; expression
    strings are validated later, against the built table, by
    :func:`build_tiling`.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"document is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except ValueError as exc:  # a JSON number past sys.get_int_max_str_digits() digits
        raise DocumentError("invalid JSON: a number has too many digits") from exc

    _expect(isinstance(raw, dict), "document must be a JSON object")
    unknown = set(raw) - {"generators", "outer", "tiles"}
    _expect(not unknown, f"unknown document keys {sorted(unknown)}")

    gens = []
    for i, g in enumerate(raw.get("generators", [])):
        _expect(isinstance(g, dict), f"generators[{i}] must be an object")
        _expect("symbol" in g, f"generators[{i}] is missing 'symbol'")
        symbol = g["symbol"]
        _expect(isinstance(symbol, str), f"generators[{i}].symbol must be a string")
        if "lo" in g or "hi" in g:
            _expect("lo" in g and "hi" in g, f"generator {symbol!r} needs both lo and hi")
            lo, hi = g["lo"], g["hi"]
        elif symbol in DEFAULT_ENCLOSURES:
            dlo, dhi = DEFAULT_ENCLOSURES[symbol]
            lo, hi = str(dlo), str(dhi)
        else:
            raise DocumentError(
                f"generator {symbol!r} has no enclosure and no default is known"
            )
        _expect(isinstance(lo, str) and isinstance(hi, str),
                f"generator {symbol!r} enclosure bounds must be rational strings")
        gens.append(GeneratorDecl(symbol, lo, hi))

    _expect("outer" in raw, "document is missing 'outer'")
    outer = raw["outer"]
    _expect(isinstance(outer, dict) and set(outer) == {"w", "h"},
            "'outer' must be an object with exactly the keys w and h")
    _expect(isinstance(outer["w"], str) and isinstance(outer["h"], str),
            "outer sides must be expression strings")

    _expect("tiles" in raw, "document is missing 'tiles'")
    tiles_raw = raw["tiles"]
    _expect(isinstance(tiles_raw, list) and tiles_raw, "'tiles' must be a nonempty list")
    tiles = []
    for i, t in enumerate(tiles_raw):
        _expect(isinstance(t, dict) and set(t) == {"x", "y", "w", "h"},
                f"tiles[{i}] must be an object with exactly the keys x, y, w, h")
        for k in ("x", "y", "w", "h"):
            _expect(isinstance(t[k], str), f"tiles[{i}].{k} must be an expression string")
        tiles.append(TileDecl(t["x"], t["y"], t["w"], t["h"]))

    return TilingDocument(tuple(gens), outer["w"], outer["h"], tuple(tiles))


def serialize_document(doc: TilingDocument) -> str:
    """Canonical JSON text; :func:`parse_document` inverts it exactly."""
    raw = {
        "generators": [
            {"symbol": g.symbol, "lo": g.lo, "hi": g.hi} for g in doc.generators
        ],
        "outer": {"w": doc.outer_w, "h": doc.outer_h},
        "tiles": [{"x": t.x, "y": t.y, "w": t.w, "h": t.h} for t in doc.tiles],
    }
    return json.dumps(raw, indent=2) + "\n"


def _build_table(doc: TilingDocument, overrides=()) -> GeneratorTable:
    decls = {g.symbol: (parse_rational(g.lo), parse_rational(g.hi)) for g in doc.generators}
    order = [g.symbol for g in doc.generators]
    for g in overrides:
        if g.symbol not in decls:
            order.append(g.symbol)
        decls[g.symbol] = (g.lo, g.hi)
    return GeneratorTable(Generator(sym, *decls[sym]) for sym in order)


def build_tiling(doc: TilingDocument, overrides=()):
    """Compile a document into (GeneratorTable, Tiling).

    ``overrides`` are Generator objects that replace or extend the
    declared enclosures (the retry path after an ambiguous comparison).
    """
    table = _build_table(doc, overrides)
    outer_w = parse_expr(doc.outer_w, table)
    outer_h = parse_expr(doc.outer_h, table)
    tiles = tuple(
        Placement(
            parse_expr(t.x, table),
            parse_expr(t.y, table),
            parse_expr(t.w, table),
            parse_expr(t.h, table),
        )
        for t in doc.tiles
    )
    return table, Tiling(outer_w, outer_h, tiles, table)


def document_from_tiling(t: Tiling) -> TilingDocument:
    """The canonical document for an in-memory tiling."""
    gens = tuple(
        GeneratorDecl(g.symbol, rational_text(g.lo), rational_text(g.hi))
        for g in t.table.generators
    )
    tiles = tuple(
        TileDecl(format_expr(p.x), format_expr(p.y), format_expr(p.w), format_expr(p.h))
        for p in t.tiles
    )
    return TilingDocument(gens, format_expr(t.outer_w), format_expr(t.outer_h), tiles)


# --- SVG rendering ----------------------------------------------------------


def _fixed(value: Fraction, digits: int) -> str:
    """Fixed-point decimal of a rational, round-half-even, no floats."""
    scaled = value * Fraction(10) ** digits
    n = round(scaled)  # Fraction.__round__ is exact, ties to even
    sign = "-" if n < 0 else ""
    body = rational_text(abs(n)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + body
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def render_svg(doc: TilingDocument, precision: int = 6) -> str:
    """Render a validated document as SVG text.

    One rectangle element per tile in tile order, plus the outer frame;
    coordinates are enclosure midpoints rounded to ``precision`` digits.
    Validation failures abort rendering (InvalidTiling), ambiguous
    comparisons propagate.
    """
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    _, t = build_tiling(doc)
    report = validate(t)
    if report.is_ambiguous:
        raise AmbiguousComparison(str(report))
    if not report.is_valid:
        raise InvalidTiling(report)

    w_mid = t.outer_w.midpoint()
    h_mid = t.outer_h.midpoint()
    fmt = lambda v: _fixed(v, precision)
    stroke = max(w_mid, h_mid) / 200
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {fmt(w_mid)} {fmt(h_mid)}">',
        f'  <rect x="{fmt(Fraction(0))}" y="{fmt(Fraction(0))}" '
        f'width="{fmt(w_mid)}" height="{fmt(h_mid)}" '
        f'fill="none" stroke="#000" stroke-width="{fmt(stroke)}"/>',
    ]
    for p in t.tiles:
        x = p.x.midpoint()
        w = p.w.midpoint()
        h = p.h.midpoint()
        # SVG y grows downward; flip so (0,0) is the lower-left corner
        y_svg = h_mid - (p.y.midpoint() + h)
        lines.append(
            f'  <rect x="{fmt(x)}" y="{fmt(y_svg)}" width="{fmt(w)}" height="{fmt(h)}" '
            f'fill="none" stroke="#000" stroke-width="{fmt(stroke)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- command-line interface -------------------------------------------------


def _parse_gen_flag(flag: str) -> Generator:
    """Parse one --gen SYMBOL=[lo,hi] flag."""
    sym, eq, rest = flag.partition("=")
    sym = sym.strip()
    rest = rest.strip()
    if not eq or not (rest.startswith("[") and rest.endswith("]")):
        raise DocumentError(f"--gen expects SYMBOL=[lo,hi], got {flag!r}", token=flag)
    lo, comma, hi = rest[1:-1].partition(",")
    if not comma:
        raise DocumentError(f"--gen expects two comma-separated bounds, got {flag!r}", token=flag)
    return Generator(sym, parse_rational(lo), parse_rational(hi))


def _referenced_symbols(texts) -> list:
    seen = []
    for text in texts:
        for kind, value, _ in _tokenize(text):
            if kind == "symbol" and value not in seen:
                seen.append(value)
    return seen


def _table_for_exprs(texts, gen_flags) -> GeneratorTable:
    """Table for bare CLI expressions: explicit --gen declarations first,
    then defaults for any referenced well-known symbol."""
    gens = list(gen_flags)
    declared = {g.symbol for g in gens}
    for sym in _referenced_symbols(texts):
        if sym not in declared and sym in DEFAULT_ENCLOSURES:
            lo, hi = DEFAULT_ENCLOSURES[sym]
            gens.append(Generator(sym, lo, hi))
            declared.add(sym)
    return GeneratorTable(gens)


def _read_document(path: str) -> TilingDocument:
    if path == "-":
        return parse_document(sys.stdin.buffer.read())
    try:
        with open(path, "rb") as f:
            return parse_document(f.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc


def _negative_y(text: str) -> Fraction:
    y = parse_rational(text)
    if y >= 0:
        raise DocumentError(f"--y must be negative, got {y}")
    return y


def _emit(out_path, content: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(content)
    else:
        sys.stdout.write(content)


def _cmd_validate(args):
    doc = _read_document(args.file)
    _, t = build_tiling(doc, [_parse_gen_flag(s) for s in args.gen])
    report = validate(t)
    payload = report.as_dict()
    if report.is_ambiguous:
        code = EXIT_AMBIGUOUS
        lines = ["validation: ambiguous (enclosures too coarse; tighten with --gen)"]
    else:
        code = EXIT_OK if report.is_valid else EXIT_REFUTED
        lines = [f"validation: {report.verdict}"]
    lines += [f"  {json.dumps(f)}" for f in payload["failures"]]
    return code, payload, lines


def _cmd_decide(args):
    gen_flags = [_parse_gen_flag(s) for s in args.gen]
    table = _table_for_exprs([args.width, args.height], gen_flags)
    w = parse_expr(args.width, table)
    h = parse_expr(args.height, table)
    verdict = decide(w, h, y=args.y)
    payload = verdict.as_dict()
    payload["width"] = args.width
    payload["height"] = args.height
    if verdict.tilable:
        lines = [f"tilable: height/width = {rational_text(verdict.ratio)}"]
        return EXIT_OK, payload, lines
    cert = verdict.certificate
    lines = [
        "not tilable by squares",
        f"certificate: {cert.statement}",
    ]
    return EXIT_REFUTED, payload, lines


def _cmd_verify(args):
    doc = _read_document(args.file)
    _, t = build_tiling(doc, [_parse_gen_flag(s) for s in args.gen])
    verdict = decide(t.outer_w, t.outer_h, y=args.y)
    if not verdict.tilable:
        refutation = refute_square_tiling(t, y=args.y)
        payload = {
            "verdict": "refuted",
            "refutation": refutation.as_dict(),
            "certificate": verdict.certificate.as_dict(),
        }
        lines = [
            "refuted: the claimed square tiling cannot be genuine",
            f"  {refutation.kind.value}: {json.dumps(refutation.witness)}",
        ]
        return EXIT_REFUTED, payload, lines

    report = validate(t)
    if report.is_ambiguous:
        raise AmbiguousComparison(str(report))
    not_square = [i for i, p in enumerate(t.tiles) if not is_square(p)]
    if report.is_valid and not not_square:
        payload = {"verdict": "confirmed", "ratio": rational_text(verdict.ratio)}
        return EXIT_OK, payload, ["confirmed: a valid square tiling"]
    payload = {
        "verdict": "refuted",
        "failures": report.as_dict()["failures"],
        "tiles_not_square": not_square,
    }
    lines = ["refuted: claimed square tiling is not one"]
    if not_square:
        lines.append(f"  non-square tiles: {not_square}")
    lines += [f"  {json.dumps(f)}" for f in report.as_dict()["failures"]]
    return EXIT_REFUTED, payload, lines


def _cmd_construct(args):
    ratio = parse_rational(args.ratio)
    if ratio <= 0:
        raise DocumentError(f"--ratio must be positive, got {args.ratio}")
    t = construct_mod.euclid_tiling(Fraction(1), ratio)
    doc = document_from_tiling(t)
    text = serialize_document(doc)
    payload = {"squares": len(t.tiles), "document": json.loads(text)}
    if args.out:
        _emit(args.out, text)
        lines = [f"wrote {len(t.tiles)}-square tiling to {args.out}"]
    else:
        lines = [text.rstrip("\n")]
    return EXIT_OK, payload, lines


def _cmd_analyze_good(args):
    gen_flags = [_parse_gen_flag(s) for s in args.gen]
    texts = [args.width, args.height] + list(args.side)
    table = _table_for_exprs(texts, gen_flags)
    to_num = lambda s: sqrt2_expr_to_num(parse_expr(s, table))
    w = to_num(args.width)
    h = to_num(args.height)
    sides = [to_num(s) for s in args.side]
    analysis = analyze_good_squares(sides, w, h)
    report = analysis.as_dict()
    payload = {"analysis": report}
    lines = [
        f"A = {report['A']}, B = {report['B']}, C = {report['C']}",
        f"area identity holds: {analysis.area_identity_holds}",
        f"contradiction: {analysis.contradiction.value}",
    ]
    code = EXIT_OK if analysis.contradiction is Contradiction.NONE else EXIT_REFUTED
    return code, payload, lines


def _cmd_render(args):
    doc = _read_document(args.file)
    if args.gen:
        # apply overrides by rebuilding the document's generator list
        table = _build_table(doc, [_parse_gen_flag(s) for s in args.gen])
        doc = TilingDocument(
            tuple(
                GeneratorDecl(g.symbol, rational_text(g.lo), rational_text(g.hi))
                for g in table.generators
            ),
            doc.outer_w,
            doc.outer_h,
            doc.tiles,
        )
    svg = render_svg(doc, args.precision)
    payload = {"svg": svg}
    if args.out:
        _emit(args.out, svg)
        lines = [f"wrote SVG to {args.out}"]
    else:
        lines = [svg.rstrip("\n")]
    return EXIT_OK, payload, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqtile",
        description="Decide, certify, validate, construct and render square tilings "
        "of rectangles, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, gen=True, fmt=True):
        # let "--y -7/2" parse: negative rationals are values, not flags
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
        if gen:
            p.add_argument("--gen", action="append", default=[], metavar="SYMBOL=[lo,hi]",
                           help="declare or override a generator enclosure (repeatable)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check a tiling document geometrically")
    p.add_argument("file", help=".tiling document (or - for stdin)")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("decide", help="decide square-tilability of a rectangle")
    p.add_argument("--width", required=True, metavar="EXPR")
    p.add_argument("--height", required=True, metavar="EXPR")
    p.add_argument("--y", type=_negative_y, default=Fraction(-1),
                   help="certificate parameter, a negative rational (default -1)")
    common(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("verify", help="verify or refute a claimed square tiling")
    p.add_argument("file", help=".tiling document (or - for stdin)")
    p.add_argument("--y", type=_negative_y, default=Fraction(-1),
                   help="certificate parameter, a negative rational (default -1)")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("construct", help="build a square tiling for a rational ratio")
    p.add_argument("--ratio", required=True, metavar="P/Q")
    p.add_argument("--out", metavar="FILE")
    common(p, gen=False)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("analyze-good", help="area/conjugate analysis of claimed squares in Q(sqrt2)")
    p.add_argument("--width", required=True, metavar="EXPR")
    p.add_argument("--height", required=True, metavar="EXPR")
    p.add_argument("--side", action="append", required=True, metavar="EXPR",
                   help="claimed square side (repeatable)")
    common(p)
    p.set_defaults(handler=_cmd_analyze_good)

    p = sub.add_parser("render", help="render a tiling document as SVG")
    p.add_argument("file", help=".tiling document (or - for stdin)")
    p.add_argument("--precision", type=int, default=6, metavar="N")
    p.add_argument("--out", metavar="FILE")
    common(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def run_command(argv) -> int:
    """Execute one CLI invocation and print its report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error code
        return int(exc.code or 0)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        code, payload, lines = args.handler(args)
    except AmbiguousComparison as exc:
        code = EXIT_AMBIGUOUS
        payload = {"error": "ambiguous_comparison", "detail": str(exc)}
        lines = [f"ambiguous comparison: {exc}", "declare tighter enclosures with --gen and retry"]
    except InvalidTiling as exc:
        code = EXIT_REFUTED
        payload = {"error": "invalid_tiling", "failures": exc.report.as_dict()["failures"]}
        lines = [f"invalid tiling: {exc.report}"]
    except (DocumentError, SqtileError, ValueError, ZeroDivisionError) as exc:
        code = EXIT_INPUT
        payload = {"error": "input", "detail": str(exc)}
        lines = [f"error: {exc}"]

    payload = {"command": args.command, "exit_code": code, **payload}
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
