"""Command-line front end and the .tiling document format.

Documents are UTF-8 JSON; every number is an exact rational string or
an expression in the grammar ("2 + 1*sqrt2 - 1*sqrt3"), never a float.
The only lossy surface is SVG rendering, which rounds enclosure
midpoints to a fixed number of decimal digits.

Exit codes: 0 valid/tilable/success, 1 refuted/not tilable, 2 input or
parse error, 3 ambiguous comparison (enclosures too coarse).
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import construct as construct_mod
from .dehn import _refute, decide
from .errors import AmbiguousComparison, DocumentError, InvalidTiling, SqtileError, clip
from .exactnum import (
    Generator,
    GeneratorTable,
    format_expr,
    parse_expr,
    parse_rational,
    rational_text,
    sqrt2_expr_to_num,
)
from .hamel import Contradiction, analyze_good_squares
from .tiling import Placement, Tiling, validate

__all__ = [
    "DEFAULT_ENCLOSURES",
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

MAX_SQUARES = 100_000  # construct's limit; each square holds about 2 KB
MAX_PRECISION = 10_000  # render's limit on digits past the point, which size the SVG

# Convergent brackets, all correct to at least 10 decimal digits.  A
# document (or CLI expression) may use these symbols without spelling
# out an enclosure; anything else needs an explicit [lo, hi].
DEFAULT_ENCLOSURES = {
    "sqrt2": (Fraction(1607521, 1136689), Fraction(665857, 470832)),
    "sqrt3": (Fraction(9973081, 5757961), Fraction(3650401, 2107560)),
    "sqrt5": (Fraction(3940598, 1762289), Fraction(16692641, 7465176)),
}

_TILE_KEYS = {"x", "y", "w", "h"}


def _expect(cond, message, **loc):
    if not cond:
        raise DocumentError(message, **loc)


def parse_document(text) -> dict:
    """Parse document text (bytes or str) into its canonical JSON object:
    ``{"generators": [{"symbol", "lo", "hi"}], "outer": {"w", "h"},
    "tiles": [{"x", "y", "w", "h"}]}`` in that key order, with built-in
    brackets filled in.

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
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc

    _expect(isinstance(raw, dict), "document must be a JSON object")
    unknown = set(raw) - {"generators", "outer", "tiles"}
    _expect(not unknown, f"unknown document keys {clip(str(sorted(unknown)))}")

    gens_raw = raw.get("generators", [])
    _expect(isinstance(gens_raw, list), "'generators' must be a list")
    gens = []
    for i, g in enumerate(gens_raw):
        _expect(isinstance(g, dict), f"generators[{i}] must be an object")
        _expect("symbol" in g, f"generators[{i}] is missing 'symbol'")
        symbol = g["symbol"]
        _expect(isinstance(symbol, str), f"generators[{i}].symbol must be a string")
        if "lo" in g or "hi" in g:
            _expect("lo" in g and "hi" in g, f"generator {clip(symbol, repr)} needs both lo and hi")
            lo, hi = g["lo"], g["hi"]
        elif symbol in DEFAULT_ENCLOSURES:
            dlo, dhi = DEFAULT_ENCLOSURES[symbol]
            lo, hi = str(dlo), str(dhi)
        else:
            raise DocumentError(f"generator {clip(symbol, repr)} has no enclosure and no default is known")
        _expect(isinstance(lo, str) and isinstance(hi, str),
                f"generator {clip(symbol, repr)} enclosure bounds must be rational strings")
        gens.append({"symbol": symbol, "lo": lo, "hi": hi})

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
    for i, t in enumerate(tiles_raw):  # messages are formatted only on failure
        if not (isinstance(t, dict) and t.keys() == _TILE_KEYS):
            raise DocumentError(f"tiles[{i}] must be an object with exactly the keys x, y, w, h")
        x, y, w, h = t["x"], t["y"], t["w"], t["h"]
        if not (isinstance(x, str) and isinstance(y, str) and isinstance(w, str) and isinstance(h, str)):
            k = next(k for k in "xywh" if not isinstance(t[k], str))
            raise DocumentError(f"tiles[{i}].{k} must be an expression string")
        tiles.append({"x": x, "y": y, "w": w, "h": h})

    return {"generators": gens, "outer": {"w": outer["w"], "h": outer["h"]}, "tiles": tiles}


def serialize_document(doc: dict) -> str:
    """Canonical JSON text; :func:`parse_document` inverts it exactly."""
    return json.dumps(doc, indent=2) + "\n"


def _table(decls, flags) -> GeneratorTable:
    """The table of ``decls``, (symbol, lo, hi) in order.  Each Generator
    in ``flags`` replaces the entry of its symbol, or follows the
    declarations if its symbol is new."""
    flags = {g.symbol: g for g in flags}
    gens = [flags.pop(sym, None) or Generator(sym, lo, hi) for sym, lo, hi in decls]
    return GeneratorTable(gens + list(flags.values()))


def build_tiling(doc: dict, overrides=()):
    """Compile a document into (GeneratorTable, Tiling).

    ``overrides`` are Generator objects that replace or extend the
    declared enclosures (the retry path after an ambiguous comparison).
    Each distinct expression text is parsed once, in document order, so
    equal texts share one LinExpr and one cached enclosure.
    """
    decls = [(g["symbol"], parse_rational(g["lo"]), parse_rational(g["hi"])) for g in doc["generators"]]
    table = _table(decls, overrides)
    compiled = {}

    def expr(text):
        e = compiled.get(text)
        if e is None:
            e = compiled[text] = parse_expr(text, table)
        return e

    outer_w = expr(doc["outer"]["w"])
    outer_h = expr(doc["outer"]["h"])
    tiles = tuple(
        Placement(expr(t["x"]), expr(t["y"]), expr(t["w"]), expr(t["h"])) for t in doc["tiles"]
    )
    return table, Tiling(outer_w, outer_h, tiles, table)


def document_from_tiling(t: Tiling) -> dict:
    """The canonical document for an in-memory tiling."""
    return {
        "generators": [
            {"symbol": g.symbol, "lo": rational_text(g.lo), "hi": rational_text(g.hi)}
            for g in t.table.generators
        ],
        "outer": {"w": format_expr(t.outer_w), "h": format_expr(t.outer_h)},
        "tiles": [{k: format_expr(getattr(p, k)) for k in ("x", "y", "w", "h")} for p in t.tiles],
    }


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


def render_svg(doc: dict, precision: int = 6) -> str:
    """Render a validated document as SVG text.

    One rectangle element per tile in tile order, plus the outer frame;
    coordinates are enclosure midpoints rounded to ``precision`` digits,
    0 to ``MAX_PRECISION``.
    Validation failures abort rendering (InvalidTiling), ambiguous
    comparisons propagate.
    """
    return _svg(build_tiling(doc)[1], precision)


def _midpoint(e) -> Fraction:
    lo, hi = e.eval_interval()
    return (lo + hi) / 2


def _svg(t: Tiling, precision: int) -> str:
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be at most {MAX_PRECISION}")
    report = validate(t)
    if not report.is_valid:
        raise InvalidTiling(report)

    w_mid, h_mid = _midpoint(t.outer_w), _midpoint(t.outer_h)
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
        x, w, h = _midpoint(p.x), _midpoint(p.w), _midpoint(p.h)
        # SVG y grows downward; flip so (0,0) is the lower-left corner
        y_svg = h_mid - (_midpoint(p.y) + h)
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
        raise DocumentError("--gen expects SYMBOL=[lo,hi]", token=flag)
    lo, comma, hi = rest[1:-1].partition(",")
    if not comma:
        raise DocumentError("--gen expects two comma-separated bounds", token=flag)
    return Generator(sym, parse_rational(lo), parse_rational(hi))


def _gen_flags(args) -> tuple:
    """Every --gen flag, parsed; the table rejects a repeated symbol."""
    return GeneratorTable(_parse_gen_flag(s) for s in args.gen).generators


def _expr_table(args) -> GeneratorTable:
    """The table for bare expressions: the built-in brackets, then --gen."""
    return _table(((sym, lo, hi) for sym, (lo, hi) in DEFAULT_ENCLOSURES.items()), _gen_flags(args))


def _read_document(path: str) -> dict:
    if path == "-":
        return parse_document(sys.stdin.buffer.read())
    try:
        with open(path, "rb") as f:
            return parse_document(f.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc


def _tiling(args) -> Tiling:
    """The command's document, built with its --gen flags."""
    return build_tiling(_read_document(args.file), _gen_flags(args))[1]


def _negative_y(text: str) -> Fraction:
    """The --y flag, a negative rational."""
    y = parse_rational(text)
    if y >= 0:
        raise DocumentError(f"--y must be negative, got {clip(str(y))}")
    return y


def _emit(out_path, content: str):
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(content)
    except OSError as exc:
        raise DocumentError(f"cannot write {out_path}: {exc.strerror}") from exc


def _cmd_validate(args):
    report = validate(_tiling(args))
    payload = report.as_dict()
    code = EXIT_OK if report.is_valid else EXIT_REFUTED
    lines = [f"validation: {report.verdict}"]
    lines += [f"  {json.dumps(f)}" for f in payload["failures"]]
    return code, payload, lines


def _cmd_decide(args):
    y = _negative_y(args.y)
    table = _expr_table(args)
    w = parse_expr(args.width, table)
    h = parse_expr(args.height, table)
    verdict = decide(w, h, y=y)
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
    y = _negative_y(args.y)
    t = _tiling(args)
    verdict = decide(t.outer_w, t.outer_h, y=y)
    refutation = _refute(t, verdict)
    if refutation is None:
        payload = {"verdict": "confirmed", "ratio": rational_text(verdict.ratio)}
        return EXIT_OK, payload, ["confirmed: a valid square tiling"]
    payload = {"verdict": "refuted", "refutation": refutation.as_dict()}
    if not verdict.tilable:
        payload["certificate"] = verdict.certificate.as_dict()
    lines = [
        "refuted: the claimed square tiling cannot be genuine",
        f"  {refutation.kind.value}: {json.dumps(refutation.witness)}",
    ]
    return EXIT_REFUTED, payload, lines


def _cmd_construct(args):
    ratio = parse_rational(args.ratio)
    if ratio <= 0:
        raise DocumentError(f"--ratio must be positive, got {clip(args.ratio)}")
    if sum(construct_mod.continued_fraction(ratio)) > MAX_SQUARES:
        raise DocumentError(f"--ratio needs more squares than the limit of {MAX_SQUARES}", token=args.ratio)
    t = construct_mod.euclid_tiling(Fraction(1), ratio)
    doc = document_from_tiling(t)
    payload = {"squares": len(t.tiles), "document": doc}
    if args.out:
        _emit(args.out, serialize_document(doc))
        lines = [f"wrote {len(t.tiles)}-square tiling to {args.out}"]
    else:  # the text is built only when printed
        lines = [] if args.format == "json" else [serialize_document(doc).rstrip("\n")]
    return EXIT_OK, payload, lines


def _cmd_analyze_good(args):
    table = _expr_table(args)

    def positive(flag, text):
        value = sqrt2_expr_to_num(parse_expr(text, table))
        if value.sign() <= 0:
            raise DocumentError(f"{flag} must be positive, got {clip(text)}")
        return value

    w = positive("--width", args.width)
    h = positive("--height", args.height)
    sides = [positive("--side", s) for s in args.side]
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
    if not (args.precision.isascii() and args.precision.isdigit()):  # ASCII digits, as in the rationals
        raise DocumentError("--precision must be a nonnegative integer", token=args.precision)
    digits = args.precision.lstrip("0") or "0"  # int() reads at most 4,300 digits
    precision = int(digits) if len(digits) <= len(str(MAX_PRECISION)) else MAX_PRECISION + 1
    svg = _svg(_tiling(args), precision)
    payload = {"svg": svg}
    if args.out:
        _emit(args.out, svg)
        lines = [f"wrote SVG to {args.out}"]
    else:
        lines = [svg.rstrip("\n")]
    return EXIT_OK, payload, lines


def _cmd_help(args):
    lines = []
    for command in [args.command] if args.command else _COMMANDS:
        _, positional, options = _COMMANDS[command]
        words = [f"usage: sqtile {command} [-h]"] + ([positional] if positional else [])
        for name, opt in {**options, "--format": _FORMAT}.items():
            word = f"{name} {opt.metavar}" + (" ..." if opt.repeats else "")
            words.append(word if opt.required else f"[{word}]")
        lines.append(" ".join(words))
    return EXIT_OK, {"usage": "\n".join(lines)}, lines


_Option = namedtuple("_Option", "metavar default required repeats", defaults=(None, False, False))
_EXPR = _Option("EXPR", required=True)
_Y = _Option("Q", "-1")
_SIDE = _Option("EXPR", required=True, repeats=True)
_GEN = _Option("SYMBOL=[lo,hi]", repeats=True)
_FORMAT = _Option("text|json", "text")

# Each subcommand's handler, positional argument (or None) and options;
# an option names its value, gives its default, and is required or
# repeats (giving a list).  Every subcommand also takes --format and -h.
_COMMANDS = {
    "validate": (_cmd_validate, "FILE", {"--gen": _GEN}),
    "decide": (_cmd_decide, None, {"--width": _EXPR, "--height": _EXPR, "--y": _Y, "--gen": _GEN}),
    "verify": (_cmd_verify, "FILE", {"--y": _Y, "--gen": _GEN}),
    "construct": (_cmd_construct, None, {"--ratio": _Option("P/Q", required=True), "--out": _Option("FILE")}),
    "analyze-good": (_cmd_analyze_good, None,
                     {"--width": _EXPR, "--height": _EXPR, "--side": _SIDE, "--gen": _GEN}),
    "render": (_cmd_render, "FILE", {"--precision": _Option("N", "6"), "--out": _Option("FILE"), "--gen": _GEN}),
}


def _read_argv(argv):
    """Read argv by ``_COMMANDS`` into (args, the first fault or None).

    A unique prefix names an option, whose value is the text after "=" or
    else the next string, whatever it is.  Any other string not starting
    with "--" is the FILE ("-" for stdin).  "-h" wins over every fault.
    The scan runs to the end, so the last valid --format always counts."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    handler, positional, options = _COMMANDS.get(command, (None, None, {}))
    options = {**options, "--format": _FORMAT, "--help": None}
    values = {}
    fault = None if command else DocumentError(f"expected a subcommand: {', '.join(_COMMANDS)}",
                                               token=argv[0] if argv else None)
    rest = iter(argv[1:] if command else argv)
    for arg in rest:
        name, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        matches = [name] if name in options else [o for o in options if o.startswith(name)]
        if not name.startswith("--") and positional and "file" not in values:
            values["file"] = arg
        elif name == "--" or not name.startswith("--"):
            fault = fault or DocumentError("unexpected argument", token=arg)
        elif len(matches) != 1:
            fault = fault or DocumentError("ambiguous option" if matches else "unknown option", token=name)
        elif matches[0] == "--help":
            handler = _cmd_help
        elif not eq and (value := next(rest, None)) is None:
            fault = fault or DocumentError(f"{matches[0]} needs a value")
        elif matches[0] == "--format" and value not in ("text", "json"):
            fault = fault or DocumentError("--format must be text or json", token=value)
        elif options[matches[0]].repeats:
            values.setdefault(matches[0][2:], []).append(value)
        else:
            values[matches[0][2:]] = value
    for name, opt in options.items():
        if opt is not None and name[2:] not in values:
            if opt.required:
                fault = fault or DocumentError(f"missing option {name} {opt.metavar}")
            values[name[2:]] = [] if opt.repeats else opt.default
    if positional and "file" not in values:
        fault = fault or DocumentError(f"missing {positional}, a .tiling document or - for stdin")
    return SimpleNamespace(command=command, handler=handler, **values), None if handler is _cmd_help else fault


def run_command(argv) -> int:
    """Execute one CLI invocation and print its report; returns the exit code."""
    args, fault = _read_argv(argv)
    try:
        if fault is not None:
            raise fault
        code, payload, lines = args.handler(args)
    except AmbiguousComparison as exc:
        code = EXIT_AMBIGUOUS
        payload = {"error": "ambiguous_comparison", "detail": str(exc)}
        lines = [f"ambiguous comparison: {exc}", "declare tighter enclosures with --gen and retry"]
    except InvalidTiling as exc:
        code = EXIT_REFUTED
        payload = {"error": "invalid_tiling", "failures": exc.report.as_dict()["failures"]}
        lines = [f"invalid tiling: {exc.report}"]
    except (SqtileError, ValueError, ZeroDivisionError) as exc:
        code = EXIT_INPUT
        payload = {"error": "input", "detail": str(exc)}
        lines = [f"error: {exc}"]

    payload = {"command": args.command, "exit_code": code, **payload}
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
