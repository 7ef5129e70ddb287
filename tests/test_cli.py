"""Document format, SVG rendering, and the command-line contract."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqtile
from sqtile import (
    AmbiguousComparison,
    Certificate,
    DocumentError,
    Generator,
    InvalidTiling,
    Placement,
    Tiling,
    euclid_tiling,
    parse_expr,
    refute_square_tiling,
    validate,
    verify_certificate,
)
from sqtile.cli import (
    build_tiling,
    document_from_tiling,
    parse_document,
    render_svg,
    run_command,
    serialize_document,
)
from sqtile.dehn import RefutationKind

from conftest import (
    BOUWKAMP_CODES,
    DATA,
    bouwkamp_tiling,
    guillotine_tiling,
    tight_enclosure,
    tight_table,
    workloads,
)


# --- computed root brackets ---------------------------------------------------

_LONG_N = "7" * 5000  # past the 4,300 digits that int(str) reads


@pytest.mark.parametrize(
    "symbol,n",
    [("sqrt2", 2), ("sqrt3", 3), ("sqrt5", 5), ("sqrt7", 7),
     pytest.param(f"sqrt{_LONG_N}", int(Decimal(_LONG_N)), id="sqrt-5000-digits")],
)
def test_default_enclosures_bracket_tightly(symbol, n):
    """A root built without bounds gets a bracket 2**-64 wide that holds it."""
    g = Generator(symbol)
    assert 0 < g.lo < g.hi
    assert g.lo * g.lo <= n <= g.hi * g.hi
    assert g.hi - g.lo == Fraction(1, 2**64)


# --- document parsing ---------------------------------------------------------


def _doc(generators, outer, tiles) -> dict:
    """A document from (symbol, lo, hi), (w, h) and (x, y, w, h) tuples."""
    return {
        "generators": [dict(zip(("symbol", "lo", "hi"), g)) for g in generators],
        "outer": dict(zip("wh", outer)),
        "tiles": [dict(zip("xywh", t)) for t in tiles],
    }


def test_parse_fig4_document(fig4_doc):
    assert [g["symbol"] for g in fig4_doc["generators"]] == ["sqrt2", "sqrt3"]
    assert fig4_doc["outer"]["h"] == "2 + 1*sqrt2"
    assert len(fig4_doc["tiles"]) == 3
    _, tiling = build_tiling(fig4_doc)
    assert validate(tiling).is_valid


def test_parse_document_undeclared_symbol(fig4_doc):
    doc = {**fig4_doc, "tiles": fig4_doc["tiles"][:2] + [{"x": "0", "y": "0", "w": "1", "h": "1*sqrt5"}]}
    with pytest.raises(DocumentError) as exc:
        build_tiling(doc)
    assert "sqrt5" in str(exc.value)


def test_parse_document_schema_errors():
    with pytest.raises(DocumentError):
        parse_document(b"not json")
    with pytest.raises(DocumentError):
        parse_document(b"[]")
    with pytest.raises(DocumentError):
        parse_document(b'{"outer": {"w": "1", "h": "1"}, "tiles": []}')  # empty tiles
    with pytest.raises(DocumentError):
        parse_document(b'{"tiles": [{"x":"0","y":"0","w":"1","h":"1"}]}')  # no outer
    with pytest.raises(DocumentError) as info:  # refused when the table is built
        build_tiling(parse_document(
            b'{"generators": [{"symbol": "g"}], "outer": {"w": "1", "h": "1"},'
            b' "tiles": [{"x":"0","y":"0","w":"1","h":"1"}]}'
        ))
    assert str(info.value) == "generator 'g' has no enclosure and no default is known"
    err = None
    try:
        parse_document(b'{\n  "outer": oops\n}')
    except DocumentError as exc:
        err = exc
    assert err is not None and err.line == 2
    # the tile schema, in full text; a second tile is named by its index
    good = '{"x": "0", "y": "0", "w": "1", "h": "1"}'
    for tile, message in (
        ('["0", "0", "1", "1"]', "tiles[1] must be an object with exactly the keys x, y, w, h"),
        ('{"x": "0", "y": "0", "w": "1", "h": "1", "z": "0"}',
         "tiles[1] must be an object with exactly the keys x, y, w, h"),
        ('{"x": "0", "y": "0", "w": "1"}', "tiles[1] must be an object with exactly the keys x, y, w, h"),
        ('{"x": "0", "y": "0", "w": 1, "h": "1"}', "tiles[1].w must be an expression string"),
        ('{"h": 1, "x": "0", "y": ["0"], "w": "1"}', "tiles[1].y must be an expression string"),
    ):
        text = f'{{"outer": {{"w": "1", "h": "1"}}, "tiles": [{good}, {tile}]}}'
        with pytest.raises(DocumentError) as info:
            parse_document(text)
        assert str(info.value) == message


def test_declared_known_symbol_gets_default_enclosure():
    """Any root declared without a bracket stays without one in the
    canonical object, which round-trips, and the built table gives it its
    computed one."""
    for root in ("sqrt2", "sqrt7"):
        doc = parse_document(
            f'{{"generators": [{{"symbol": "{root}"}}],'
            f' "outer": {{"w": "1", "h": "1*{root}"}},'
            f' "tiles": [{{"x":"0","y":"0","w":"1","h":"1*{root}"}}]}}'
        )
        assert doc["generators"] == [{"symbol": root}]
        assert parse_document(serialize_document(doc)) == doc
        table, tiling = build_tiling(doc)
        assert table.generators == (Generator(root),)
        assert validate(tiling).is_valid


def test_parse_document_refuses_unknown_generator_keys():
    """A misspelled bracket is refused, not dropped for the computed one."""
    good = '"outer": {"w": "1", "h": "1"}, "tiles": [{"x": "0", "y": "0", "w": "1", "h": "1"}]'
    for gen, keys in (('{"symbol": "sqrt2", "low": "1", "high": "2"}', "['high', 'low']"),
                      ('{"symbol": "g", "lo": "1", "hi": "2", "": 0}', "['']")):
        with pytest.raises(DocumentError) as info:
            parse_document(f'{{"generators": [{{"symbol": "sqrt3"}}, {gen}], {good}}}')
        assert str(info.value) == f"generators[1] has unknown keys {keys}"
    many = ", ".join(f'"k{i}": 0' for i in range(40))
    with pytest.raises(DocumentError) as info:
        parse_document(f'{{"generators": [{{"symbol": "g", {many}}}], {good}}}')
    assert str(info.value) == "generators[0] has unknown keys ['k0', 'k1', 'k10', 'k11', 'k12', 'k13',... 270 characters"


def test_parse_document_builds_no_generator(monkeypatch):
    """Parsing Fig. 4 with both roots bare builds no Generator, and
    building it builds exactly one per declaration."""
    doc = json.loads((DATA / "fig4.tiling").read_text(encoding="utf-8"))
    doc["generators"] = [{"symbol": g["symbol"]} for g in doc["generators"]]
    built = []
    init = Generator.__init__
    monkeypatch.setattr(Generator, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    parsed = parse_document(json.dumps(doc))
    assert built == []
    table, tiling = build_tiling(parsed)
    assert built == [("sqrt2", None, None), ("sqrt3", None, None)]
    assert table.generators == (Generator("sqrt2"), Generator("sqrt3"))
    assert validate(tiling).is_valid


def test_zero_containing_enclosure_rejected():
    with pytest.raises(DocumentError):
        build_tiling(
            parse_document(
                b'{"generators": [{"symbol": "g", "lo": "-1", "hi": "1"}],'
                b' "outer": {"w": "1", "h": "1*g"},'
                b' "tiles": [{"x":"0","y":"0","w":"1","h":"1*g"}]}'
            )
        )


def _random_document(rng) -> dict:
    t = guillotine_tiling(
        rng,
        *_random_outer(rng),
        depth=rng.randint(1, 4),
    )
    return document_from_tiling(t)


def _random_outer(rng):
    table = tight_table(2, 3)
    from sqtile import parse_expr

    w = parse_expr(rng.choice(["1", "3/2", "1 + 1*sqrt2"]), table)
    h = parse_expr(rng.choice(["2", "1*sqrt3", "2 + 1*sqrt2"]), table)
    return w, h


def test_serialize_parse_round_trip_generated_documents():
    rng = random.Random(59)
    for _ in range(50):
        doc = _random_document(rng)
        assert parse_document(serialize_document(doc)) == doc


# --- fuzzed documents ---------------------------------------------------------

_KEYS = st.sampled_from(["generators", "outer", "tiles", "symbol", "lo", "hi", "x", "y", "w", "h"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_TOP_LEVEL = st.fixed_dictionaries({}, optional={"generators": _JSON, "outer": _JSON, "tiles": _JSON})
_FIG4_TEXT = (DATA / "fig4.tiling").read_text(encoding="utf-8")


@st.composite
def _mutated_fig4(draw):
    """Fig. 4 with one fault: a dropped or extra key, a value of the wrong
    type or the wrong expression, a bad rational, or a bracket around zero."""
    doc = json.loads(_FIG4_TEXT)
    obj = draw(st.sampled_from([doc, doc["outer"], *doc["generators"], *doc["tiles"]]))
    key = draw(st.sampled_from(sorted(obj)))
    gen = draw(st.sampled_from(doc["generators"]))
    fault = draw(st.sampled_from(["drop", "extra", "type", "expr", "rational", "straddle"]))
    if fault == "drop":
        del obj[key]
    elif fault == "extra":
        obj[draw(_KEYS | st.text(max_size=3))] = draw(_JSON)
    elif fault == "type":
        obj[key] = draw(_JSON)
    elif fault == "expr":
        obj[key] = draw(st.sampled_from(["0", "1", "-1/3", "1*sqrt3", "2 - 1*sqrt2", "1*sqrt5", "1 +"]))
    elif fault == "rational":
        gen[draw(st.sampled_from(["lo", "hi"]))] = draw(st.sampled_from(["1/0", "x", "1.5", "", "\u0661"]))
    else:
        gen["lo"], gen["hi"] = "-1", "2"
    return doc


@settings(max_examples=100, deadline=None)
@given(st.one_of(_JSON, _TOP_LEVEL, _mutated_fig4()))
def test_fuzzed_documents_parse_canonically_and_validate_cleanly(tmp_path_factory, value):
    """Any JSON value is either refused with a DocumentError or parsed to a
    document that survives a serialize/parse round trip, and validating it
    ends in a classified exit code with one JSON report and no stderr."""
    text = json.dumps(value)
    try:
        doc = parse_document(text)
    except DocumentError:
        pass
    else:
        assert parse_document(serialize_document(doc)) == doc
    path = tmp_path_factory.getbasetemp() / "fuzzed.tiling"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["validate", str(path), "--format", "json"])
    assert code in {0, 1, 2, 3}
    report = json.loads(out.getvalue())
    assert isinstance(report, dict) and report["exit_code"] == code
    assert err.getvalue() == ""


# --- fuzzed argv ----------------------------------------------------------------

# 41 to 500 characters: "gg...g", "ab_11...1" or "sqrt77...7"; one per example,
# so a --gen flag may declare the long name that an expression uses
_LONG_NAME = st.shared(
    st.builds(lambda stem, n: stem.ljust(n, stem[-1]), st.sampled_from(["g", "ab_1", "sqrt7"]), st.integers(41, 500)),
    key="long name",
)
_NAME = st.one_of(*[st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "sqrt8", "g"])] * 3, _LONG_NAME)
_RATIONAL = st.sampled_from(["1", "3", "1/2", "5/2", "7/12", "1414/1000", "1415/1000", "0", "-1/3"])
_TERM = st.tuples(_RATIONAL, st.none() | _NAME).map(lambda t: t[0] if t[1] is None else f"{t[0]}*{t[1]}")
_EXPR = st.one_of(
    st.sampled_from(["1", "1*sqrt2", "2 + 1*sqrt2", "3/2*sqrt3", "1 + 1*sqrt5"]),
    st.lists(_TERM, min_size=1, max_size=3).map(" + ".join),
)
_BRACKET = st.one_of(st.sampled_from(["[1,3]", "[1/2,5/2]", "[1414/1000,1415/1000]"]), st.builds("[{},{}]".format, _RATIONAL, _RATIONAL))
_GEN = st.builds("{}={}".format, _NAME, _BRACKET)


def _ratio(quotients, invert):
    """The rational whose continued fraction has these quotients."""
    x = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        x = a + 1 / x
    return 1 / x if invert else x


_RATIO = st.builds(_ratio, st.lists(st.integers(1, 12), min_size=1, max_size=4), st.booleans()).map(str)


@st.composite
def _mutated(draw, values):
    """A drawn value, or that value with one character inserted, deleted or
    replaced, or with "--" in front."""
    text = draw(values)
    edit = draw(st.sampled_from(["none"] * 6 + ["insert", "delete", "replace", "dashes"]))
    if edit == "dashes":
        text = "--" + text
    elif edit != "none":
        i = draw(st.integers(0, len(text) - (edit != "insert")))
        c = draw(st.sampled_from(" +-*/$[],=_x1\u0661"))
        text = text[:i] + ("" if edit == "delete" else c) + text[i + (edit != "insert"):]
    return text


@st.composite
def _fig4_with_long_name(draw):
    doc = json.loads(_FIG4_TEXT)
    name = draw(_LONG_NAME)
    where = draw(st.sampled_from(["key", "symbol", "bare", "tile"]))
    if where == "key":
        doc[name] = 1
    elif where == "symbol":
        doc["generators"][0]["symbol"] = name
    elif where == "bare":
        doc["generators"].append({"symbol": name})
    else:
        doc["tiles"][0]["w"] = f"1*{name}"
    return doc


_DOCUMENT = st.one_of(st.just(_FIG4_TEXT), st.one_of(_mutated_fig4(), _fig4_with_long_name()).map(json.dumps))


_USAGE_FAULTS = ["none"] * 6 + [
    "unknown option", "dropped", "repeated", "extra positional", "bare --", "unknown subcommand", "-h",
]


@st.composite
def _argv(draw):
    """An argv for one of the six subcommands, its document and its usage
    fault.  Units (an option with its value, or the FILE) are drawn first;
    the fault drops a required unit, repeats an option, puts a string
    between two units or replaces the subcommand.  "--format" is last."""
    command = draw(st.sampled_from(["decide", "analyze-good", "validate", "verify", "render", "construct"]))
    units, document = [], None
    if command in ("decide", "analyze-good"):
        units += [["--width", draw(_mutated(_EXPR))], ["--height", draw(_mutated(_EXPR))]]
    if command == "analyze-good":
        units += [["--side", side] for side in draw(st.lists(_mutated(_EXPR), min_size=1, max_size=3))]
    if command in ("validate", "verify", "render"):
        document = draw(_DOCUMENT)
        units.append(["-" if draw(st.booleans()) else "FILE"])
    if command in ("decide", "verify") and draw(st.booleans()):
        units.append(["--y", draw(_mutated(st.sampled_from(["-1", "-7/2", "-3/100", "2"])))])
    if command == "render" and draw(st.booleans()):
        units.append(["--precision", draw(_mutated(st.integers(-2, 12).map(str)))])
    if command == "construct":
        units.append(["--ratio", draw(_mutated(_RATIO))])
    else:
        units += [["--gen", gen] for gen in draw(st.lists(_mutated(_GEN), max_size=2))]
    fault = draw(st.sampled_from(_USAGE_FAULTS))
    if fault == "dropped":
        required = {"--width", "--height", "--side", "--ratio", "-", "FILE"}
        name = draw(st.sampled_from([u[0] for u in units if u[0] in required]))
        units = [u for u in units if u[0] != name]
    elif fault == "unknown subcommand":
        command = draw(st.sampled_from(["bogus", "decid", "Validate", "", "-x", "-"]))
    elif fault != "none":
        inserted = draw({
            "unknown option": st.sampled_from(["--bogus", "--nope=1", "--xyz", "--1", "---"]).map(lambda s: [s]),
            "repeated": st.sampled_from([u for u in units if u[0].startswith("--")] or [["--format", "text"]]),
            "extra positional": st.sampled_from(["extra", "-", "-x", "1", "a=b"]).map(lambda s: [s]),
            "bare --": st.just(["--"]),
            "-h": st.sampled_from(["-h", "--help"]).map(lambda s: [s]),
        }[fault])
        units.insert(draw(st.integers(0, len(units))), inserted)
    argv = [command, *(s for u in units for s in u)]
    return argv + ["--format", draw(st.sampled_from(["json", "text"]))], document, fault


def _squares(argv):
    """How many squares construct builds at most for this argv: none for
    a ratio that is not positive, which construct refuses."""
    try:
        ratio = Fraction(argv[argv.index("--ratio") + 1])
    except (ValueError, ZeroDivisionError):
        return 0
    return workloads.quotient_sum(ratio) if ratio > 0 else 0


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_fuzzed_argv_ends_in_one_bounded_report(tmp_path_factory, drawn):
    """Every argv of every subcommand, with valid, mutated or long-named
    values and at most one usage fault, ends in a classified exit code
    with one report on stdout, in the format of the last --format, and
    nothing on stderr.  A usage fault is an input error (exit 2), and -h
    is a usage report (exit 0); a JSON report names the subcommand, or
    null when argv names none.  The report is linear in the input: at
    most 4 KB, plus 8 bytes per character of argv and document, plus
    512 bytes per square that construct builds.  An input error names at
    most a few 40-character excerpts of the input and short rationals, so
    its report stays under 512 bytes whatever the length of a name."""
    argv, document, fault = drawn
    data = (document or "").encode("utf-8")
    if "FILE" in argv:
        path = tmp_path_factory.getbasetemp() / "argv.tiling"
        path.write_bytes(data)
        argv = [str(path) if a == "FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(argv)
    finally:
        sys.stdin = saved
    assert code in {0, 1, 2, 3}
    assert err.getvalue() == ""
    command = None if fault == "unknown subcommand" else argv[0]
    if fault == "-h":
        assert code == 0
    elif fault not in ("none", "repeated"):
        assert code == 2
    if argv[-1] == "json":
        report = json.loads(out.getvalue())
        assert isinstance(report, dict)
        assert (report["exit_code"], report["command"]) == (code, command)
        if fault == "-h":
            assert report["usage"].startswith(f"usage: sqtile {command} [-h]")
        elif code == 2:
            assert report["error"] == "input"
    elif fault == "-h":
        assert out.getvalue().startswith(f"usage: sqtile {command} [-h]")
    size = len(out.getvalue().encode())
    assert size <= 4096 + 8 * (sum(map(len, argv)) + len(data)) + 512 * _squares(argv)
    if code == 2:
        assert size < 512


# --- SVG rendering ------------------------------------------------------------


def test_render_single_unit_tile():
    svg = render_svg(_doc((), ("1", "1"), [("0", "0", "1", "1")]), precision=2)
    rects = re.findall(r"<rect[^>]*>", svg)
    assert len(rects) == 2  # frame plus the one tile
    assert 'width="1.00"' in rects[0] and 'width="1.00"' in rects[1]


def test_render_fig4_precision4(fig4_doc):
    svg = render_svg(fig4_doc, precision=4)
    rects = re.findall(r"<rect[^>]*>", svg)
    assert len(rects) == 4  # frame + three tiles
    # first tile occupies x in [0, 0.3333]
    assert 'x="0.0000"' in rects[1] and 'width="0.3333"' in rects[1]


def test_render_deterministic(fig4_doc):
    a = render_svg(fig4_doc, precision=6)
    b = render_svg(fig4_doc, precision=6)
    assert a.encode() == b.encode()


def test_render_construct_output_no_overlap_at_low_precision():
    doc = document_from_tiling(euclid_tiling(2, 3))
    for precision in (2, 4, 6):
        svg = render_svg(doc, precision=precision)
        rects = re.findall(
            r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" height="([-\d.]+)"', svg
        )[1:]
        assert len(rects) == 3
        boxes = [tuple(map(float, r)) for r in rects]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                xi, yi, wi, hi = boxes[i]
                xj, yj, wj, hj = boxes[j]
                disjoint = (
                    xi + wi <= xj or xj + wj <= xi or yi + hi <= yj or yj + hj <= yi
                )
                assert disjoint


def test_render_aborts_on_invalid_document():
    with pytest.raises(InvalidTiling):
        render_svg(_doc((), ("1", "2"), [("0", "0", "1", "1")]))


_AMBIGUOUS = (
    [("g", "9/10", "11/10")], ("2", "1"), [("0", "0", "1*g", "1"), ("1", "0", "2 - 1*g", "1")]
)


def test_render_ambiguous_propagates():
    with pytest.raises(AmbiguousComparison):
        render_svg(_doc(*_AMBIGUOUS))


# --- CLI ---------------------------------------------------------------------


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_validate_fig4(fig4_path, capsys):
    code, out = run(capsys, "validate", fig4_path)
    assert code == 0
    assert "valid" in out


def test_cli_decide_not_tilable(capsys):
    code, out = run(
        capsys,
        "decide",
        "--width", "1",
        "--height", "1*sqrt2",
        "--gen", "sqrt2=[1393/985,577/408]",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not_tilable"
    assert payload["exit_code"] == 1
    # the reported certificate re-verifies when fed back
    y = Fraction(payload["certificate"]["y"])
    assert y == -1
    table = tight_table(2)
    from sqtile import parse_expr

    assert verify_certificate(
        parse_expr("1", table), parse_expr("1*sqrt2", table), Certificate(y)
    )


def test_cli_decide_tilable_default_enclosures(capsys):
    # roots need no --gen flag
    code, out = run(capsys, "decide", "--width", "2 + 2*sqrt2", "--height", "3 + 3*sqrt2")
    assert code == 0
    assert "3/2" in out
    # a later term's rational keeps its own '-': 2 - -1 is 3
    code, out = run(capsys, "decide", "--width", "2 - -1", "--height", "3", "--format", "json")
    assert (code, json.loads(out)["ratio"]) == (0, "1")


def test_cli_decide_y_override(capsys):
    code, out = run(
        capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--y", "-7/2",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["certificate"]["y"] == "-7/2"
    _check_bad_y(capsys, "decide", "--width", "1", "--height", "1*sqrt2")


BAD_Y = [
    ("1", "--y must be negative, got 1"),
    ("0", "--y must be negative, got 0"),
    ("1/0", "rational with zero denominator (near '1/0')"),
]


def _check_bad_y(capsys, command, *argv):
    """An invalid --y is an input error with the usual report on stdout."""
    for y, detail in BAD_Y:
        code = run_command([command, *argv, "--y", y, "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "command": command, "exit_code": 2, "error": "input", "detail": detail,
        }
        code = run_command([command, *argv, "--y", y])
        assert (code, *capsys.readouterr()) == (2, f"error: {detail}\n", "")


def test_cli_verify_y_override(fig4_path, capsys):
    code, out = run(capsys, "verify", fig4_path, "--y", "-7/2", "--format", "json")
    assert code == 1
    assert json.loads(out)["certificate"]["y"] == "-7/2"
    _check_bad_y(capsys, "verify", fig4_path)


def test_cli_construct(tmp_path, capsys):
    code, out = run(capsys, "construct", "--ratio", "3/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["squares"] == 3
    doc = parse_document(json.dumps(payload["document"]))
    _, tiling = build_tiling(doc)
    assert validate(tiling).is_valid

    out_file = tmp_path / "out.tiling"
    code, _ = run(capsys, "construct", "--ratio", "13/8", "--out", str(out_file))
    assert code == 0
    doc = parse_document(out_file.read_bytes())
    assert len(doc["tiles"]) == 6


def test_cli_construct_bad_ratio(capsys):
    assert run(capsys, "construct", "--ratio", "0")[0] == 2
    assert run(capsys, "construct", "--ratio", "x")[0] == 2


def test_cli_construct_square_limit(capsys, monkeypatch):
    # 100001 = [100001] needs 100,001 squares, one past the limit
    code, out = run(capsys, "construct", "--ratio", "100001", "--format", "json")
    assert code == 2
    assert json.loads(out) == {
        "command": "construct",
        "exit_code": 2,
        "error": "input",
        "detail": "--ratio needs more squares than the limit of 100000 (near '100001')",
    }
    # the limit itself is allowed: 13/8 = [1; 1, 1, 1, 2] needs 6 squares
    monkeypatch.setattr(sqtile.cli, "MAX_SQUARES", 6)
    assert run(capsys, "construct", "--ratio", "13/8")[0] == 0
    assert run(capsys, "construct", "--ratio", "21/13")[0] == 2


def test_cli_rationals_take_ascii_digits_only(capsys):
    # Arabic-Indic one and two: int() reads them, the grammar does not
    code, out = run(capsys, "decide", "--width", "\u0661", "--height", "\u0662", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "input"
    rect = ("decide", "--width", "1", "--height", "1*sqrt2")
    code, out = run(capsys, *rect, "--y=-\u0661", "--format", "json")
    assert (code, json.loads(out)["detail"]) == (2, "malformed rational (near '-\u0661')")
    assert run(capsys, *rect, "--y", "-\u0661", "--format", "json") == (code, out)
    assert run(capsys, *rect, "--y", "-7/2")[0] == 1
    assert run(capsys, "construct", "--ratio", "\u0663/\u0662")[0] == 2


def test_cli_values_with_a_leading_dash_reach_their_handler(capsys):
    """A value that starts with one '-' is the option's value, so a
    malformed one gets the usual input report; an exact option string
    such as -h keeps its meaning."""
    rect = ("decide", "--width", "1", "--height", "1*sqrt2")
    for argv, detail in (
        ((*rect, "--y", "-x"), "malformed rational (near '-x')"),
        ((*rect, "--y", "-hx"), "malformed rational (near '-hx')"),
        (("decide", "--width", "-x", "--height", "1"),
         "expected a rational or symbol at column 1 (near '-')"),
    ):
        code = run_command([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"command": "decide", "exit_code": 2, "error": "input", "detail": detail}
    assert run(capsys, *rect, "--y", "-7/2")[0] == 1
    code, out = run(capsys, "decide", "-h")
    assert code == 0 and out.startswith("usage: sqtile decide [-h]")


def test_cli_values_with_two_leading_dashes_reach_their_handler(capsys):
    """An option's value is the next string, whatever it is, the bare "--"
    included, or the text after "="; exact options, "--opt=value" and
    abbreviations stay flags, and an unknown option is an input error."""
    for argv, detail in (
        (("decide", "--width", "--1", "--height", "1"),
         "expected a rational or symbol at column 1 (near '-')"),
        (("decide", "--width", "1", "--height", "1", "--gen", "--g=[1,2]"),
         "generator symbol must be an identifier (near '--g')"),
        (("decide", "--width", "--", "--height", "1"),
         "expected a rational or symbol at column 1 (near '-')"),
        (("decide", "--width=--", "--height", "1"),
         "expected a rational or symbol at column 1 (near '-')"),
        (("decide", "--width", "1", "--height", "1*sqrt2", "--nope"), "unknown option (near '--nope')"),
    ):
        code = run_command([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"command": "decide", "exit_code": 2, "error": "input", "detail": detail}
    rect = ("decide", "--width", "1", "--height", "1*sqrt2")
    assert run(capsys, "decide", "--wid", "1", "--height", "1*sqrt2") == run(capsys, *rect)
    assert run(capsys, "decide", "--width=1", "--hei", "1*sqrt2", "--format=json")[0] == 1
    assert run(capsys, "decide", "--wid=1", "--height", "1*sqrt2") == run(capsys, *rect)


def test_cli_usage_faults_give_one_input_report(fig4_path, capsys):
    """An unknown option, a missing or extra FILE, an unknown subcommand,
    the bare "--" as a value and a precision in non-ASCII digits."""
    for argv in (
        ("decide", "--bogus", "1"),
        ("validate",),
        ("validate", "a", "b"),
        ("bogus",),
        ("decide", "--width", "--", "--height", "1"),
        ("render", fig4_path, "--precision", "\u0661"),
    ):
        _input_error(capsys, *argv)


def test_cli_root_brackets_must_contain_the_root(tmp_path, capsys):
    detail = "generator sqrt2: enclosure [3, 4] does not contain the square root of 2"
    assert _input_error(capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--gen", "sqrt2=[3,4]") == detail
    path = _write(
        tmp_path, "bad.tiling", [("sqrt3", "1", "3/2")], ("1", "1*sqrt3"), [("0", "0", "1", "1*sqrt3")]
    )
    assert run(capsys, "validate", path)[0] == 2
    assert run(capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--gen", "sqrt2=[1,2]")[0] == 1


def test_cli_provably_dependent_roots_exit_2(tmp_path, capsys):
    # a square with side sqrt8 = 2*sqrt2, and sqrt4 = 2: no verdict may claim "not tilable"
    sqrt8 = "sqrt8=[28284271247/10000000000,28284271248/10000000000]"
    multiple = "generator sqrt8 is a rational multiple of sqrt2: sqrt8 = 2*sqrt2"
    assert _input_error(capsys, "decide", "--width", "1*sqrt8", "--height", "2*sqrt2", "--gen", sqrt8) == multiple
    # with sqrt2 named nowhere, sqrt8 stands alone, declared or not
    assert run(capsys, "decide", "--width", "1*sqrt8", "--height", "1", "--gen", "sqrt8=[2,3]")[0] == 1
    assert run(capsys, "decide", "--width", "1*sqrt8", "--height", "1")[0] == 1
    rational = "generator sqrt4 is rational: sqrt4 = 2"
    assert _input_error(capsys, "decide", "--width", "1*sqrt4", "--height", "2", "--gen", "sqrt4=[1,3]") == rational
    path = _write(
        tmp_path, "dep.tiling", [("sqrt3", "1", "2"), ("sqrt12", "3", "4")], ("1*sqrt12", "1"),
        [("0", "0", "1*sqrt12", "1")],
    )
    assert _input_error(capsys, "validate", path) == "generator sqrt12 is a rational multiple of sqrt3: sqrt12 = 2*sqrt3"


def test_cli_every_root_is_built_in(capsys):
    """Any sqrtN needs no bracket in a bare expression."""
    code, out = run(capsys, "decide", "--width", "1*sqrt7", "--height", "1")
    assert (code, out.splitlines()[0]) == (1, "not tilable by squares")
    code, out = run(capsys, "decide", "--width", "1*sqrt7", "--height", "1", "--format", "json")
    assert (code, json.loads(out)["verdict"], json.loads(out)["certificate"]["y"]) == (1, "not_tilable", "-1")
    assert run(capsys, "decide", "--width", "1*sqrt7", "--height", "3*sqrt7") == (0, "tilable: height/width = 3\n")
    # only whole identifiers that match sqrtN are roots; equal N keep the order of first appearance
    for name in ("sqrt0", "xsqrt8", "sqrt8x"):
        assert _input_error(capsys, "decide", "--width", f"1*{name}", "--height", "1*sqrt2") == (
            f"undeclared symbol '{name}' (near '{name}')"
        )
    assert _input_error(capsys, "decide", "--width", "1*sqrt02", "--height", "1*sqrt2") == (
        "generator sqrt2 is a rational multiple of sqrt02: sqrt2 = 1*sqrt02"
    )


def test_cli_verify_refutes_rectangle_tiling(fig4_path, capsys):
    code, out = run(capsys, "verify", fig4_path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "refuted"
    assert payload["refutation"]["kind"] == "tile_not_square"
    assert payload["certificate"]["y"] == "-1"


def test_cli_verify_decides_once(fig4_path, capsys, monkeypatch):
    import sqtile.cli
    import sqtile.dehn

    calls = []
    real = sqtile.dehn.decide

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sqtile.cli, "decide", counting)
    monkeypatch.setattr(sqtile.dehn, "decide", counting)
    code, out = run(capsys, "verify", fig4_path)
    assert code == 1 and out.startswith("refuted: the claimed square tiling cannot be genuine")
    assert len(calls) == 1


def test_cli_verify_confirms_square_tiling(tmp_path, capsys):
    doc = document_from_tiling(euclid_tiling(2, 3))
    path = tmp_path / "ok.tiling"
    path.write_text(serialize_document(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "confirmed" in out


def _input_error(capsys, command, *argv):
    """The JSON report of an invocation that must be an input error, with
    nothing on stderr."""
    code = run_command([command, *argv, "--format", "json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (code, payload["exit_code"], payload["error"], err) == (2, 2, "input", "")
    return payload["detail"]


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tiling"
    bad.write_text("{")
    assert run(capsys, "validate", str(bad))[0] == 2
    assert run(capsys, "validate", str(tmp_path / "missing.tiling"))[0] == 2
    bad.write_text("[" * 200000 + "]" * 200000)
    assert _input_error(capsys, "validate", str(bad)) == "invalid JSON: nested too deeply"


def test_cli_unwritable_out_exit_2(tmp_path, fig4_path, capsys):
    for argv in (["construct", "--ratio", "3/2"], ["render", fig4_path]):
        target = tmp_path / "missing" / "x.out"
        detail = _input_error(capsys, *argv, "--out", str(target))
        assert detail == f"cannot write {target}: No such file or directory"
        assert not target.parent.exists()


def test_cli_repeated_gen_symbol_exit_2(fig4_path, capsys):
    code = run_command(["validate", fig4_path, "--gen", "g=[1,2]", "--gen", "g=[1,3]"])
    assert (code, *capsys.readouterr()) == (2, "error: duplicate generator symbol 'g'\n", "")


def test_cli_document_declaring_a_symbol_twice_exit_2(tmp_path, capsys):
    twice = _write(tmp_path, "twice.tiling", [("g", "1", "2"), ("g", "1", "3")], ("1", "1"), [("0", "0", "1", "1")])
    for gen in ((), ("--gen", "g=[1,2]")):
        assert _input_error(capsys, "validate", twice, *gen) == "duplicate generator symbol 'g'"


def test_cli_generator_limit_exit_2(tmp_path, capsys):
    """A table holds at most 32 generators; for ``decide`` and
    ``analyze-good``, the roots the expressions name and the flags."""
    limit = "a generator table holds at most 32 generators, got 33"
    gens = [(f"g{i}", "1", "2") for i in range(33)]
    for count, code in ((32, 0), (33, 2)):
        path = _write(tmp_path, f"wide{count}.tiling", gens[:count], ("1", "1"), [("0", "0", "1", "1")])
        assert run(capsys, "validate", path)[0] == code
    assert _input_error(capsys, "validate", path) == limit
    flags = [arg for i in range(33) for arg in ("--gen", f"g{i}=[1,2]")]
    assert run(capsys, "decide", "--width", "1", "--height", "2", *flags[2:])[0] == 0
    assert _input_error(capsys, "decide", "--width", "1", "--height", "2", *flags) == limit
    # a named root counts: 31 flags and sqrt7 fit, 32 and sqrt7 do not
    assert run(capsys, "decide", "--width", "1*sqrt7", "--height", "2", *flags[4:])[0] == 1
    assert _input_error(capsys, "decide", "--width", "1*sqrt7", "--height", "2", *flags[2:]) == limit


def test_cli_overridden_document_bracket_is_still_checked(tmp_path, capsys):
    bad = _write(tmp_path, "bad.tiling", [("g", "x", "2")], ("1", "1"), [("0", "0", "1", "1")])
    for gen in ((), ("--gen", "g=[1,2]")):
        assert _input_error(capsys, "validate", bad, *gen) == "malformed rational (near 'x')"


def test_cli_bare_expression_terms_follow_the_builtin_order(capsys):
    """Bare expressions see the roots they name by increasing N, then new
    --gen symbols, so a printed expression does not depend on the order of
    the flags.  The user generator g leaves the sign unsettled; without it
    the exact sign of the roots answers, whatever their brackets."""
    argv = ["decide", "--width", "1*g + 1*sqrt3 - 1*sqrt2 - 1/3", "--height", "1"]
    for gens in (["sqrt3=[1,2]", "g=[1,2]", "sqrt2=[1,2]"], ["g=[1,2]", "sqrt2=[1,2]", "sqrt3=[1,2]"]):
        flags = [f for g in gens for f in ("--gen", g)]
        code, out = run(capsys, *argv, *flags, "--format", "json")
        assert (code, json.loads(out)["detail"]) == (
            3, "cannot order -1/3 - 1*sqrt2 + 1*sqrt3 + 1*g against 0: enclosures overlap; "
            "declare tighter generator enclosures",
        )
        code, out = run(capsys, "decide", "--width", "1*sqrt3 - 1*sqrt2 - 1/3", "--height", "1", *flags)
        assert (code, out) == (2, "error: width must be positive\n")
    # a --gen flag for a named root keeps the root's place, before g
    argv = ["decide", "--width", "1*g + 1*sqrt7 - 3", "--height", "1", "--gen", "g=[1,2]", "--gen", "sqrt7=[2,3]"]
    code, out = run(capsys, *argv)
    assert (code, out.splitlines()[0]) == (
        3, "ambiguous comparison: cannot order -3 + 1*sqrt7 + 1*g against 0: enclosures overlap; "
        "declare tighter generator enclosures",
    )


def test_cli_ambiguous_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "amb.tiling", *_AMBIGUOUS)
    code, out = run(capsys, "validate", path)
    assert code == 3
    # tightening the enclosure via --gen resolves it (g is sqrt2-sized here)
    code, _ = run(capsys, "validate", path, "--gen", "g=[14141/10000,14143/10000]")
    assert code == 1  # now provably invalid: the second tile overhangs


def test_cli_render(fig4_path, tmp_path, capsys):
    code, first = run(capsys, "render", fig4_path, "--precision", "4")
    assert code == 0 and "<svg" in first
    code, second = run(capsys, "render", fig4_path, "--precision", "4")
    assert first == second
    out_file = tmp_path / "fig.svg"
    code, _ = run(capsys, "render", fig4_path, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_cli_analyze_good(capsys):
    code, out = run(
        capsys,
        "analyze-good",
        "--width", "2",
        "--height", "3",
        "--side", "1", "--side", "1", "--side", "1",
        "--side", "1", "--side", "1", "--side", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["analysis"]["contradiction"] == "none"

    code, out = run(
        capsys,
        "analyze-good",
        "--width", "1",
        "--height", "1 + 1*sqrt2",
        "--side", "1/2 + 1*sqrt2",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["analysis"]["contradiction"] == "area_mismatch"


def test_cli_analyze_good_refuses_nonpositive_sides(capsys):
    """A width, height or side that is not positive is an input error, as
    in decide; the first one in --width, --height, --side order is named."""
    cases = [
        (["--width", "-1", "--height", "-1", "--side", "1"], "--width must be positive, got -1"),
        (["--width", "1", "--height", "1", "--side", "-1"], "--side must be positive, got -1"),
        (["--width", "0", "--height", "5", "--side", "0"], "--width must be positive, got 0"),
        (["--width", "1", "--height", "0", "--side", "1"], "--height must be positive, got 0"),
        (["--width", "1", "--height", "1", "--side", "1", "--side", "1 - 1*sqrt2"],
         "--side must be positive, got 1 - 1*sqrt2"),
        # per flag in argv order, a value outside {1, sqrt2} is refused before its sign
        (["--width", "1*sqrt3", "--height", "-1", "--side", "1"], "1*sqrt3 involves generators outside {1, sqrt2}"),
        (["--width", "1", "--height", "1", "--side", "1*sqrt3", "--side", "-1"],
         "1*sqrt3 involves generators outside {1, sqrt2}"),
        (["--width", "1", "--height", "1", "--side", "-1", "--side", "1*sqrt3"], "--side must be positive, got -1"),
    ]
    for argv, message in cases:
        code, out = run(capsys, "analyze-good", *argv)
        assert (code, out) == (2, f"error: {message}\n")
    code, out = run(capsys, "analyze-good", "--width", "1", "--height", "1", "--side", "-1 + 1*sqrt2")
    assert code == 1 and "contradiction: area_mismatch" in out
    code, out = run(capsys, "analyze-good", "--width", "1", "--height", "1", "--side", "1", "--side", "-" + "7" * 3000)
    assert code == 2 and out.startswith("error: --side must be positive, got -777") and len(out) < 200


def test_cli_decide_and_analyze_good_agree_on_near_ties(capsys):
    """sqrt2 - 14142135623730/10^13 is about 9.5e-14: both commands find
    it positive, and the next rational up negative."""
    positive, negative = (f"1*sqrt2 - {n}/10000000000000" for n in (14142135623730, 14142135623731))
    # the same verdict and certificate as for a 1 x sqrt2 rectangle
    assert run(capsys, "decide", "--width", positive, "--height", "1") == run(
        capsys, "decide", "--width", "1", "--height", "1*sqrt2"
    )
    code, out = run(capsys, "decide", "--width", positive, "--height", "1", "--format", "json")
    payload = json.loads(run(capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--format", "json")[1])
    assert (code, json.loads(out)) == (1, {**payload, "width": positive, "height": "1"})
    assert payload["verdict"] == "not_tilable"
    code, out = run(capsys, "analyze-good", "--width", positive, "--height", "1", "--side", "1")
    assert code == 1 and out.endswith("contradiction: area_mismatch\n")
    assert run(capsys, "decide", "--width", negative, "--height", "1") == (2, "error: width must be positive\n")
    assert run(capsys, "analyze-good", "--width", negative, "--height", "1", "--side", "1") == (
        2, f"error: --width must be positive, got {negative}\n"
    )


def test_cli_gen_flag_validation(capsys):
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=1,2")[0] == 2
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=[1]")[0] == 2
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=[-1,1]")[0] == 2


def test_cli_malformed_gen_flag_message_is_capped(capsys):
    flag = "g=[1," + "1" * 3000
    code, out = run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", flag)
    assert code == 2
    assert out.startswith("error: --gen expects SYMBOL=[lo,hi] (near 'g=[1,111")
    assert len(out.encode()) < 200
    code, out = run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=[1]")
    assert (code, out) == (2, "error: --gen expects two comma-separated bounds (near 'g=[1]')\n")


def test_cli_long_names_give_short_reports(tmp_path, capsys):
    """A message shows a name, a key list or the N of sqrtN past 40
    characters as its first 40 and its length, so the report stays short."""
    g = "g" * 100_000
    fig4 = json.loads(_FIG4_TEXT)
    docs = {
        "key": {**fig4, g: 1},
        "only key": {g: 1},
        "symbol": {**fig4, "generators": [{"symbol": g}]},
        "twice": {**fig4, "generators": [{"symbol": g, "lo": "1", "hi": "2"}] * 2},
        "half": {**fig4, "generators": [{"symbol": g, "lo": "1"}]},
        "bounds": {**fig4, "generators": [{"symbol": g, "lo": 1, "hi": 2}]},
    }
    probes = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.tiling"
        path.write_text(json.dumps(doc), encoding="utf-8")
        probes.append(["validate", str(path)])
    decide = ["decide", "--width", "1", "--height", "1"]
    probes += [
        ["decide", "--width", f"1*{g}", "--height", "1"],
        [*decide, "--gen", f"{g}=[2,1]"],
        [*decide, "--gen", f"{g}=[-1,1]"],
        [*decide, "--gen", f"{g}=[1,2]", "--gen", f"{g}=[1,3]"],
        [*decide, "--gen", f"sqrt{'7' * 5000}=[1,2]"],
        ["analyze-good", "--width", "1", "--height", f"1*{g}", "--side", "1", "--gen", f"{g}=[1,3]"],
        [*decide, "--y", "7" * 4000],
        ["construct", "--ratio", "-" + "7" * 4000],
    ]
    for argv in probes:
        code, out = run(capsys, *argv, "--format", "json")
        assert (code, json.loads(out)["error"]) == (2, "input")
        assert len(out.encode()) < 1024
        assert re.search(r"\.\.\. \d{4,6} characters", out)


def _write(tmp_path, name, generators, outer, tiles):
    path = tmp_path / name
    path.write_text(serialize_document(_doc(generators, outer, tiles)))
    return str(path)


def _root_tilings():
    """Tilings over sqrt2 and sqrt3: Fig. 4, guillotine tilings and their
    copies with a tile twice, a stretched Bouwkamp rectangle, a scaled
    Euclid tiling, and one tile whose
    width misses the outer width sqrt2 by about 1e-14, short or long."""
    table = tight_table(2, 3)
    e = lambda text: parse_expr(text, table)
    yield build_tiling(parse_document(_FIG4_TEXT))[1]
    rng = random.Random(37)
    for _ in range(4):
        t = guillotine_tiling(rng, e("2 + 1*sqrt3"), e("1 + 1*sqrt2"), depth=3)
        yield t
        yield Tiling(t.outer_w, t.outer_h, t.tiles + t.tiles[-1:], table)
    yield bouwkamp_tiling(workloads.MORON_CODE, table, e("1*sqrt2"))
    unit = e("1 + 1*sqrt3")  # a genuine square tiling, scaled
    squares = euclid_tiling(Fraction(1), Fraction(13, 8))
    scaled = lambda v: unit * v.constant_value()
    tiles = tuple(Placement(*map(scaled, (p.x, p.y, p.w, p.h))) for p in squares.tiles)
    yield Tiling(scaled(squares.outer_w), scaled(squares.outer_h), tiles, table)
    for n in (14142135623730, 14142135623731):
        yield Tiling(e("1*sqrt2"), e("1"), (Placement(e("0"), e("0"), e(f"{n}/10000000000000"), e("1")),), table)


def test_cli_root_brackets_decide_no_verdict(tmp_path, capsys):
    """validate, verify, decide and refute_square_tiling give the same
    bytes with sqrt2 and sqrt3 bracketed by [1, 2], by 60-digit brackets
    and by none declared (the computed ones); render, whose SVG uses the
    bracket midpoints, the same exit code."""
    brackets = {
        "coarse": {n: ("1", "2") for n in (2, 3)},
        "tight": {n: tuple(map(str, tight_enclosure(n))) for n in (2, 3)},
        "computed": {2: (), 3: ()},
    }
    codes = set()
    for i, t in enumerate(_root_tilings()):
        seen = {}
        for name, bounds in brackets.items():
            doc = document_from_tiling(t)
            doc["generators"] = [{"symbol": f"sqrt{n}", **dict(zip(("lo", "hi"), b))} for n, b in bounds.items()]
            path = tmp_path / f"{name}{i}.tiling"
            path.write_text(serialize_document(doc))
            gens = [f for n, b in bounds.items() if b for f in ("--gen", f"sqrt{n}=[{b[0]},{b[1]}]")]
            outer = ["--width", doc["outer"]["w"], "--height", doc["outer"]["h"]]
            runs = [run(capsys, *argv, "--format", form)
                    for argv in (["validate", str(path)], ["verify", str(path)], ["decide", *outer, *gens])
                    for form in ("text", "json")]
            try:
                refuted = refute_square_tiling(build_tiling(parse_document(path.read_bytes()))[1]).as_dict()
            except ValueError as exc:
                refuted = str(exc)
            seen[name] = runs, refuted, run(capsys, "render", str(path))[0]
        assert seen["coarse"] == seen["tight"] == seen["computed"]
        codes.update([code for code, _ in seen["tight"][0]] + [seen["tight"][2]])
    assert codes == {0, 1}


def test_cli_verify_commensurable_non_square_tilings(tmp_path, capsys):
    """A failed commensurable claim is refuted in the incommensurable
    shape, minus the certificate: one refutation, the first that fires."""
    rect = _write(tmp_path, "rect.tiling", (), ("1", "2"), [("0", "0", "1", "2")])
    gap = _write(tmp_path, "gap.tiling", (), ("1", "2"), [("0", "0", "1", "1")])
    cell = {"kind": "gap", "tiles": [], "cell": [0, 1], "witness": {"cell_x": "0", "cell_y": "1"}}
    for path, line, refutation in (
        (rect, '  tile_not_square: {"tile": 0, "w": "1", "h": "2"}\n',
         {"kind": "tile_not_square", "witness": {"tile": 0, "w": "1", "h": "2"}}),
        (gap, '  geometry_invalid: {"failures": [{"kind": "gap", "tiles": [], "cell": [0, 1], '
              '"witness": {"cell_x": "0", "cell_y": "1"}}]}\n',
         {"kind": "geometry_invalid", "witness": {"failures": [cell]}}),
    ):
        assert run(capsys, "verify", path) == (1, "refuted: the claimed square tiling cannot be genuine\n" + line)
        code, out = run(capsys, "verify", path, "--format", "json")
        assert (code, json.loads(out)) == (
            1, {"command": "verify", "exit_code": 1, "verdict": "refuted", "refutation": refutation}
        )


def test_cli_ambiguous_comparisons_exit_3(tmp_path, capsys):
    decide = ("decide", "--width", "-1 + 1*g", "--height", "1", "--gen", "g=[1/2,5/2]")
    detail = "cannot order -1 + 1*g against 0: enclosures overlap; declare tighter generator enclosures"
    assert run(capsys, *decide) == (
        3, f"ambiguous comparison: {detail}\ndeclare tighter enclosures with --gen and retry\n"
    )
    code, out = run(capsys, *decide, "--format", "json")
    assert (code, json.loads(out)) == (
        3, {"command": "decide", "exit_code": 3, "error": "ambiguous_comparison", "detail": detail}
    )
    # g in [1/2, 5/2] cannot certify that the second tile's width 2 - g is positive
    amb = _write(
        tmp_path, "amb.tiling", [("g", "1/2", "5/2")], ("2", "1"),
        [("0", "0", "1*g", "1"), ("1*g", "0", "2 - 1*g", "1")],
    )
    # every subcommand reports the first pair it could not order, in one shape
    detail = "cannot order 2 against 1*g: enclosures overlap; declare tighter generator enclosures"
    for command in ("validate", "verify", "render"):
        assert run(capsys, command, amb) == (
            3,
            f"ambiguous comparison: {detail}\n"
            "declare tighter enclosures with --gen and retry\n",
        )
        code, out = run(capsys, command, amb, "--format", "json")
        assert code == 3
        assert json.loads(out) == {
            "command": command, "exit_code": 3, "error": "ambiguous_comparison",
            "detail": detail,
        }
    code, out = run(capsys, "render", amb, "--gen", "g=[99/100,101/100]")
    assert code == 0
    stroke = 'fill="none" stroke="#000" stroke-width="0.010000"/>'
    assert out == (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 2.000000 1.000000">\n'
        f'  <rect x="0.000000" y="0.000000" width="2.000000" height="1.000000" {stroke}\n'
        f'  <rect x="0.000000" y="0.000000" width="1.000000" height="1.000000" {stroke}\n'
        f'  <rect x="1.000000" y="0.000000" width="1.000000" height="1.000000" {stroke}\n'
        "</svg>\n"
    )


def test_cli_generator_declared_only_by_gen_flag(tmp_path, capsys):
    # two g x g squares stacked in a g x 2g rectangle; the file never declares g
    outer, tiles = ("1*g", "2*g"), [("0", "0", "1*g", "1*g"), ("0", "1*g", "1*g", "1*g")]
    bare = _write(tmp_path, "bare.tiling", (), outer, tiles)
    declared = _write(tmp_path, "declared.tiling", [("g", "14142/10000", "14143/10000")], outer, tiles)
    gen = ("--gen", "g=[14142/10000,14143/10000]")
    assert run(capsys, "validate", bare) == (2, "error: undeclared symbol 'g' (near 'g')\n")
    assert run(capsys, "validate", bare, *gen) == (0, "validation: valid\n")
    assert run(capsys, "verify", bare, *gen) == (0, "confirmed: a valid square tiling\n")
    code, svg = run(capsys, "render", bare, *gen)
    assert code == 0
    assert svg == run(capsys, "render", declared)[1] == render_svg(parse_document(Path(declared).read_bytes()))
    assert svg.count("<rect") == 3
    # declared without a bracket, g takes the flag's before anything brackets it
    unbracketed = _write(tmp_path, "unbracketed.tiling", [("g",)], outer, tiles)
    assert run(capsys, "validate", unbracketed, *gen) == (0, "validation: valid\n")
    assert _input_error(capsys, "validate", unbracketed) == "generator 'g' has no enclosure and no default is known"


def test_cli_document_with_a_9000_digit_root(tmp_path, capsys):
    """A bare root is bracketed from its symbol, never through bracket
    text, so an N past the 4,300-digit limit on integer text answers."""
    root = "sqrt" + "7" * 9000
    path = _write(tmp_path, "long.tiling", [(root,)], ("1", f"1*{root}"), [("0", "0", "1", f"1*{root}")])
    assert run(capsys, "validate", path) == (0, "validation: valid\n")
    code, out = run(capsys, "validate", path, "--format", "json")
    assert (code, json.loads(out)) == (0, {"command": "validate", "exit_code": 0, "verdict": "valid", "failures": []})


def test_cli_render_invalid_document(tmp_path, capsys):
    gap = _write(tmp_path, "gap.tiling", (), ("1", "2"), [("0", "0", "1", "1")])
    assert run(capsys, "render", gap) == (1, "invalid tiling: invalid: gap\n")
    code, out = run(capsys, "render", gap, "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "command": "render", "exit_code": 1, "error": "invalid_tiling",
        "failures": [
            {"kind": "gap", "tiles": [], "cell": [0, 1], "witness": {"cell_x": "0", "cell_y": "1"}}
        ],
    }


def _python_env():
    """The environment of a fresh interpreter with this package importable."""
    src = str(Path(sqtile.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _python(*args):
    """Run a fresh interpreter with this package importable."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_python_env(), timeout=60)


def test_cli_module_run_has_clean_stderr():
    proc = _python("-m", "sqtile.cli", "decide", "--width", "1", "--height", "2")
    assert proc.returncode == 0
    assert proc.stdout == "tilable: height/width = 2\n"
    assert proc.stderr == ""


def test_cli_closed_stdout_exits_with_the_command_code():
    """``sqtile construct ... | head -c 10``: the report (2,000 squares,
    far more than a pipe buffer) meets a closed pipe, yet the process
    exits 0, as construct does, with nothing on stderr."""
    argv = [sys.executable, "-m", "sqtile.cli", "construct", "--ratio", "2000", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env()) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cli_import_leaves_argparse_and_gettext_unloaded():
    """``-S`` skips site hooks, which may load ``typing`` on their own."""
    unused = "{'argparse', 'gettext', 'dataclasses', 'inspect', 'typing'}"
    proc = _python("-S", "-c", f"import sys, sqtile.cli; print(sorted({unused} & set(sys.modules)))")
    assert proc.stdout == "[]\n"


def test_import_leaves_cli_unloaded():
    proc = _python("-c", "import sys, sqtile; print('sqtile.cli' in sys.modules)")
    assert proc.stdout == "False\n"


def test_cli_analyze_good_output_past_int_digit_limit(capsys):
    a = int("7" * 3000)
    code, out = run(
        capsys,
        "analyze-good",
        "--width", "1",
        "--height", "1 + 1*sqrt2",
        "--side", f"{a} + 1*sqrt2",
        "--format", "json",
    )
    assert code == 1
    analysis = json.loads(out)["analysis"]
    assert Decimal(analysis["A"]) == a * a
    assert analysis["B"] == "1"
    assert Decimal(analysis["C"]) == a
    assert analysis["contradiction"] == "area_mismatch"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int digit limit",
)
def test_cli_inputs_past_int_digit_limit_are_input_errors(tmp_path, capsys):
    big = "1" * (sys.get_int_max_str_digits() + 1)
    code, out = run(capsys, "decide", "--width", big, "--height", "1", "--format", "json")
    assert code == 2
    detail = json.loads(out)["detail"]
    assert detail.startswith("rational has too many digits (near '111")
    assert len(detail.encode()) < 200
    doc = tmp_path / "big.tiling"
    doc.write_text('{"outer": ' + big + "}")
    code, out = run(capsys, "validate", str(doc), "--format", "json")
    assert code == 2
    assert json.loads(out)["detail"] == "invalid JSON: a number has too many digits"


def test_cli_render_output_past_int_digit_limit(tmp_path, capsys):
    big = "9" * 4299
    doc = tmp_path / "big.tiling"
    doc.write_text(json.dumps({
        "outer": {"w": big, "h": big},
        "tiles": [{"x": "0", "y": "0", "w": big, "h": big}],
    }))
    assert run(capsys, "validate", str(doc))[0] == 0
    code, out = run(capsys, "render", str(doc), "--format", "json")
    assert code == 0
    side = big + ".000000"
    assert f'viewBox="0 0 {side} {side}"' in json.loads(out)["svg"]


def test_cli_render_precision_past_int_digit_limit(fig4_path, capsys):
    code, out = run(capsys, "render", fig4_path, "--precision", "5000", "--format", "json")
    assert code == 0
    view_box = re.search(r'viewBox="0 0 (\S+) (\S+)"', json.loads(out)["svg"])
    assert view_box[1] == "1." + "0" * 5000
    lo, hi = build_tiling(parse_document(Path(fig4_path).read_bytes()))[1].outer_h.eval_interval()
    h = (lo + hi) / 2
    with localcontext() as ctx:
        ctx.prec = 5100
        want = (Decimal(h.numerator) / Decimal(h.denominator)).quantize(
            Decimal(1).scaleb(-5000), rounding=ROUND_HALF_EVEN
        )
    assert view_box[2] == str(want)


def test_cli_render_precision_takes_ascii_digits_only(fig4_path, capsys):
    # Arabic-Indic one: int() reads it as 1, the README's digits do not
    for precision in ("\u0661", "-1", "+1", " 1", "1_0", "x"):
        code, out = run(capsys, "render", fig4_path, "--precision", precision, "--format", "json")
        assert (code, json.loads(out)["error"]) == (2, "input")
    assert run(capsys, "render", fig4_path, "--precision", "1", "--format", "json")[0] == 0


def test_cli_render_precision_is_bounded(fig4_path, capsys):
    detail = _input_error(capsys, "render", fig4_path, "--precision", "10001")
    assert "at most 10000" in detail
    code, out = run(capsys, "render", fig4_path, "--precision", "10001", "--format", "json")
    assert len(out.encode()) < 512
    assert run(capsys, "render", fig4_path, "--precision", "10000", "--format", "json")[0] == 0
    # past the int digit limit: the same report as 10001, and zeros are read as 0
    assert _input_error(capsys, "render", fig4_path, "--precision", "9" * 5000) == detail
    assert run(capsys, "render", fig4_path, "--precision", "9" * 5000, "--format", "json") == (code, out)
    code, out = run(capsys, "render", fig4_path, "--precision", "0" * 5000, "--format", "json")
    assert (code, out) == run(capsys, "render", fig4_path, "--precision", "0", "--format", "json")
    assert code == 0


@pytest.mark.parametrize("name", sorted(BOUWKAMP_CODES))
def test_bouwkamp_squares_confirm_and_stretched_refute(name, tmp_path, capsys):
    """Non-guillotine squared rectangles: verify confirms them with ratio
    h/w; stretched in x by sqrt2 they stay valid rectangle tilings, and
    the refutation names a tile that is not a square."""
    table = tight_table(2)
    _, w, h = workloads.bouwkamp_squares(BOUWKAMP_CODES[name])
    t = bouwkamp_tiling(BOUWKAMP_CODES[name], table)
    assert validate(t).is_valid
    doc = tmp_path / f"{name}.tiling"
    doc.write_text(serialize_document(document_from_tiling(t)))
    code, out = run(capsys, "verify", str(doc), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "verify", "exit_code": 0, "verdict": "confirmed", "ratio": str(Fraction(h, w)),
    }
    stretched = bouwkamp_tiling(BOUWKAMP_CODES[name], table, parse_expr("1*sqrt2", table))
    assert validate(stretched).is_valid
    assert refute_square_tiling(stretched).kind is RefutationKind.TILE_NOT_SQUARE
