"""Document format, SVG rendering, and the command-line contract."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import sqtile
from sqtile import (
    AmbiguousComparison,
    Certificate,
    DocumentError,
    InvalidTiling,
    build_tiling,
    document_from_tiling,
    euclid_tiling,
    parse_document,
    render_svg,
    run_command,
    serialize_document,
    validate,
    verify_certificate,
)
from sqtile.cli import DEFAULT_ENCLOSURES, GeneratorDecl, TileDecl, TilingDocument

from conftest import guillotine_tiling, tight_table


# --- default enclosures -------------------------------------------------------


@pytest.mark.parametrize("symbol,n", [("sqrt2", 2), ("sqrt3", 3), ("sqrt5", 5)])
def test_default_enclosures_bracket_tightly(symbol, n):
    lo, hi = DEFAULT_ENCLOSURES[symbol]
    assert 0 < lo < hi
    assert lo * lo < n < hi * hi
    assert hi - lo <= Fraction(1, 10**10)  # at least 10 correct digits


# --- document parsing ---------------------------------------------------------


def test_parse_fig4_document(fig4_doc):
    assert [g.symbol for g in fig4_doc.generators] == ["sqrt2", "sqrt3"]
    assert fig4_doc.outer_h == "2 + 1*sqrt2"
    assert len(fig4_doc.tiles) == 3
    _, tiling = build_tiling(fig4_doc)
    assert validate(tiling).is_valid


def test_parse_document_undeclared_symbol(fig4_doc):
    doc = TilingDocument(
        fig4_doc.generators,
        fig4_doc.outer_w,
        fig4_doc.outer_h,
        fig4_doc.tiles[:2] + (TileDecl("0", "0", "1", "1*sqrt5"),),
    )
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
    with pytest.raises(DocumentError):
        parse_document(
            b'{"generators": [{"symbol": "g"}], "outer": {"w": "1", "h": "1"},'
            b' "tiles": [{"x":"0","y":"0","w":"1","h":"1"}]}'
        )  # unknown symbol has no default enclosure
    err = None
    try:
        parse_document(b'{\n  "outer": oops\n}')
    except DocumentError as exc:
        err = exc
    assert err is not None and err.line == 2


def test_declared_known_symbol_gets_default_enclosure():
    doc = parse_document(
        b'{"generators": [{"symbol": "sqrt2"}],'
        b' "outer": {"w": "1", "h": "1*sqrt2"},'
        b' "tiles": [{"x":"0","y":"0","w":"1","h":"1*sqrt2"}]}'
    )
    g = doc.generators[0]
    assert Fraction(g.lo) == DEFAULT_ENCLOSURES["sqrt2"][0]
    assert Fraction(g.hi) == DEFAULT_ENCLOSURES["sqrt2"][1]
    _, tiling = build_tiling(doc)
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


def _random_document(rng) -> TilingDocument:
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


# --- SVG rendering ------------------------------------------------------------


def test_render_single_unit_tile():
    doc = TilingDocument(
        (),
        "1",
        "1",
        (TileDecl("0", "0", "1", "1"),),
    )
    svg = render_svg(doc, precision=2)
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
    doc = TilingDocument((), "1", "2", (TileDecl("0", "0", "1", "1"),))
    with pytest.raises(InvalidTiling):
        render_svg(doc)


def test_render_ambiguous_propagates():
    doc = TilingDocument(
        (GeneratorDecl("g", "9/10", "11/10"),),
        "2",
        "1",
        (TileDecl("0", "0", "1*g", "1"), TileDecl("1", "0", "2 - 1*g", "1")),
    )
    with pytest.raises(AmbiguousComparison):
        render_svg(doc)


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
    # well-known generators need no --gen flag
    code, out = run(capsys, "decide", "--width", "2 + 2*sqrt2", "--height", "3 + 3*sqrt2")
    assert code == 0
    assert "3/2" in out


def test_cli_decide_y_override(capsys):
    code, out = run(
        capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--y", "-7/2",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["certificate"]["y"] == "-7/2"
    code, _ = run(capsys, "decide", "--width", "1", "--height", "1*sqrt2", "--y", "1")
    assert code == 2


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
    assert len(doc.tiles) == 6


def test_cli_construct_bad_ratio(capsys):
    assert run(capsys, "construct", "--ratio", "0")[0] == 2
    assert run(capsys, "construct", "--ratio", "x")[0] == 2


def test_cli_verify_refutes_rectangle_tiling(fig4_path, capsys):
    code, out = run(capsys, "verify", fig4_path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "refuted"
    assert payload["refutation"]["kind"] == "tile_not_square"
    assert payload["certificate"]["y"] == "-1"


def test_cli_verify_confirms_square_tiling(tmp_path, capsys):
    doc = document_from_tiling(euclid_tiling(2, 3))
    path = tmp_path / "ok.tiling"
    path.write_text(serialize_document(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "confirmed" in out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tiling"
    bad.write_text("{")
    assert run(capsys, "validate", str(bad))[0] == 2
    assert run(capsys, "validate", str(tmp_path / "missing.tiling"))[0] == 2


def test_cli_ambiguous_exit_3(tmp_path, capsys):
    doc = TilingDocument(
        (GeneratorDecl("g", "9/10", "11/10"),),
        "2",
        "1",
        (TileDecl("0", "0", "1*g", "1"), TileDecl("1", "0", "2 - 1*g", "1")),
    )
    path = tmp_path / "amb.tiling"
    path.write_text(serialize_document(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 3
    # tightening the enclosure via --gen resolves it (g is sqrt2-sized here)
    code, _ = run(capsys, "validate", str(path), "--gen", "g=[14141/10000,14143/10000]")
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


def test_cli_gen_flag_validation(capsys):
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=1,2")[0] == 2
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=[1]")[0] == 2
    assert run(capsys, "decide", "--width", "1*g", "--height", "1", "--gen", "g=[-1,1]")[0] == 2


def _python(*args):
    """Run a fresh interpreter with this package importable."""
    src = str(Path(sqtile.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_cli_module_run_has_clean_stderr():
    proc = _python("-m", "sqtile.cli", "decide", "--width", "1", "--height", "2")
    assert proc.returncode == 0
    assert proc.stdout == "tilable: height/width = 2\n"
    assert proc.stderr == ""


def test_import_leaves_cli_unloaded():
    proc = _python("-c", "import sys, sqtile; print('sqtile.cli' in sys.modules)")
    assert proc.stdout == "False\n"
    from sqtile import cli, run_command

    assert run_command is cli.run_command and sqtile.render_svg is cli.render_svg
    with pytest.raises(AttributeError):
        sqtile.no_such_name


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
    h = build_tiling(parse_document(Path(fig4_path).read_bytes()))[1].outer_h.midpoint()
    with localcontext() as ctx:
        ctx.prec = 5100
        want = (Decimal(h.numerator) / Decimal(h.denominator)).quantize(
            Decimal(1).scaleb(-5000), rounding=ROUND_HALF_EVEN
        )
    assert view_box[2] == str(want)
