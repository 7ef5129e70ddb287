"""Run one benchmark workload in a fresh interpreter.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
Protocol on standard output: the line ``READY`` once set-up (import,
input generation, warm-up) is done, then one JSON line with the results.
With ``--setup-only`` the worker exits after ``READY``.

Load model: one process, one thread, a closed loop with one client; the
next op starts only when the previous one has finished.  In the untraced
run the reference task (``reference_ns``) runs between consecutive ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans as tracing
import workloads

LAYERS = (
    "cli.run_command",
    "cli.parse_document",
    "cli.build_tiling",
    "cli.render_svg",
    "tiling.validate",
    "basis.extract",
    "hamel.y_area",
    "dehn.decide",
    "dehn.verify_certificate",
    "dehn.refute",
    "construct.euclid",
)
COUNTS = (
    "tiling.tiles",
    "tiling.cuts",
    "tiling.cells",
    "tiling.failures",
    "exactnum.cmp_calls",
    "exactnum.eval_interval_calls",
    "exactnum.ambiguous",
    "basis.rank",
    "hamel.y_area_calls",
    "construct.squares",
)
# y values for the additivity check; at any y the outer rectangle's
# basis-relative area is y itself, since W and H are the first two elements.
WIDE_YS = (Fraction(-1), Fraction(-7, 3), Fraction(5, 2))
WIDE_FAMILIES = ("columns", "convergent_claim")
IMPORT_PAIRS = 7
# about 5 ms on a 2.1 GHz Xeon vCPU with CPython 3.11
REFERENCE_STEPS = 500
REFERENCE_ROWS = 15
_rng = random.Random(0)
REFERENCE_FRACTIONS = [Fraction(_rng.randrange(1, 10**12), _rng.randrange(1, 10**12)) for _ in range(64)]
SUBPROCESS_TIMEOUT_S = 60


class Mismatch(Exception):
    """The package answered, but not what the input was built to give."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def load_package(root: Path):
    src = (root / "src").resolve()
    import sqtile
    from sqtile import basis, cli, construct, dehn, errors, exactnum, hamel, tiling

    if not Path(sqtile.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sqtile was imported from {sqtile.__file__}, not from {src}")
    return SimpleNamespace(
        basis=basis, cli=cli, construct=construct, dehn=dehn, errors=errors,
        exactnum=exactnum, hamel=hamel, tiling=tiling,
    )


def count_doc(tr, doc):
    tr.count("tiling.tiles", doc.tiles)
    tr.count("tiling.cuts", sum(doc.cuts))
    tr.count("tiling.cells", doc.cells)


def build(pkg, tr, doc):
    parsed = tr.call("cli.parse_document", pkg.cli.parse_document, doc.data)
    _, t = tr.call("cli.build_tiling", pkg.cli.build_tiling, parsed)
    count_doc(tr, doc)
    return t


def grid_op(pkg, tr, doc):
    t = build(pkg, tr, doc)
    report = tr.call("tiling.validate", pkg.tiling.validate, t)
    tr.count("tiling.failures", len(report.failures))
    want = doc.expect
    expect(report.verdict == want["verdict"], f"{doc.family}: verdict {report.verdict}, built {want['verdict']}")
    if want["verdict"] == "invalid":
        kinds = sorted({f.kind for f in report.failures})
        expect(kinds == want["kinds"], f"{doc.family}: failure kinds {kinds}, built {want['kinds']}")


def wide_op(pkg, tr, doc):
    t = build(pkg, tr, doc)
    w, h = t.outer_w, t.outer_h
    verdict = tr.call("dehn.decide", pkg.dehn.decide, w, h)
    expect(not verdict.tilable, f"{doc.family}: decided tilable")
    ok = tr.call("dehn.verify_certificate", pkg.dehn.verify_certificate, w, h, verdict.certificate)
    expect(ok, f"{doc.family}: certificate did not verify")
    if doc.family == "columns":
        report = tr.call("tiling.validate", pkg.tiling.validate, t)
        tr.count("tiling.failures", len(report.failures))
        expect(report.is_valid, f"columns: {report}")
        b = tr.call("basis.extract", pkg.basis.extract_basis, t.side_lengths())
        tr.count("basis.rank", b.rank)
        expect(b.rank == doc.expect["rank"], f"columns: rank {b.rank}, built {doc.expect['rank']}")
        y_area = pkg.hamel.y_area
        for y in WIDE_YS:
            outer = tr.call("hamel.y_area", y_area, w, h, b, y)
            total = sum(tr.call("hamel.y_area", y_area, p.w, p.h, b, y) for p in t.tiles)
            tr.count("hamel.y_area_calls", 1 + len(t.tiles))
            expect(outer == y and total == y, f"columns: y-areas {outer}, {total} at y = {y}")
    ref = tr.call("dehn.refute", pkg.dehn.refute_square_tiling, t)
    want = doc.expect["refutation"]
    expect(ref.kind.value == want, f"{doc.family}: refutation {ref.kind.value}, built {want}")
    if want == "tile_not_square":
        expect(ref.witness["tile"] == 0, f"columns: first non-square tile {ref.witness['tile']}")


def library_op(pkg, tr, doc):
    """Validation-only for the grid families, certification for the wide ones."""
    op = wide_op if doc.family in WIDE_FAMILIES else grid_op
    op(pkg, tr, doc)


def matches(want, got) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and matches(v, got[k]) for k, v in want.items())
    return want == got


def check_cli(tr, op, code, stdout):
    if code == 3:
        tr.count("exactnum.ambiguous")
    expect(code == op.exit, f"{op.command}: exit {code}, built {op.exit}")
    payload = json.loads(stdout)
    expect(payload.get("command") == op.command and payload.get("exit_code") == code,
           f"{op.command}: report header {payload.get('command')}, {payload.get('exit_code')}")
    expect(matches(op.payload, payload), f"{op.command}: payload does not match {op.payload}")
    if op.rects:
        rects = payload["svg"].count("<rect")
        expect(rects == op.rects, f"render: {rects} rects, built {op.rects}")


class CliRunner:
    """Runs ``python -m sqtile.cli`` per op; the child sees only argv and stdin."""

    def __init__(self, env):
        self.env = env

    def __call__(self, pkg, tr, op):
        proc = subprocess.run(
            [sys.executable, "-m", "sqtile.cli", *op.argv],
            input=op.stdin or b"", capture_output=True, env=self.env, timeout=SUBPROCESS_TIMEOUT_S,
        )
        check_cli(tr, op, proc.returncode, proc.stdout)


def run_command_in_process(cli, argv, stdin):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run_command(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli_replay(pkg, tr, op):
    """The traced run's in-process view of a cli op: the same argv through
    ``run_command``, plus the render and construct calls behind it."""
    code, stdout = tr.call("cli.run_command", run_command_in_process, pkg.cli, op.argv, op.stdin)
    check_cli(tr, op, code, stdout)
    if op.doc is not None:
        count_doc(tr, op.doc)
    if op.command == "render":
        parsed = tr.call("cli.parse_document", pkg.cli.parse_document, op.doc.data)
        svg = tr.call("cli.render_svg", pkg.cli.render_svg, parsed)
        expect(svg.count("<rect") == op.rects, "render: in-process rect count")
    elif op.command == "construct":
        t = tr.call("construct.euclid", pkg.construct.euclid_tiling, 1, op.ratio)
        tr.count("construct.squares", len(t.tiles))
        expect(len(t.tiles) == op.payload["squares"], "construct: in-process square count")


def attempt(run, pkg, tr, item, errors):
    """Run one op; any exception or mismatch is a failed op, never a crash."""
    try:
        run(pkg, tr, item)
        return True
    except Exception as exc:  # a failed op is data for the report
        if len(errors) < 10:
            errors.append(f"{type(exc).__name__}: {exc}"[:300])
        return False


def reference_ns():
    """Time one fixed task of pure Python, made of the kinds of work the
    ops do: exact rational arithmetic, dict and list building.  It never
    calls the package."""
    t0 = time.perf_counter_ns()
    acc, table = Fraction(0), {}
    for k in range(REFERENCE_STEPS):
        acc += REFERENCE_FRACTIONS[k % 64] * REFERENCE_FRACTIONS[k * 7 % 64]
        if acc > 1000:
            acc -= 1000
        table[k, k % 13] = [acc.numerator % 97, k]
    rows = [[[] for _ in range(100)] for _ in range(REFERENCE_ROWS)]
    del rows, table
    return time.perf_counter_ns() - t0


def untraced_loop(run, pkg, items, seconds, errors):
    """Closed loop over ``items`` for ``seconds``.

    Returns (item index, op ns, reference ns) per op, where the reference
    is the mean of the reference task timed just before and just after
    the op.
    """
    tr = tracing.NullTracer()
    samples, failed = [], 0
    deadline = time.perf_counter() + seconds
    before = reference_ns()
    i = 0
    while True:
        t0 = time.perf_counter_ns()
        ok = attempt(run, pkg, tr, items[i % len(items)], errors)
        op_ns = time.perf_counter_ns() - t0
        after = reference_ns()
        samples.append((i % len(items), op_ns, (before + after) / 2))
        before = after
        failed += not ok
        i += 1
        if time.perf_counter() >= deadline:
            break
    return samples, failed


def traced_loop(run, replay, pkg, items, seconds, errors):
    """Rounds of one untraced and one traced pass over ``items`` until
    ``seconds`` have passed; the order flips every round, so drift and
    warm-up hit both sides alike.

    Counts are kept per traced pass; every pass must repeat the first exactly.
    """
    tr, null = tracing.Tracer(), tracing.NullTracer()
    untraced, passes = [], []
    failed = 0

    def untraced_pass():
        nonlocal failed
        for idx, item in enumerate(items):
            t0 = time.perf_counter_ns()
            failed += not attempt(run, pkg, null, item, errors)
            untraced.append((idx, time.perf_counter_ns() - t0))

    def traced_pass():
        nonlocal failed
        tr.counts = Counter()
        restore = tracing.install_counters(pkg.exactnum, pkg.errors, tr)
        try:
            for idx, item in enumerate(items):
                tr.op = len(passes) * len(items) + idx
                tr.begin("op")
                try:
                    ok = attempt(run, pkg, tr, item, errors)
                finally:
                    tr.end()
                if ok and replay is not None:
                    ok = attempt(replay, pkg, tr, item, errors)
                failed += not ok
        finally:
            restore()
        passes.append(tr.counts)

    deadline = time.perf_counter() + seconds
    while True:
        first, second = (untraced_pass, traced_pass) if len(passes) % 2 == 0 else (traced_pass, untraced_pass)
        first()
        second()
        if time.perf_counter() >= deadline:
            return tr, passes, untraced, failed


def measure_import_ms(env):
    """Median wall time of ``import sqtile`` in a fresh interpreter minus a bare one."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        for code, out in (("pass", bare), ("import sqtile", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=SUBPROCESS_TIMEOUT_S)
            out.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000


def percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def e2e_metrics(samples, rss_kb):
    """Op latency as a multiple of the reference task's time (``ref``),
    each op against the reference timed around it.

    On a shared host a vCPU's speed can swing by a quarter and more over
    tens of seconds; op and reference swing together, so the ratio stays put while a change
    to the package moves it in full.  The same figures in milliseconds are
    returned as context.
    """
    ref = [op / r for _, op, r in samples]
    ms = [op / 1e6 for _, op, _ in samples]
    p90 = percentile_90(ref)
    metrics = {
        "latency_mean_ref": statistics.fmean(ref),
        "latency_p50_ref": statistics.median(ref),
        "latency_p90_ref": p90,
        "peak_rss_mb": rss_kb / 1024,
    }
    context = {
        "samples": len(ref),
        "beyond_p90": sum(v > p90 for v in ref),
        "ops_per_s": 1000 * len(ms) / sum(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile_90(ms),
        "reference_ms": statistics.median(r for _, _, r in samples) / 1e6,
    }
    return metrics, context


def layer_metrics(tr, passes, items, untraced):
    busy = tr.busy_by_op()
    op_ns = sum(end - start for name, start, end, _, _ in tr.spans if name == "op")
    out = {}
    for name in LAYERS:
        per_op = busy.get(name, {})
        out[f"{name}_ms"] = statistics.median(per_op.values()) / 1e6 if per_op else 0.0
        out[f"{name}_pct"] = 100 * sum(per_op.values()) / op_ns
    for name in COUNTS:
        out[name] = passes[0].get(name, 0)
    out["exactnum.max_coeff_digits"] = max(item.max_digits for item in items)
    # overhead: traced op time against untraced op time, paired by item
    traced_by_item, untraced_by_item = {}, {}
    for (name, start, end, _, op) in tr.spans:
        if name == "op":
            traced_by_item.setdefault(op % len(items), []).append(end - start)
    for idx, ns in untraced:
        untraced_by_item.setdefault(idx, []).append(ns)
    ratios = [
        statistics.mean(traced_by_item[i]) / statistics.mean(untraced_by_item[i])
        for i in traced_by_item
        if i in untraced_by_item
    ]
    out["trace.overhead_pct"] = 100 * (statistics.median(ratios) - 1) if ratios else 0.0
    return out


def machine_info():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True, help="checkout root holding src/sqtile")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="where the traced run writes its spans")
    args = ap.parse_args()

    root = Path(args.root)
    pkg = load_package(root)
    items = workloads.PLANS[args.workload](args.seed)
    env = dict(os.environ)
    # warm-up runs the largest input of each family once, so the heap has
    # grown to its working size before the first timed op
    if args.workload == "cli":
        run, replay, warm = CliRunner(env), cli_replay, items[:1]
    else:
        run, replay = library_op, None
        families = dict.fromkeys(d.family for d in items)
        warm = [max((d for d in items if d.family == f), key=lambda d: d.tiles) for f in families]
    errors = []
    warm_failed = sum(not attempt(run, pkg, tracing.NullTracer(), item, errors) for item in warm)
    print("READY", flush=True)
    if args.setup_only:
        return

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_info()}
    if args.trace == 0:
        samples, failed = untraced_loop(run, pkg, items, args.seconds, errors)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics, context = e2e_metrics(samples, resource.getrusage(who).ru_maxrss)
        result.update(attempted=len(samples), failed=failed, metrics=metrics, samples_ns=samples, **context)
    else:
        tr, passes, untraced, failed = traced_loop(run, replay, pkg, items, args.seconds, errors)
        metrics = layer_metrics(tr, passes, items, untraced)
        metrics["cli.import_ms"] = measure_import_ms(env) if args.workload == "cli" else 0.0
        repeat = all(p == passes[0] for p in passes)
        if not repeat:
            errors.append("per-pass counts differ between passes of the same inputs")
        result.update(
            attempted=len(untraced) + len(passes) * len(items),
            failed=failed,
            metrics=metrics,
            passes=len(passes),
            counts_repeat=repeat,
        )
        if args.spans_out:
            tr.write(args.spans_out, {k: result[k] for k in ("workload", "seed", "machine")})
    result["failed"] += warm_failed
    result["attempted"] += len(warm)
    result["errors"] = errors
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
