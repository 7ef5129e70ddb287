"""sqtile benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload library|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each run starts fresh worker interpreters (``worker.py``): with
``--trace 0`` it sets up several times and reports the median set-up
time, then measures the end-to-end metrics with nothing installed in the
package.  Latencies are given in ``ref``: multiples of the time a fixed
pure-Python reference task takes when timed around the same op (see
``worker.e2e_metrics``); the same figures in wall time are printed in the
workload's row.  With ``--trace 1`` it reports the per-layer metrics from spans
and counters instead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (machine, errors, layer map, spans) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 5
SETUP_TIMEOUT_S = 60
RUN_SLACK_S = 100


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(cmd, env, root, timeout):
    """Start a worker; return (process, timer, set-up seconds until READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != b"READY":
        finish(proc, timer)
        die(f"worker failed during set-up (exit {proc.returncode})")
    return proc, timer, setup_s


def finish(proc, timer):
    """Wait for the worker to end, killing it on the timer; return its stdout."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def report_row(workload, seed, trace, result, setup_s):
    """The per-workload row; a failed op or an ambiguous comparison is a FAIL."""
    m = result["metrics"]
    ok = result["failed"] == 0 and not result["errors"]
    rate = result["failed"] / result["attempted"]
    if trace == 0:
        row = (
            f"{workload} seed={seed}: ops={result['attempted']} failed={result['failed']} "
            f"error_rate={rate:.4f} latency_mean_ref={m['latency_mean_ref']:.3f} "
            f"latency_p50_ref={m['latency_p50_ref']:.3f} latency_p90_ref={m['latency_p90_ref']:.3f} ref "
            f"(n={result['samples']}, {result['beyond_p90']} beyond p90; 1 ref = {result['reference_ms']:.2f} ms) "
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB setup_s={setup_s:.3f} s | in wall time: "
            f"ops_per_s={result['ops_per_s']:.3f} 1/s latency_p50_ms={result['latency_p50_ms']:.2f} ms "
            f"latency_p90_ms={result['latency_p90_ms']:.2f} ms"
        )
    else:
        ok = ok and m["exactnum.ambiguous"] == 0 and result["counts_repeat"]
        row = (
            f"{workload} seed={seed} traced: ops={result['attempted']} failed={result['failed']} "
            f"error_rate={rate:.4f} ambiguous={m['exactnum.ambiguous']} passes={result['passes']} "
            f"counts_repeat={result['counts_repeat']} trace.overhead_pct={m['trace.overhead_pct']:.1f} %"
        )
    print(row + ("  [OK]" if ok else "  [FAIL]"))
    for err in result["errors"]:
        print(f"  FAIL: {err}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sqtile" / "__init__.py").is_file():
        die(f"no package source at {root / 'src' / 'sqtile'}; run from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans-out", str(out_dir / f"spans-{tag}.json"),
    ]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_ROUNDS - 1):
            proc, timer, setup_s = start_worker(cmd + ["--setup-only"], env, root, SETUP_TIMEOUT_S)
            finish(proc, timer)
            if proc.returncode != 0:
                die(f"set-up worker exited {proc.returncode}")
            setups.append(setup_s)
    proc, timer, setup_s = start_worker(cmd, env, root, SETUP_TIMEOUT_S + args.seconds + RUN_SLACK_S)
    setups.append(setup_s)
    out = finish(proc, timer)
    if proc.returncode != 0:
        die(f"worker exited {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)

    names = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        die(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in names}

    print(f"machine: {json.dumps(result['machine'])}")
    correct = report_row(args.workload, args.seed, args.trace, result, result["metrics"]["setup_s"])
    details = {**result, "setup_rounds_s": setups, "layers": json.loads((HERE / "layers.json").read_text())}
    (out_dir / f"{tag}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
