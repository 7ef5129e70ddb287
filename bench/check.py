"""Whole-benchmark checks, run from the root of a checkout.

    python3 bench/check.py report [--seed N] [--workloads library,cli]
    python3 bench/check.py repeat [--seed N] [--workloads library,cli]
    python3 bench/check.py spread [--seeds 10] [--workloads library,cli]

``report`` runs every workload once, untraced, and prints every
end-to-end metric with its unit, plus the error rate.  ``repeat`` runs every workload twice with the same seed, untraced and
traced.  The exact per-layer counts must repeat exactly, and each
end-to-end metric of the second run must lie within the metric's bound
of the first.  ``spread`` runs every workload once per seed and reports,
for each end-to-end metric, the distance between the first and third
quartile as a share of the median, against the metric's bound.  Both exit
1 when a check fails or a run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["error_rate"] = result["failed"] / result["attempted"]
    return values


def report(spec, workloads, seed):
    for w in workloads:
        values = run(spec, w, seed, 0)
        cells = [f"{m['name']}={values[m['name']]:.4f} {m['unit']}" for m in spec["end_to_end"]]
        print(f"{w:5} " + "  ".join(cells) + f"  error_rate={values['error_rate']:.4f} (share of ops)")
    return True


def repeat(spec, workloads, seed):
    ok = True
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for w in workloads:
        a, b = run(spec, w, seed, 0), run(spec, w, seed, 0)
        for m in spec["end_to_end"]:
            off = abs(b[m["name"]] - a[m["name"]]) / a[m["name"]]
            good = off <= m["bound"]
            ok &= good
            print(f"{w:5} {m['name']:16} {a[m['name']]:12.4f} {b[m['name']]:12.4f} "
                  f"differ {off:6.1%} (bound {m['bound']:.0%}) {'ok' if good else 'FAIL'}")
        ta, tb = run(spec, w, seed, 1), run(spec, w, seed, 1)
        differ = [n for n in counts if ta[n] != tb[n]]
        ok &= not differ
        print(f"{w:5} {len(counts)} exact counts {'repeat exactly' if not differ else f'DIFFER: {differ}'}")
    return ok


def spread(spec, workloads, seeds):
    ok = True
    rows = {}
    for w in workloads:
        values = [run(spec, w, s, 0) for s in seeds]
        for m in spec["end_to_end"]:
            v = [x[m["name"]] for x in values]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            checked = m["name"] != "setup_s"
            good = share <= m["bound"] or not checked
            ok &= good
            verdict = "under a third" if share < m["bound"] / 3 else ("within" if good else "OVER")
            print(f"{w:5} {m['name']:16} median {med:12.4f} {m['unit']:4} IQR/median {share:6.1%} "
                  f"(bound {m['bound']:.0%}) {verdict if checked else 'not checked'}")
            rows[f"{w}.{m['name']}"] = {"values": v, "median": med, "iqr_share": share}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(rows, indent=1))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("check", choices=("report", "repeat", "spread"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    if args.check == "report":
        ok = report(spec, workloads, args.seed)
    elif args.check == "repeat":
        ok = repeat(spec, workloads, args.seed)
    else:
        ok = spread(spec, workloads, range(1, args.seeds + 1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
