#!/usr/bin/env python3
"""CI performance gate for the simulator hot path.

Runs bench_hotpath, compares every scenario's cycles/sec against the
committed baseline (bench/BENCH_hotpath.json) and fails only on a
regression beyond that scenario's tolerance (SCENARIO_TOLERANCE;
--max-regress for scenarios not listed there). Tolerances are wide
because shared CI runners are noisy: the gate catches a reintroduced
exhaustive scan, not small drifts. Improvements and new scenarios
never fail.

Usage:
  scripts/perf_gate.py [--bench build/bench/bench_hotpath]
                       [--baseline bench/BENCH_hotpath.json]
                       [--max-regress 0.30] [--min-seconds 1]
                       [--json current.json]   # compare a saved run
                       [--out refreshed.json]  # also save this run

Exit codes: 0 ok, 1 regression, 2 usage/environment error.
"""

import argparse
import json
import subprocess
import sys

# Per-scenario regression tolerance (fraction below baseline that
# still passes). Saturated scenarios need the most headroom: even
# with bench_hotpath's best-of-3 medians their passes vary up to
# ~1.9x run-to-run on shared runners (results/hotpath_pr8.md), while
# idle/low-load rows are far steadier. Scenarios not listed here use
# --max-regress.
SCENARIO_TOLERANCE = {
    "idle_16x16": 0.30,
    "low_load_16x16": 0.35,
    "saturated_16x16": 0.50,
    "saturated_32x32": 0.50,
    "saturated_8ary3cube": 0.50,
}


def load_scenarios(doc):
    """Map scenario name -> cycles_per_sec from a bench JSON doc."""
    try:
        return {
            s["name"]: float(s["cycles_per_sec"])
            for s in doc["scenarios"]
        }
    except (KeyError, TypeError) as exc:
        sys.exit(f"perf_gate: malformed bench JSON: {exc}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="build/bench/bench_hotpath",
                    help="bench_hotpath binary to run")
    ap.add_argument("--baseline",
                    default="bench/BENCH_hotpath.json",
                    help="committed baseline JSON")
    ap.add_argument("--max-regress", type=float, default=0.30,
                    help="fail when cycles/sec drops more than this "
                         "fraction below baseline")
    ap.add_argument("--min-seconds", type=float, default=1.0,
                    help="per-scenario measurement time")
    ap.add_argument("--json", default=None,
                    help="compare this saved bench JSON instead of "
                         "running the binary")
    ap.add_argument("--out", default=None,
                    help="write the current run's JSON here (for "
                         "refreshing the baseline)")
    args = ap.parse_args()

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = load_scenarios(json.load(f))
    except OSError as exc:
        sys.exit(f"perf_gate: cannot read baseline: {exc}")

    if args.json:
        try:
            with open(args.json, encoding="utf-8") as f:
                raw = f.read()
        except OSError as exc:
            sys.exit(f"perf_gate: cannot read {args.json}: {exc}")
    else:
        cmd = [args.bench, "--min-seconds", str(args.min_seconds)]
        try:
            raw = subprocess.run(
                cmd, check=True, capture_output=True,
                text=True).stdout
        except FileNotFoundError:
            sys.exit(f"perf_gate: bench binary not found: "
                     f"{args.bench}")
        except subprocess.CalledProcessError as exc:
            sys.exit(f"perf_gate: bench run failed "
                     f"(rc={exc.returncode}):\n{exc.stderr}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(raw)

    current = load_scenarios(json.loads(raw))

    failures = []
    width = max(len(n) for n in current)
    for name, cps in current.items():
        ref = baseline.get(name)
        if ref is None:
            print(f"{name:<{width}}  {cps:12.0f} cyc/s  "
                  f"(new scenario, no baseline)")
            continue
        tol = SCENARIO_TOLERANCE.get(name, args.max_regress)
        ratio = cps / ref if ref > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tol:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"{name:<{width}}  {cps:12.0f} cyc/s  vs "
              f"{ref:12.0f}  ({ratio:5.2f}x, tol {tol:.0%})  "
              f"{verdict}")
    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"{name:<{width}}  baseline scenario missing from "
              f"current run", file=sys.stderr)

    if failures:
        print(f"perf_gate: {len(failures)} scenario(s) regressed "
              f"beyond tolerance: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    if missing:
        print("perf_gate: treating missing scenarios as failure",
              file=sys.stderr)
        return 1
    print("perf_gate: all scenarios within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
