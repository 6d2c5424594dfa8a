#!/usr/bin/env python3
"""Fixed-work benchmark for wormnet: builds the driver, checks, times.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Workloads: paper_sat_512, sparse_4096, table2_quick (see README.md).

One invocation
  1. builds perfbench/ into .bench_build/perfbench (incremental);
  2. replays Table 2 at the args in the header of
     tests/golden/table2_quick.txt and byte-compares it with that file;
  3. runs the workload in fresh processes, each a fixed simulated-cycle
     budget, until --seconds is used up (with a minimum count);
  4. checks that every simulated counter repeats exactly across the
     processes, and that messages are conserved in each run;
  5. prints a host stamp line, then one JSON result line: with
     --trace 0 the end-to-end metrics of the untraced processes (host
     times from each segment's fastest process, see fastest()), with
     --trace 1 the per-layer metrics of the traced processes.

Exits non-zero without a result when the program cannot be built, or
when WORMNET_CHECK_ACTIVE_SETS or WORMNET_CHECK_SOA is set (those make
every cycle many times slower, so timing would be meaningless).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "wormnet-perfbench"
TABLE2 = BUILD / "table2_ndm_uniform"
GOLDEN = ROOT / "tests" / "golden" / "table2_quick.txt"

WORKLOADS = ("paper_sat_512", "sparse_4096", "table2_quick")
TABLE_CELLS = 48
PROCESS_TIMEOUT_S = 150
MAX_PROCESSES = 40

END_TO_END = {
    "cycles_per_s": "1/s",
    "flit_hops_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.construct_ms": "ms",
    "core.cell_ms_p50": "ms",
    "core.cell_ms_p90": "ms",
    "sim.chunk_ms_p50": "ms",
    "sim.chunk_ms_p90": "ms",
    "sim.va_ns_per_hop": "ns",
    "sim.sa_ns_per_hop": "ns",
    "sim.other_ns_per_hop": "ns",
    "sim.flit_hops_per_cycle": "1/cycle",
    "traffic.generated_msgs": "count",
    "traffic.accepted_flit_rate": "flits/cycle/node",
    "router.messages_stored": "count",
    "router.path_slab_links": "count",
    "oracle.call_us": "us",
    "oracle.true_deadlocked_msgs": "count",
    "detection.detected_msgs": "count",
    "detection.false_detections": "count",
    "detection.precision": "ratio",
    "recovery.recovered_deliveries": "count",
    "recovery.kills": "count",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build():
    """Configure (once) and build the driver and the table2 binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no wormnet sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "2"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def host_stamp(build_type, contract_level):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    contracts = {0: "off", 1: "cheap", 2: "full"}
    return {
        "nproc": os.cpu_count(),
        "host_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "build_type": build_type,
        "wormnet_contracts": contracts.get(contract_level, "unknown"),
    }


def golden_check(golden):
    """Replay Table 2 at the golden header's args; '' when identical."""
    try:
        content = Path(golden).read_bytes()
    except OSError as e:
        return f"cannot read golden {golden}: {e}"
    header, _, expected = content.partition(b"\n")
    tag = b"# args:"
    if not header.startswith(tag):
        return f"{golden} does not start with '# args:'"
    args = header[len(tag):].decode().split()
    cmd = [str(TABLE2), *args, "--jobs", "1", "--sim-jobs", "1"]
    try:
        got = subprocess.run(cmd, capture_output=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "golden replay timed out"
    if got.returncode != 0:
        return f"golden replay exited {got.returncode}"
    if got.stdout != expected:
        return "Table 2 output differs from tests/golden/table2_quick.txt"
    return ""


def run_driver(workload, seed, mode, scale, perturb):
    """One fixed-work process; returns (record, seconds) or (None, s)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scale", str(scale)]
    if perturb:
        cmd.append("--perturb")
    start = time.monotonic()
    try:
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}/{mode} timed out")
        return None, time.monotonic() - start
    elapsed = time.monotonic() - start
    if got.returncode != 0:
        log(f"{workload}/{mode} exited {got.returncode}: "
            f"{got.stderr.strip()[-500:]}")
        return None, elapsed
    try:
        return json.loads(got.stdout.strip().splitlines()[-1]), elapsed
    except (ValueError, IndexError):
        log(f"{workload}/{mode} printed no JSON")
        return None, elapsed


def expected_ops(workload, mode):
    if mode == "setup" or workload != "table2_quick":
        return 1
    return 2 * TABLE_CELLS if mode == "trace" else TABLE_CELLS


def plan(workload, trace):
    """(modes to run once first, repeating cycle, minimum cycles)."""
    # On table2_quick the untraced replay ('check') gives the full
    # counters of every cell, for comparison with the traced replay.
    check = ["check"] if workload == "table2_quick" else []
    if not trace:
        # Set-up processes alternate with timed ones, so a spell of
        # host interference cannot hit most of the set-up samples.
        return check, ["setup", "time"], 3
    return check, ["time", "trace"], 1 if check else 2


def run_processes(args):
    first, cycle, min_cycles = plan(args.workload, args.trace)
    scale = 10 if args.smoke else 1
    deadline = time.monotonic() + args.seconds
    queue = list(first)
    records = []  # (mode, record or None)
    durations = {}
    cycles_done = 0
    while len(records) < MAX_PROCESSES:
        if not queue:
            if cycles_done >= min_cycles:
                need = sum(statistics.mean(durations[m]) for m in cycle)
                if time.monotonic() + need > deadline:
                    break
            queue = list(cycle)
            cycles_done += 1
        mode = queue.pop(0)
        rec, secs = run_driver(args.workload, args.seed, mode, scale,
                               False)
        durations.setdefault(mode, []).append(secs)
        records.append((mode, rec))
    if args.perturb:
        # Re-run the last process with its counters corrupted.
        mode = records[-1][0]
        rec, _ = run_driver(args.workload, args.seed, mode, scale, True)
        records[-1] = (mode, rec)
    return records


def account(workload, records, golden_error):
    """Count operations and failures; every check is a failed op."""
    attempted, failed = 1, 0
    if golden_error:
        log(f"golden check failed: {golden_error}")
        failed += 1
    reference = {}  # (op id, field) -> fingerprint
    for mode, rec in records:
        if rec is None:
            n = expected_ops(workload, mode)
            attempted += n
            failed += n
            continue
        for op in rec["ops"]:
            attempted += 1
            problems = [op["error"]] if op["error"] else []
            for field in ("cell", "full"):
                if not op[field]:
                    continue
                ref = reference.setdefault((op["id"], field), op[field])
                if op[field] != ref:
                    problems.append(f"{field} counters differ from the "
                                    "first run of this seed")
            if problems:
                failed += 1
                log(f"{mode} {op['id']}: {'; '.join(problems)}")
    return attempted, failed


def median(values, default=0.0):
    return statistics.median(values) if values else default


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100,
                                method="inclusive")[q - 1]


def fastest(recs):
    """(wall, window) seconds, each segment timed by its fastest process.

    Every process of a run simulates the same seed, so segment i (the
    construction, a warm-up or window chunk, or a table cell) is the
    same simulated work in all of them; only host interference differs.
    On a shared host, other tenants slow a process by up to 1.5x for
    about a second at a time; the fastest copy of each segment filters
    that out where a median over whole processes does not.
    """
    best = [min(col) for col in zip(*(r["segments"] for r in recs))]
    return sum(best), sum(best[recs[0]["window_first"]:])


def cycles_per_s(recs):
    return recs[0]["cycles"] / fastest(recs)[1] if recs else 0.0


def end_to_end(records):
    timed = [r for m, r in records if m == "time" and r]
    check = next((r for m, r in records if m == "check" and r), None)
    values = {k: 0.0 for k in END_TO_END}
    # Each set-up process reports its median round; all of them build
    # the same simulations, so, as in fastest(), the fastest one counts.
    values["setup_s"] = min([r["setup_s"] for m, r in records
                             if m == "setup" and r], default=0.0)
    if timed:
        wall, window = fastest(timed)
        hops = timed[0].get("flit_hops",
                            check["flit_hops"] if check else 0)
        values.update(cycles_per_s=timed[0]["cycles"] / window,
                      flit_hops_per_s=hops / window, wall_s=wall,
                      peak_rss_mb=median([r["peak_rss_mb"]
                                          for r in timed]))
    return values


def per_layer(records):
    untraced = [r for m, r in records if m == "time" and r]
    traced = [r for m, r in records if m == "trace" and r]
    if not traced:
        return {k: 0.0 for k in PER_LAYER}
    pooled = {k: [] for k in ("construct_ms", "cell_ms", "chunk_ms",
                              "oracle_us")}
    per_hop = {"va": [], "sa": [], "other": []}
    for r in traced:
        lay = r["layers"]
        for k in pooled:
            pooled[k].extend(lay[k])
        hops = max(lay["window_hops"], 1)
        other_ns = lay["chunk_s"] * 1e9 - lay["va_ns"] - lay["sa_ns"]
        per_hop["va"].append(lay["va_ns"] / hops)
        per_hop["sa"].append(lay["sa_ns"] / hops)
        per_hop["other"].append(other_ns / hops)
    lay = traced[0]["layers"]  # simulated counts repeat exactly
    overhead = 0.0
    if untraced:
        overhead = 100.0 * (1.0 - cycles_per_s(traced) /
                            cycles_per_s(untraced))
    return {
        "core.construct_ms": median(pooled["construct_ms"]),
        "core.cell_ms_p50": median(pooled["cell_ms"]),
        "core.cell_ms_p90": percentile(pooled["cell_ms"], 90),
        "sim.chunk_ms_p50": median(pooled["chunk_ms"]),
        "sim.chunk_ms_p90": percentile(pooled["chunk_ms"], 90),
        "sim.va_ns_per_hop": median(per_hop["va"]),
        "sim.sa_ns_per_hop": median(per_hop["sa"]),
        "sim.other_ns_per_hop": median(per_hop["other"]),
        "sim.flit_hops_per_cycle":
            lay["window_hops"] / max(lay["window_cycles"], 1),
        "traffic.generated_msgs": lay["generated_msgs"],
        "traffic.accepted_flit_rate": lay["accepted_flit_rate"],
        "router.messages_stored": lay["messages_stored"],
        "router.path_slab_links": lay["path_slab_links"],
        "oracle.call_us": median(pooled["oracle_us"]),
        "oracle.true_deadlocked_msgs": lay["true_deadlocked_msgs"],
        "detection.detected_msgs": lay["detected_msgs"],
        "detection.false_detections": lay["false_detections"],
        # No verdicts means none were wrong.
        "detection.precision": (lay["true_detections"] /
                                lay["detected_msgs"]
                                if lay["detected_msgs"] else 1.0),
        "recovery.recovered_deliveries": lay["recovered_deliveries"],
        "recovery.kills": lay["kills"],
        "trace.overhead_pct": overhead,
    }


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # For the benchmark's own tests:
    p.add_argument("--smoke", action="store_true",
                   help="divide every cycle budget by 10")
    p.add_argument("--golden", default=str(GOLDEN),
                   help="golden file to compare Table 2 against")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt the last process's counters")
    return p.parse_args()


def main():
    args = parse_args()
    for var in ("WORMNET_CHECK_ACTIVE_SETS", "WORMNET_CHECK_SOA"):
        if var in os.environ:
            die(f"{var} is set; refusing to time a self-checking run")
    build()
    golden_error = golden_check(args.golden)
    records = run_processes(args)
    attempted, failed = account(args.workload, records, golden_error)

    first = next((r for _, r in records if r), {})
    print(json.dumps({"stamp": host_stamp(
        first.get("build_type", "unknown"),
        first.get("contract_level", -1))}))
    values = per_layer(records) if args.trace else end_to_end(records)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": units[k]}
               for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
