#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program and runs workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first run configures and builds the
adam2 libraries and the program in .bench_build/ (Release). A single workload
prints an environment banner, every metric with its unit, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

`--workload all` runs every workload untraced and traced and checks the
outputs across runs: the traced run reproduces the untraced one, and
paper_50k_t4 reproduces paper_50k_serial exactly (the ParallelEngine
determinism contract). It exits non-zero when any check fails.

small_1k_t4 runs here and in `all`, but BENCHMARK.json does not gate it:
its 4 ms four-thread rounds move with the host's scheduling noise by more
than any regression bound allows.

Workloads, metrics and reference numbers: perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

WORKLOADS = ["paper_50k_serial", "paper_50k_t4", "deploy_3k_churn", "small_1k_t4"]

# (name, unit) in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_s_p50", "s"),
    ("round_s_tail", "s"),
    ("node_rounds_per_s", "1/s"),
    ("rss_kb_per_node", "KB"),
    ("bytes_per_node_round", "B"),
    ("exchange_success_ratio", "ratio"),
]

PER_LAYER = [
    ("sim.round_s", "s"),
    ("sim.engine_self_s", "s"),
    ("sim.exchanges", "count"),
    ("sim.parallel_busy_share", "ratio"),
    ("sim.overlay.maintain_s", "s"),
    ("sim.overlay.pick_s", "s"),
    ("sim.overlay.pick_calls", "count"),
    ("sim.overlay.build_s", "s"),
    ("sim.overlay.churn_s", "s"),
    ("sim.overlay.known_values_s", "s"),
    ("core.agent.round_start_s", "s"),
    ("core.agent.request_s", "s"),
    ("core.agent.respond_s", "s"),
    ("core.agent.merge_s", "s"),
    ("core.agent.bootstrap_s", "s"),
    ("core.agent.construct_s", "s"),
    ("core.agent.active_instances_mean", "count"),
    ("wire.request_bytes_mean", "B"),
    ("wire.response_bytes_mean", "B"),
    ("core.evaluate_s", "s"),
    ("core.evaluate_erra", "fraction"),
    ("core.evaluate_errm", "fraction"),
    ("core.evaluate_peers", "count"),
    ("host.traffic.aggregation_bytes", "B"),
    ("host.traffic.overlay_bytes", "B"),
    ("host.traffic.bootstrap_bytes", "B"),
    ("host.traffic.failed_contacts", "count"),
    ("host.traffic.dropped_messages", "count"),
    ("mem.rss_construct_kb_per_node", "KB"),
    ("mem.rss_setup_kb_per_node", "KB"),
    ("mem.rss_growth_kb_per_node", "KB"),
    ("mem.sizeof_node_b", "B"),
    ("mem.sizeof_agent_b", "B"),
    ("trace.overhead_s", "s"),
]

# Outputs the seed alone determines; compared exactly across runs.
EXACT = ["errm", "erra", "bytes_per_node_round", "failed_exchange_ratio"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; False when that fails."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # Configured for another checkout.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def cache_bytes():
    """Distinct unified/data L2 and L3 caches from sysfs: {level: bytes}."""
    seen = {}
    for index in sorted(pathlib.Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level < 2 or kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        seen[(level, shared)] = int(size.rstrip("KMG")) * scale
    totals = {}
    for (level, _), size in seen.items():
        totals[level] = totals.get(level, 0) + size
    return totals


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.exists() else []:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def banner(result):
    caches = cache_bytes()
    mib = 1 << 20
    llc = sum(caches.get(level, 0) for level in (2, 3))
    working = result["peak_rss_kb"] * 1024
    print(f"# env: nproc={len(os.sched_getaffinity(0))} "
          f"L2={caches.get(2, 0) / mib:.0f}MiB L3={caches.get(3, 0) / mib:.0f}MiB "
          f"build={build_type()} threads={result['threads']}")
    if llc:
        print(f"# {result['workload']}: nodes={result['nodes']} working set (peak RSS) "
              f"{working / mib:.0f}MiB = {working / (4 * llc):.2f}x of 4x(L2+L3)")
    print(f"# {result['workload']}: seed={result['seed']} reps={result['reps']} "
          f"setups={result['setups']} rounds={result['rounds_timed']} "
          f"round_s_tail=p{result['tail_percentile']}")


def run_workload(workload, seed, seconds, trace):
    """Runs the program once; returns its JSON result, or None on failure."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(exist_ok=True)
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {workload} failed with code {done.returncode}")
        return None
    result = json.loads(lines[-1])
    for problem in result["problems"]:
        log(f"perfbench: {workload}: {problem}")
    return result


def report(result, table):
    """Prints the metrics with their units; returns the contract's metrics."""
    banner(result)
    metrics = {}
    for name, unit in table:
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{result['workload']:<18} {name:<34} {value:>16.6g} {unit}")
    return metrics


def run_all(seed, seconds):
    """Every workload untraced and traced, with the cross-run output checks."""
    problems, attempted, failed, metrics = [], 0, 0, {}
    outcomes = {}
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            result = run_workload(workload, seed, seconds, trace)
            if result is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            problems += [f"{workload}: {p}" for p in result["problems"]]
            for name, entry in report(result, table).items():
                metrics[f"{workload}.{name}"] = entry
            outcomes[(workload, trace)] = result["outcome"]
        pair = [outcomes.get((workload, t)) for t in (0, 1)]
        if None not in pair and pair[0] != pair[1]:
            problems.append(f"{workload}: traced and untraced outputs differ: {pair}")
    serial = outcomes.get(("paper_50k_serial", 0))
    parallel = outcomes.get(("paper_50k_t4", 0))
    if serial is None or parallel is None or any(serial[k] != parallel[k] for k in EXACT):
        problems.append(f"paper_50k_t4 does not reproduce paper_50k_serial: "
                        f"{parallel} vs {serial}")
    for problem in problems:
        log(f"perfbench: FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        log("perfbench: build failed")
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    metrics = report(result, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
