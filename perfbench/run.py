#!/usr/bin/env python3
"""Repo benchmark: builds the library and the workload binary, runs one
workload, gates its outputs and prints one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]

Run from the root of a checkout. The first run configures and builds a
Release tree under .bench_build/ (minutes); later runs reuse it. The last
line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, the
median over four processes that share the seconds; with --trace 1 they are
its per_layer metrics, from one process. A run whose outputs fail a gate prints
"correct": false with no metrics and exits 1. --all runs every workload on
the default seed and on a held-out seed, traced and untraced, prints every
end-to-end metric by name with its unit and exits non-zero if any gate
fails. The benchmark's own tests are perfbench/test_perfbench.py; to
compare two commits, use perfbench/compare.py. See perfbench/WORKLOADS.md.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "twl_perfbench"
PINS = BENCH_DIR / "pins.json"

DEFAULT_SEED = 20170618
HELD_OUT_SEED = 42
RUN_TIMEOUT_S = 170

# Per-layer rows that are disjoint self times per demand write; with the
# workload's "<workload>.unattributed_ns" residual they add up to
# bench.untraced_ns. Every other per-layer metric is an inclusive time, a
# count or a diagnostic.
LAYER_ROWS = [
    "trace.next_ns",
    "wl.write_ns",
    "device.apply_write_ns",
    "sim.self_ns",
    "recovery.journal_ns",
    "recovery.journal_batch_ns",
    "recovery.snapshot_ns",
    "service.route_ns",
    "service.stage_ns",
    "service.queue_ns",
    "service.shard_self_ns",
    "service.tenant_translate_ns",
    "service.engine_self_ns",
    "fleet.self_ns",
]

# Rows that are differences of two measured times (an inclusive call
# minus the calls inside it). Each may dip below 0 only by noise: at most
# SELF_TOLERANCE of the traced ns per write.
SELF_ROWS = [
    "sim.self_ns",
    "recovery.journal_ns",
    "recovery.journal_batch_ns",
    "service.shard_self_ns",
    "service.engine_self_ns",
    "fleet.self_ns",
]
SELF_TOLERANCE = 0.05
# The rows must explain the traced pass they were measured in: what they
# leave over (bench.traced_unattributed_ns) stays within this share of the
# traced ns per write, either way.
TRACED_TOLERANCE = 0.25

# Pinned outputs that only a traced run produces.
TRACED_ONLY_SUFFIX = ".physical_digest"

# An untraced run splits its seconds over this many processes with the same
# seed and reports the median of their end-to-end metrics (peak_rss_mb: the
# largest). Part of the host's speed sticks to a process for its life:
# service_rt's rate is bimodal across processes, even on one pinned CPU.
# Several processes sample that within one run.
PROCESSES = 4


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the Release tree; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "twl_perfbench", "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=log)
            except FileNotFoundError:
                fail(f"{cmd[0]} not found")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return BINARY


def provenance(seed, record):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": record.get("compiler"),
        "build_type": record.get("build_type"),
        "seed": seed,
        "commit": commit or "unknown (not a git checkout)",
    }


def cpu_times():
    """The host's summed CPU times from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_state(before, after):
    """The load average, and the share of CPU time the hypervisor took
    from this VM during the run (steal). A slow run with little steal means
    the host ran the VM's instructions slower, not less often."""
    state = {"loadavg_1m": os.getloadavg()[0]}
    if before and after and len(before) > 7:
        delta = [b - a for a, b in zip(before, after)]
        state["steal_frac"] = delta[7] / max(1, sum(delta))
    return state


def run_binary(binary, workload, seed, seconds, trace):
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans_dir / f"{workload}-{seed}.csv")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def run_untraced(binary, workload, seed, seconds):
    n = max(1, min(PROCESSES, seconds))
    records = [run_binary(binary, workload, seed, seconds // n, 0)
               for _ in range(n)]
    record = dict(records[0])
    record["attempted"] = sum(r["attempted"] for r in records)
    record["failed"] = sum(r["failed"] for r in records)
    record["metrics"] = {
        name: (max if name == "peak_rss_mb" else statistics.median)(
            [r["metrics"][name] for r in records])
        for name in records[0]["metrics"]}
    record["checks"] = {k: all(r["checks"].get(k, False) for r in records)
                        for k in records[0]["checks"]}
    record["checks"]["processes_agree"] = all(
        r["outputs"] == records[0]["outputs"] for r in records)
    record["process_metrics"] = [r["metrics"] for r in records]
    return record


def gate(bench, record, seed, trace):
    """Returns the list of failed gates (empty when the run is correct).
    A traced run's per-layer metrics that the workload never entered are
    filled in as 0."""
    problems = [f"check {k} failed"
                for k, ok in sorted(record["checks"].items()) if not ok]
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"] for m in bench[kind]}
    emitted = set(record["metrics"])
    if emitted - declared:
        problems.append(f"metrics not in BENCHMARK.json {kind}: "
                        f"{sorted(emitted - declared)}")
    if trace:
        for name in declared - emitted:
            record["metrics"][name] = 0.0
    elif declared - emitted:
        problems.append(f"missing end-to-end metrics {sorted(declared - emitted)}")
    for name, value in record["metrics"].items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
        elif not trace and value <= 0:
            problems.append(f"{name} is not positive")
    if trace and not emitted - declared:
        problems += rows_problems(record)
    if seed == DEFAULT_SEED:
        pins = json.loads(PINS.read_text()).get(record["workload"], {})
        for key, want in sorted(pins.items()):
            if not trace and key.endswith(TRACED_ONLY_SUFFIX):
                continue
            got = record["outputs"].get(key)
            if got != want:
                problems.append(f"output {key} is {got}, pinned {want}")
    if record["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def rows_problems(record):
    """The layer rows plus the workload's residual equal the untraced ns
    per write; that is bookkeeping. The checks that can fail on a real run:
    no self row is negative beyond noise, and the rows explain the traced
    pass they were measured in."""
    m = record["metrics"]
    problems = []
    rows = sum(m[r] for r in LAYER_ROWS)
    total = rows + m[record["workload"] + ".unattributed_ns"]
    untraced = m["bench.untraced_ns"]
    if abs(total - untraced) > 1e-6 * max(1.0, abs(untraced)):
        problems.append(f"layer rows sum to {total} ns, untraced is "
                        f"{untraced} ns")
    traced = m["bench.traced_ns"]
    for r in SELF_ROWS:
        if m[r] < -SELF_TOLERANCE * traced:
            problems.append(f"{r} is {m[r]:.3f} ns, below -{SELF_TOLERANCE} "
                            f"x traced {traced:.3f} ns")
    left = m["bench.traced_unattributed_ns"]
    if abs(left - (traced - rows)) > 1e-6 * max(1.0, abs(traced)):
        problems.append(f"traced residual {left} ns is not traced - rows "
                        f"{traced - rows} ns")
    elif abs(left) > TRACED_TOLERANCE * traced:
        problems.append(f"rows leave {left:.3f} ns of the traced "
                        f"{traced:.3f} ns unexplained (over "
                        f"{TRACED_TOLERANCE})")
    return problems


def run_one(bench, workload, seed, seconds, trace, binary):
    before = cpu_times()
    if trace:
        record = run_binary(binary, workload, seed, seconds, trace)
    else:
        record = run_untraced(binary, workload, seed, seconds)
    prov = provenance(seed, record)
    prov["host"] = host_state(before, cpu_times())
    problems = gate(bench, record, seed, trace)
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-{seed}-trace{trace}.json", "w") as f:
        json.dump({"provenance": prov, "record": record,
                   "problems": problems}, f, indent=1)
    return record, problems, prov


def result_line(bench, record, problems, trace):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    metrics = {} if problems else {
        name: {"value": record["metrics"][name], "unit": units[name]}
        for name in sorted(units)}
    return {"correct": not problems, "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def main_single(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (valid: {', '.join(names)})")
    binary = build()
    record, problems, prov = run_one(bench, args.workload, args.seed,
                                     args.seconds, args.trace, binary)
    print("perfbench: provenance " + json.dumps(prov, sort_keys=True))
    for p in problems:
        print(f"perfbench: FAIL {args.workload}: {p}", file=sys.stderr)
    print(json.dumps(result_line(bench, record, problems, args.trace)))
    return 1 if problems else 0


def main_all(args, bench):
    binary = build()
    seconds = args.seconds or bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                record, problems, prov = run_one(bench, name, seed, seconds,
                                                 trace, binary)
                status = "ok" if not problems else "FAIL"
                print(f"{name} seed={seed} trace={trace}: {status}")
                for p in problems:
                    print(f"  {p}")
                failures += bool(problems)
                if trace == 0 and not problems:
                    for metric in sorted(units):
                        print(f"  {metric} = {record['metrics'][metric]:.6g} "
                              f"{units[metric]}")
    print("perfbench: provenance " + json.dumps(prov, sort_keys=True))
    print(f"perfbench: {failures} failed run(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, default and held-out seed")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds is not None and args.seconds < 1:
        fail("--seconds must be at least 1")
    bench = load_benchmark()
    if args.all:
        return main_all(args, bench)
    if not args.workload:
        fail("--workload or --all is required")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return main_single(args, bench)


if __name__ == "__main__":
    sys.exit(main())
