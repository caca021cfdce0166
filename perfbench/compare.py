#!/usr/bin/env python3
"""Compares two checkouts with the benchmark, alternating their runs.

    python3 perfbench/compare.py --base DIR --change DIR
                                 [--workloads W,W] [--seeds N]
                                 [--first-seed K] [--seconds S]

Each DIR is the root of a checkout that holds a BENCHMARK.json and the
benchmark it names. For every workload and seed, the two checkouts run
back to back with the same seed, in the order base, change on even seeds
and change, base on odd ones. A drift of the host's speed then lands on
both sides alike. For each end-to-end metric of the change's
BENCHMARK.json, the verdict uses the median over seeds of the paired ratio
change / base. The change is worse when that median is worse than the
metric's bound, and the tool then exits 1. Each row also gives the pairs
the change won and the base's own spread (interquartile range over
median); a gain is claimed only when the change wins nearly every pair and
the medians differ by more than that spread. A run that fails its gates
also makes it exit 1. Passing the same DIR twice is an A/A test: it shows
what two sets of runs of the same code give on this host.

Use this, not two sets of runs taken at different times, to compare
commits: see "Noise" in perfbench/WORKLOADS.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_RUN_TIMEOUT_S = 900  # Builds the checkout's benchmark.
RUN_TIMEOUT_S = 180


def load_benchmark(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"compare: {path} not found")
    return json.loads(path.read_text())


def run(root, bench, workload, seed, seconds, first):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
            timeout=FIRST_RUN_TIMEOUT_S if first else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, ratio):
    """Share by which the change is worse than the base (negative: better)."""
    return ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads",
                        help="comma-separated (default: all shared ones)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.seeds < 1:
        sys.exit("compare: --seeds must be at least 1")

    base_root = args.base.resolve()
    change_root = args.change.resolve()
    base_bench = load_benchmark(base_root)
    change_bench = load_benchmark(change_root)
    seconds = args.seconds or change_bench["run_seconds"]
    shared = [w["name"] for w in change_bench["workloads"]
              if w["name"] in {b["name"] for b in base_bench["workloads"]}]
    workloads = args.workloads.split(",") if args.workloads else shared
    unknown = sorted(set(workloads) - set(shared))
    if unknown:
        sys.exit(f"compare: workloads not in both checkouts: {unknown}")

    sides = {"base": (base_root, base_bench), "change": (change_root,
                                                         change_bench)}
    first = {"base": True, "change": True}
    failures = 0
    report = []
    for workload in workloads:
        values = {"base": [], "change": []}
        for i in range(args.seeds):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {}
            for side in order:
                root, bench = sides[side]
                got[side] = run(root, bench, workload, seed, seconds,
                                first[side])
                first[side] = False
            if got["base"] is None or got["change"] is None:
                bad = [s for s in order if got[s] is None]
                print(f"{workload} seed={seed}: FAIL ({', '.join(bad)} "
                      f"run failed its gates or timed out)")
                failures += 1
                continue
            for side in order:
                values[side].append(got[side])
        for metric in change_bench["end_to_end"]:
            name = metric["name"]
            pairs = [(b[name], c[name])
                     for b, c in zip(values["base"], values["change"])
                     if name in b and b[name] > 0]
            if not pairs:
                continue
            ratio = statistics.median(c / b for b, c in pairs)
            worse = worse_by(metric, ratio)
            wins = sum(worse_by(metric, c / b) < 0 for b, c in pairs)
            base = [b for b, _ in pairs]
            spread = 0.0
            if len(base) > 1:
                q = statistics.quantiles(base, n=4)
                spread = (q[2] - q[0]) / statistics.median(base)
            verdict = "worse" if worse > metric["bound"] else "ok"
            failures += verdict == "worse"
            row = {"workload": workload, "metric": name,
                   "base_median": statistics.median(base),
                   "change_median": statistics.median(c for _, c in pairs),
                   "median_ratio": ratio, "worse_by": worse,
                   "bound": metric["bound"], "pairs": len(pairs),
                   "change_wins": wins, "base_spread": spread,
                   "verdict": verdict}
            report.append(row)
            print(f"{workload} {name} [{metric['unit']}]: base "
                  f"{row['base_median']:.6g} change {row['change_median']:.6g}"
                  f" ratio {ratio:.4f} worse_by {worse:+.4f} bound "
                  f"{metric['bound']} change won {wins}/{len(pairs)} base "
                  f"spread {spread:.4f}: {verdict}")
    print(json.dumps({"failures": failures, "rows": report}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
