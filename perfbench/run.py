#!/usr/bin/env python3
"""Build and run the ResNet-18 serving benchmark.

    python3 perfbench/run.py --workload tucker-fp32-latency --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The first call builds the library from src/
and the benchmark binary (perfbench/tdc_perfbench.cpp) into
.bench_build/perfbench; later calls reuse that build. Each workload runs in
its own process.
`--workload all` runs every workload in turn, each in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones; the traced run also
writes a Chrome trace-event file under .bench_out/.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tdc_perfbench")
WORKLOADS = ["tucker-fp32-latency", "tucker-int8-fleet", "dense-fp32-open"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exec", "graph_plan.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time; a second caller waits and then finds it done.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_one(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # The benchmark fixes its own thread configuration; inherited TDC_*
    # knobs (threads, int8 mode, host calibration overrides) are dropped so
    # every run sees the library defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TDC_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()

    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        if code != 0 or last_json(out) is None:
            return code or 1
        return 0

    # Every workload in its own process; the summary line joins their
    # results, metric names prefixed by workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"=== {workload}")
        code, out = run_one(workload, args.seed, args.seconds, args.trace)
        result = last_json(out)
        sys.stdout.write("".join(out.splitlines(keepends=True)[:-1]))
        if code != 0 or result is None:
            worst = code or 1
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and bool(result["correct"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"requests: {workload}: attempted {result['attempted']}, "
              f"succeeded {result['attempted'] - result['failed']}, "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
