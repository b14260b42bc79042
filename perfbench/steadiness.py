#!/usr/bin/env python3
"""Run each workload k times and report how steady its metrics are.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads dense-fp32-open
    python3 perfbench/steadiness.py --runs 10 --save a.json
    python3 perfbench/steadiness.py --runs 10 --compare a.json

Run from the repository root. Each run uses another seed (seed-base, +1,
...), rounds go round-robin over the workloads, and every run is a fresh
process of perfbench/run.py with --trace 0. For each end-to-end metric in
BENCHMARK.json the script prints the median, the first and third quartile
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
metric's bound. A spread is "steady" below a third of the bound and "WIDE"
above the bound (setup_s is exempt from the spread test). The plan counts
that must repeat exactly (exec.ops, exec.convs_*, exec.plan_cache_entries)
are checked across all runs of a workload. With --compare, each median is
also checked against a saved set: it may not be worse than the saved
median by more than the bound. Exits non-zero when any check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}, "
                           "no result line") from None
    counts = {}
    spin = ""
    for line in lines:
        if line.startswith("plan counts:"):
            counts = dict(re.findall(r"(\S+)=(\S+)", line))
        elif line.startswith("host: spin"):
            spin = line.split()[2]
    return result, counts, spin


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", help="write medians and raw values here")
    parser.add_argument("--compare", help="a file written by --save")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in args.workloads}
    counts = {w: [] for w in args.workloads}
    ok = True
    for r in range(args.runs):
        for w in args.workloads:
            seed = args.seed_base + r
            result, plan_counts, spin = run_once(w, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            counts[w].append(plan_counts)
            shown = "  ".join(f"{m}={values[w][m][-1]:.4g}" for m in bounds)
            print(f"[{r + 1}/{args.runs}] {w} seed {seed}: {shown}  "
                  f"(host spin {spin} ms)", flush=True)

    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["summary"]

    summary = {}
    print()
    print(f"{'workload':20} {'metric':16} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for w in args.workloads:
        summary[w] = {}
        for m, bound in bounds.items():
            s = summarize(values[w][m])
            summary[w][m] = s
            if m == "setup_s":
                verdict = "exempt"
            elif s["spread"] < bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "WIDE"
                ok = False
            if w in previous and m in previous[w]:
                before = previous[w][m]["median"]
                better = next(e["better"] for e in spec["end_to_end"]
                              if e["name"] == m)
                worse = (s["median"] - before) / before
                if better == "higher":
                    worse = -worse
                verdict += f"; vs saved {worse:+.1%}"
                if worse > bound:
                    verdict += " WORSE"
                    ok = False
            print(f"{w:20} {m:16} {s['median']:11.4f} {s['q1']:11.4f} "
                  f"{s['q3']:11.4f} {s['spread']:7.2%} {bound:6.2f}  "
                  f"{verdict}")
        distinct = {json.dumps(c, sort_keys=True) for c in counts[w]}
        same = len(distinct) == 1
        ok = ok and same
        print(f"{w:20} plan counts {'identical' if same else 'DIFFER'} "
              f"across {len(counts[w])} runs: {', '.join(sorted(distinct))}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"summary": summary, "values": values,
                       "counts": counts}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
