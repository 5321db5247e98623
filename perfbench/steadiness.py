#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--workloads W,W] [--runs N]
                                    [--first-seed S] [--seconds S] [--sets K]

Runs each workload N times (default 10), each with the next seed, K sets
in a row (default 1), through perfbench/run.py from the root of a
checkout. For every end-to-end metric it prints the median, the first and
third quartile (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, beside the bound
BENCHMARK.json gives the metric. With K = 2 it also prints how far the
second set's median moved from the first's in the metric's worse
direction. It reports the share of failed operations per set. The bounds
in BENCHMARK.json were chosen from this output: every spread except
setup_s's should stay below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        medians = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                results.append(run_once(workload, seed, args.seconds))
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"{workload} set {k + 1}: {args.runs} runs, correct "
                  f"{correct}, failed {failed}/{attempted}")
            set_medians = {}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = summarize(values)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = ("ok" if name == "setup_s" or spread < m["bound"] / 3
                           else "WIDE")
                print(f"  {name:12s} median {med:12.6g} {m['unit']:5s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                      f"bound {m['bound']:.0%} {verdict}")
                set_medians[name] = med
            medians.append(set_medians)
        for k in range(1, len(medians)):
            for name, m in metrics.items():
                first, later = medians[0][name], medians[k][name]
                worse = ((later - first) / first if m["better"] == "lower"
                         else (first - later) / first)
                verdict = "ok" if worse <= m["bound"] else "REGRESSED"
                print(f"  set {k + 1} vs 1: {name:12s} worse by {worse:7.2%}"
                      f" (bound {m['bound']:.0%}) {verdict}")


if __name__ == "__main__":
    main()
