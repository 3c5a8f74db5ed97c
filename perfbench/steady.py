#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads joint --seed-base 100
    python3 perfbench/steady.py --runs 10 --save set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

Runs each workload --runs times through perfbench/run.py, one seed per run
(seed-base, seed-base + 1, ...), and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json. A spread
below a third of the bound is "steady"; up to the bound is "noisy"; beyond
it "WIDE", and the command then exits 1. --propose prints
the bounds this set of runs supports: three times the spread, rounded up to
a multiple of 0.05 and at most 0.25. --compare checks that a second set's
medians are no worse than the first's by more than each bound, and that the
failed share of operations is identical.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(spec, workloads, runs, seed_base, seconds):
    results = {}
    for workload in workloads:
        rows = []
        for i in range(runs):
            seed = seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: run.py exited with "
                         f"{proc.returncode}")
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in row["metrics"].items()),
                flush=True)
        results[workload] = rows
    return results


def summarize(spec, results, propose):
    ok = True
    print(f"{'workload':<11} {'metric':<15} {'median':>13} {'Q1':>13} "
          f"{'Q3':>13} {'spread':>7} {'bound':>6}  verdict")
    for workload, rows in results.items():
        shares = {r["failed"] / r["attempted"] for r in rows}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "noisy"
            else:
                verdict = "WIDE"
                ok = False
            line = (f"{workload:<11} {name:<15} {median:>13.6g} {q1:>13.6g} "
                    f"{q3:>13.6g} {spread:>7.3f} {bound:>6.2f}  {verdict}")
            if propose:
                line += f"  proposed bound {min(0.25, math.ceil(spread * 3 / 0.05) * 0.05):.2f}"
            print(line)
    return ok


def compare(spec, first, second):
    ok = True
    for workload in first:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "REGRESSED"
            ok &= verdict == "ok"
            print(f"{workload:<11} {name:<15} {a:>13.6g} -> {b:>13.6g} "
                  f"worse by {worse:+.3f} (bound {bound:.2f})  {verdict}")
        share_a = {r["failed"] / r["attempted"] for r in first[workload]}
        share_b = {r["failed"] / r["attempted"] for r in second[workload]}
        if share_a != share_b:
            print(f"{workload}: failed share {share_a} vs {share_b}")
            ok = False
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw results to this file")
    parser.add_argument("--propose", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        return 0 if compare(spec, first, second) else 1

    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown or args.runs < 2:
        sys.exit(f"need --runs >= 2 and workloads from {WORKLOADS}")
    results = run_set(spec, workloads, args.runs, args.seed_base, args.seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    return 0 if summarize(spec, results, args.propose) else 1


if __name__ == "__main__":
    sys.exit(main())
