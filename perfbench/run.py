#!/usr/bin/env python3
"""Repository benchmark: builds the program in Release and runs one workload.

    python3 perfbench/run.py --workload powerstone --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); inputs, sockets and traces go under <build>/run/<workload>.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit code is 0 only when the build and the
run succeeded and every answer passed the checks. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json declares powerstone, wide and service. joint runs by hand
# only: a fourth declared workload would not fit 30 s runs into the time the
# full set of runs may take.
WORKLOADS = ("powerstone", "wide", "joint", "service")
# Set-up repeats per run: at least SETUP_MIN_REPEATS and at least
# SETUP_MIN_SECONDS in total (a set-up of a few milliseconds needs many
# samples for a steady median), at most SETUP_MAX_REPEATS. setup_s is the
# median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
MEASURE_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark package; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def last_json(text):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("no JSON result line")
    return json.loads(lines[-1])


def run_binary(binary, args, timeout):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(binary)} {args[0]} exited "
                           f"with {proc.returncode}")
    return last_json(proc.stdout)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one answer before checking; the run "
                             "must then fail (checker self-test)")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    run_dir = os.path.join(build_dir, "run", args.workload)
    if os.path.isabs(run_dir):
        run_dir = os.path.relpath(run_dir)  # keeps the socket path short
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--dir={run_dir}", f"--trace={args.trace}"]

    setup_times, setup_layers = [], {}
    while True:
        start = time.perf_counter()
        result = run_binary(binary, ["setup"] + common, MEASURE_TIMEOUT_S)
        setup_times.append(time.perf_counter() - start)
        for name, metric in result["metrics"].items():
            setup_layers.setdefault(name, []).append(metric)
        if not result["correct"]:
            log("set-up failed: " + "; ".join(result["errors"]))
            return 1
        enough = (len(setup_times) >= SETUP_MIN_REPEATS and
                  sum(setup_times) >= SETUP_MIN_SECONDS)
        # A traced run reports no setup_s; one set-up gives its inputs.
        if args.trace or enough or len(setup_times) >= SETUP_MAX_REPEATS:
            break

    measure = ["measure"] + common + [f"--seconds={args.seconds}"]
    if args.trace:
        measure.append(f"--trace-out={run_dir}/trace.json")
    if args.corrupt:
        measure.append("--corrupt")
    result = run_binary(binary, measure, MEASURE_TIMEOUT_S)

    metrics = dict(result["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    for name, values in setup_layers.items():
        metrics[name] = {"value": statistics.median(v["value"] for v in values),
                         "unit": values[0]["unit"]}
    wanted = declared_metrics(args.trace)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        log("metrics missing from the run: " + ", ".join(missing))
        return 1
    for error in result["errors"]:
        log("check failed: " + error)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: metrics[name] for name in wanted}}))
    if result["failed"]:
        log(f"{result['failed']} of {result['attempted']} operations failed")
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        log(str(e))
        sys.exit(1)
