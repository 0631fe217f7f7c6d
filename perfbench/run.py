#!/usr/bin/env python3
"""Builds the GODIVA benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload batch_movie --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench at the root of the checkout, in Release with
GODIVA_DEBUG_CHECKS=OFF; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
With --trace 1 the spans of the last traced repetition are written as a
Chrome trace to .bench_build/traces/<workload>-seed<N>.json.

`--workload all` runs every workload in turn and ends with one JSON line
whose metric names are prefixed with the workload name.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "godiva_perfbench")
WORKLOADS = ["batch_movie", "window_query", "live_serving"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quietly(command, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(command))
    if result.returncode != 0:
        sys.exit("perfbench: failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the GODIVA sources (src/) are not next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quietly(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DGODIVA_DEBUG_CHECKS=OFF"] + generator,
                    BUILD_TIMEOUT_S)
    run_quietly(["cmake", "--build", BUILD_DIR, "--parallel", "4"],
                BUILD_TIMEOUT_S)


def run_workload(workload, args):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (workload, args.seed))]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit("perfbench: %s did not finish within %d s"
                     % (workload, RUN_TIMEOUT_S))
    return child.returncode, output


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in workloads:
        code, output = run_workload(workload, args)
        lines = output.rstrip("\n").split("\n")
        if len(workloads) == 1:
            sys.stdout.write(output)
            return code
        # Every workload's report, without its own JSON line.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return code or 1
        exit_code = exit_code or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
