#!/usr/bin/env python3
"""End-to-end benchmark of the translate-and-run path, with a per-layer
breakdown.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt) into .bench_build/perfbench; later calls
only let the build tool confirm it is up to date.

--trace 0 measures with tracing off and reports the end-to-end metrics,
including setup_s: the median wall time of SLICES * SETUP_RUNS_PER_SLICE
whole driver processes that build the inputs and run one verified program
(process start, static and lazy initialization, input generation, first
program), interleaved with the measured slices. --trace 1 runs the traced
driver and reports the per-layer metrics. The last line of
stdout is one JSON object; everything else goes to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "e2e")
WORKLOADS = ("dgemm", "wide")
# The measured time is split over SLICES driver processes and each metric is
# the median of their medians, so one process that lands on a busy core, or
# one burst of load from outside, moves no metric.
SLICES = 10
SETUP_RUNS_PER_SLICE = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("configuring the driver failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("building the driver failed")


def run_driver(args):
    # "0" disables the persisted perf-model store, so every program starts
    # from the declared rates whatever the caller's environment holds.
    env = dict(os.environ, PDL_PERF_STORE="0")
    try:
        proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    slice_seconds = "%g" % (opts.seconds / SLICES)
    attempted = 0
    failed = 0
    correct = True
    setup_times = []
    slices = []
    for _ in range(SLICES):
        if opts.trace == 0:
            for _ in range(SETUP_RUNS_PER_SLICE):
                start = time.perf_counter()
                result = run_driver(common + ["--setup-only"])
                setup_times.append(time.perf_counter() - start)
                attempted += result["attempted"]
                failed += result["failed"]
                correct = correct and result["correct"]
        result = run_driver(common + ["--seconds", slice_seconds,
                                      "--trace", str(opts.trace)])
        slices.append(result["metrics"])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]

    metrics = {name: {"value": statistics.median([s[name]["value"] for s in slices]),
                      "unit": metric["unit"]}
               for name, metric in slices[0].items()}
    if setup_times:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
