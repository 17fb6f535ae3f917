#!/usr/bin/env python3
"""Gate fresh google-benchmark snapshots against committed baselines.

    python3 tools/bench_gate.py --baseline-dir DIR [--current-dir DIR] \
        --kernels BENCH_dgemm_kernels.json --pdl BENCH_pdl_toolchain.json \
        --analysis BENCH_analysis.json

Regression gates compare each fresh BENCH_*.json in --current-dir with the
committed file of the same name in --baseline-dir: absolute real_time may
grow by at most TOLERANCE (shared-runner noise). Ratio gates read only the
fresh results, so they hold on any machine:

  * BM_DagSubmitDrain: the 1000-device per-task cost stays within
    MAX_SCALE_RATIO of the 4-device cost;
  * BM_EngineLifecycle: a whole 1000-device engine (set-up, 1000 tasks,
    teardown) with the flight recorder costs at most MAX_RECORDER_RATIO
    times as much as its RecorderOff twin. Its cost over the 4-device
    engine, which drains the same 1000 tasks, is the price of set-up for
    1000 devices; it is printed, not gated (too noisy in short runs), with
    and without the recorder;
  * BM_EngineSetUp: a 1000-device engine built and torn down with no task
    costs at most MAX_RECORDER_RATIO times as much with the flight recorder
    as without it, so the recorder's fixed cost cannot hide behind the
    cost of running tasks;
  * BM_VariantSelection: the warm-store round beats the cold one;
  * bm_dgemm_kernels (--kernels): dgemm_tiled at n = 256 reaches at least
    MIN_TILED_SPEEDUP times the GFLOPS of dgemm_blocked. Its share of the
    multiply-add peak measured at the same vector width is printed, and so
    is the 8-row band's (one translated Fig-5 task) on every path;
  * bm_pdl_toolchain (--pdl): reading a 4096-PU description costs at most
    MAX_PDL_SCALE_RATIO times as much per byte as a 128-PU one, and writing
    it at most MAX_PDL_SCALE_RATIO times as much per PU;
  * bm_analysis (--analysis): the A5xx schedule analysis of a 10,000-task
    graph costs at most MAX_ANALYSIS_SCALE_RATIO times as much as of a
    1,000-task one (linear scaling is x10; a quadratic pass is x100).

Every check runs and prints one line; the exit status is 1 if any failed.
"""

import argparse
import json
import os
import sys

TOLERANCE = 1.20  # shared-runner noise allowance on absolute real_time
MAX_SCALE_RATIO = 3.0  # 1000-device vs 4-device per-task submit/drain cost
MAX_RECORDER_RATIO = 2.0  # 1000-device engine, recorder on vs off
MIN_TILED_SPEEDUP = 2.0  # dgemm_tiled vs dgemm_blocked GFLOPS at n = 256
MAX_PDL_SCALE_RATIO = 2.0  # PDL parse per byte / serialize per PU, 4096 vs 128 PUs
MAX_ANALYSIS_SCALE_RATIO = 30.0  # A5xx analysis, 10,000 vs 1,000 tasks

# Snapshot file -> benchmarks gated against its committed baseline.
REGRESSION = {
    # BM_SubmitDrainEmptyTasks runs with the always-on flight recorder;
    # gating its recorder-off twin as well bounds the recorder's cost.
    "BENCH_pr4.json": [
        "BM_SubmitDrainEmptyTasks/10000/real_time",
        "BM_SubmitDrainRecorderOff/10000/real_time",
    ],
    "BENCH_pr7_dag.json": [
        "BM_DagSubmitDrain/4/real_time",
        "BM_DagSubmitDrain/1000/real_time",
    ],
    "BENCH_pr9_autotune.json": [
        "BM_VariantSelectionColdStore",
        "BM_VariantSelectionWarmStore",
    ],
}


def load(path):
    """Benchmark entries of one google-benchmark JSON file, by name."""
    try:
        with open(path) as f:
            entries = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"{path}: cannot read benchmark results: {e}")
    by_name = {}
    for b in entries:
        by_name.setdefault(b["name"], b)
    return by_name


def entry(results, path, name):
    if name not in results:
        sys.exit(f"{path}: benchmark {name!r} missing")
    return results[name]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--kernels", required=True,
                        help="bm_dgemm_kernels JSON output of this run")
    parser.add_argument("--pdl", required=True,
                        help="bm_pdl_toolchain JSON output of this run")
    parser.add_argument("--analysis", required=True,
                        help="bm_analysis JSON output of this run")
    args = parser.parse_args()

    failed = False

    def check(ok, message):
        nonlocal failed
        print(("ok    " if ok else "FAIL  ") + message)
        failed |= not ok

    def real_time(results, path, name):
        return float(entry(results, path, name)["real_time"])

    fresh = {}
    for snapshot, names in REGRESSION.items():
        base_path = os.path.join(args.baseline_dir, snapshot)
        now_path = os.path.join(args.current_dir, snapshot)
        base, now = load(base_path), load(now_path)
        fresh[snapshot] = (now_path, now)
        for name in names:
            before = real_time(base, base_path, name)
            after = real_time(now, now_path, name)
            unit = entry(now, now_path, name).get("time_unit", "")
            ratio = after / before
            check(ratio <= TOLERANCE,
                  f"{name}: baseline {before:.3f} {unit}, current {after:.3f} "
                  f"{unit} (x{ratio:.2f}, limit x{TOLERANCE:.2f})")

    # Both configurations drain the same task count, so the real_time ratio
    # is the per-task cost ratio.
    path, dag = fresh["BENCH_pr7_dag.json"]
    scale = (real_time(dag, path, "BM_DagSubmitDrain/1000/real_time") /
             real_time(dag, path, "BM_DagSubmitDrain/4/real_time"))
    check(scale <= MAX_SCALE_RATIO,
          f"1000-device vs 4-device per-task cost: x{scale:.2f} "
          f"(limit x{MAX_SCALE_RATIO:.1f})")
    on = real_time(dag, path, "BM_EngineLifecycle/1000/real_time")
    off = real_time(dag, path, "BM_EngineLifecycleRecorderOff/1000/real_time")
    check(on / off <= MAX_RECORDER_RATIO,
          f"1000-device engine lifecycle, flight recorder on vs off: "
          f"x{on / off:.2f} (limit x{MAX_RECORDER_RATIO:.1f})")
    set_up = (real_time(dag, path, "BM_EngineSetUp/1000/real_time") /
              real_time(dag, path, "BM_EngineSetUpRecorderOff/1000/real_time"))
    check(set_up <= MAX_RECORDER_RATIO,
          f"1000-device engine set-up and teardown with no task, flight "
          f"recorder on vs off: x{set_up:.2f} "
          f"(limit x{MAX_RECORDER_RATIO:.1f})")
    four = real_time(dag, path, "BM_EngineLifecycle/4/real_time")
    print(f"info  engine lifecycle, 1000 vs 4 devices (same 1000 tasks): "
          f"x{on / four:.2f}")
    off_four = real_time(dag, path, "BM_EngineLifecycleRecorderOff/4/real_time")
    print(f"info  engine lifecycle without the flight recorder, 1000 vs 4 "
          f"devices (same 1000 tasks): x{off / off_four:.2f}")

    path, autotune = fresh["BENCH_pr9_autotune.json"]
    cold = real_time(autotune, path, "BM_VariantSelectionColdStore")
    warm = real_time(autotune, path, "BM_VariantSelectionWarmStore")
    check(warm < cold,
          f"warm store {warm:.3f} vs cold store {cold:.3f} "
          f"(x{cold / warm:.2f} speed-up, must exceed x1)")

    kernels = load(args.kernels)
    tiled = entry(kernels, args.kernels, "BM_DgemmTiled/256")
    blocked = entry(kernels, args.kernels, "BM_DgemmBlocked/256")
    tiled_gflops = float(tiled["GFLOPS"])
    blocked_gflops = float(blocked["GFLOPS"])
    path_name = tiled.get("label", "")
    check(tiled_gflops >= MIN_TILED_SPEEDUP * blocked_gflops,
          f"dgemm_tiled/256 ({path_name}) {tiled_gflops:.2f} GFLOPS vs "
          f"dgemm_blocked/256 {blocked_gflops:.2f} "
          f"(x{tiled_gflops / blocked_gflops:.2f}, "
          f"need x{MIN_TILED_SPEEDUP:.1f})")
    peak = kernels.get(f"BM_MaddPeak/{path_name}")
    if peak is not None:
        peak_gflops = float(peak["GFLOPS"])
        print(f"info  dgemm_tiled/256 runs at {tiled_gflops / peak_gflops:.0%} "
              f"of the {peak_gflops:.2f} GFLOPS {path_name} multiply-add peak")
    # One translated Fig-5 task per path. Printed, not gated: a share of
    # peak depends on the host's microarchitecture.
    for name, peak in kernels.items():
        if not name.startswith("BM_MaddPeak/"):
            continue
        band_path = name.split("/", 1)[1]
        band = kernels.get(f"BM_DgemmTiledBand/{band_path}/8")
        if band is None:
            continue
        band_gflops = float(band["GFLOPS"])
        peak_gflops = float(peak["GFLOPS"])
        print(f"info  8-row band ({band_path}) {band_gflops:.2f} GFLOPS, "
              f"{band_gflops / peak_gflops:.0%} of the {peak_gflops:.2f} "
              f"GFLOPS {band_path} multiply-add peak")

    # The description layers must cost time in proportion to their input:
    # bytes of XML read, PUs written.
    pdl = load(args.pdl)
    small = entry(pdl, args.pdl, "BM_ParsePlatform/128")
    large = entry(pdl, args.pdl, "BM_ParsePlatform/4096")
    per_byte = float(small["bytes_per_second"]) / float(large["bytes_per_second"])
    check(per_byte <= MAX_PDL_SCALE_RATIO,
          f"BM_ParsePlatform per-byte cost, 4096 vs 128 PUs: x{per_byte:.2f} "
          f"(limit x{MAX_PDL_SCALE_RATIO:.1f})")
    per_pu = ((real_time(pdl, args.pdl, "BM_Serialize/4096") / 4096) /
              (real_time(pdl, args.pdl, "BM_Serialize/128") / 128))
    check(per_pu <= MAX_PDL_SCALE_RATIO,
          f"BM_Serialize per-PU cost, 4096 vs 128 PUs: x{per_pu:.2f} "
          f"(limit x{MAX_PDL_SCALE_RATIO:.1f})")

    # The analyzer runs on every lint; its cost must grow with the graph,
    # not with the graph squared.
    analysis = load(args.analysis)
    scale = (real_time(analysis, args.analysis,
                       "BM_AnalyzeScheduleWithRules/10000") /
             real_time(analysis, args.analysis,
                       "BM_AnalyzeScheduleWithRules/1000"))
    check(scale <= MAX_ANALYSIS_SCALE_RATIO,
          f"BM_AnalyzeScheduleWithRules, 10000 vs 1000 tasks: x{scale:.1f} "
          f"(limit x{MAX_ANALYSIS_SCALE_RATIO:.0f})")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
