// ABL7 — DAG scheduling ablation (DESIGN.md), plus the placement-class
// scalability gate.
//
// Run without arguments, this prints the ABL7 table: the tiled Cholesky/LU
// DAGs in pure simulation on the paper's starpu+2gpu model, sweeping the
// scheduler policy and tile granularity against the aggregate-throughput
// lower bound.
//
// Run with any argument it becomes a google-benchmark binary exposing
// BM_DagSubmitDrain/{4,1000}: per-task submit+drain cost of a dependent
// two-wave DAG on the manycore platform at 4 and at 1000+ devices. CI
// compares the two — class-based HEFT keeps the 1000-device per-task cost
// within 3x of the 4-device cost instead of the ~250x a per-device scan
// would give. BM_EngineLifecycle/{4,1000} and its RecorderOff twin time a
// whole engine per iteration (set-up, 1000 tasks, teardown), and
// BM_EngineSetUp/1000 and its RecorderOff twin one with no task (set-up and
// teardown alone); CI bounds the flight recorder's share at 1000 devices by
// comparing each pair.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "discovery/presets.hpp"
#include "solvers/tiled_cholesky.hpp"
#include "solvers/tiled_lu.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"

namespace {

struct RunResult {
  double makespan = 0.0;
  double total_flops = 0.0;
};

RunResult run(std::size_t n, int tiles, starvm::SchedulerKind policy, bool lu) {
  starvm::BridgeOptions bridge;
  bridge.scheduler = policy;
  bridge.mode = starvm::ExecutionMode::kPureSim;
  auto config = starvm::engine_config_from_platform(
      pdl::discovery::paper_platform_starpu_2gpu(), bridge);
  starvm::Engine engine(std::move(config).value());

  // Pure simulation: data is never touched, so skip initialization.
  std::unique_ptr<double[]> a(new double[n * n]);
  double flops = 0.0;
  if (lu) {
    auto result = solvers::tiled_lu(engine, a.get(), n, tiles);
    if (!result.ok()) {
      std::fprintf(stderr, "lu failed: %s\n", result.error().str().c_str());
      std::exit(1);
    }
    flops = result.value().total_flops;
  } else {
    auto result = solvers::tiled_cholesky(engine, a.get(), n, tiles);
    if (!result.ok()) {
      std::fprintf(stderr, "cholesky failed: %s\n", result.error().str().c_str());
      std::exit(1);
    }
    flops = result.value().total_flops;
  }
  return RunResult{engine.stats().makespan_seconds, flops};
}

double aggregate_gflops() {
  auto config = starvm::engine_config_from_platform(
      pdl::discovery::paper_platform_starpu_2gpu());
  double total = 0.0;
  for (const auto& d : config.value().devices) total += d.sustained_gflops;
  return total;
}

// Per-task submit/drain cost at `devices` workers: a two-wave dependent
// DAG (compute then reduce per block) on the manycore platform, pure
// simulation, HEFT placement. One iteration = submit + drain 1024 tasks.
void BM_DagSubmitDrain(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  constexpr int kBlocks = 512;
  starvm::BridgeOptions bridge;
  bridge.scheduler = starvm::SchedulerKind::kHeft;
  bridge.mode = starvm::ExecutionMode::kPureSim;
  auto config = starvm::engine_config_from_platform(
      pdl::discovery::manycore_platform(devices), bridge);
  starvm::EngineConfig engine_config = std::move(config).value();
  // Escape hatch for before/after comparisons (EXPERIMENTS.md): force the
  // exhaustive per-device HEFT scan instead of class-based placement.
  if (std::getenv("PDL_DAG_BENCH_EXHAUSTIVE") != nullptr) {
    engine_config.placement_classes = false;
  }
  starvm::Engine engine(std::move(engine_config));

  std::vector<double> data(kBlocks * 8, 1.0);
  starvm::DataHandle* h = engine.register_vector(data.data(), data.size());
  const auto blocks = engine.partition_vector(h, kBlocks);
  starvm::Codelet compute;
  compute.name = "compute";
  compute.impls.push_back(starvm::Implementation{starvm::DeviceKind::kCpu, nullptr});
  compute.flops = [](const std::vector<starvm::BufferView>&) { return 1e7; };
  starvm::Codelet reduce = compute;
  reduce.name = "reduce";

  for (auto _ : state) {
    std::vector<starvm::TaskDesc> batch;
    batch.reserve(2 * blocks.size());
    for (starvm::DataHandle* b : blocks) {
      batch.push_back(starvm::TaskDesc{&compute, {{b, starvm::Access::kReadWrite}}});
    }
    for (starvm::DataHandle* b : blocks) {
      batch.push_back(starvm::TaskDesc{&reduce, {{b, starvm::Access::kReadWrite}}});
    }
    engine.submit_batch(std::move(batch));
    if (!engine.wait_all().ok()) state.SkipWithError("wait_all failed");
  }
  state.SetItemsProcessed(state.iterations() * 2 * kBlocks);
  state.counters["devices"] = devices;
}
BENCHMARK(BM_DagSubmitDrain)->Arg(4)->Arg(1000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The engine a translated program builds for manycore_platform(n), n =
/// state.range(0): deterministic mode, with or without the flight recorder.
starvm::EngineConfig manycore_engine_config(const benchmark::State& state,
                                            bool recorder) {
  starvm::BridgeOptions bridge;
  bridge.mode = starvm::ExecutionMode::kDeterministic;
  starvm::EngineConfig config =
      starvm::engine_config_from_platform(
          pdl::discovery::manycore_platform(static_cast<int>(state.range(0))), bridge)
          .value();
  if (!recorder) config.flight_records_per_device = 0;
  return config;
}

// One engine per iteration, as a translated program builds one: set-up,
// 1000 no-op tasks on 1000 blocks, drain, teardown. Per-device set-up
// work shows here and not in BM_DagSubmitDrain, which reuses one engine.
void engine_lifecycle(benchmark::State& state, bool recorder) {
  constexpr int kBlocks = 1000;
  const starvm::EngineConfig engine_config = manycore_engine_config(state, recorder);
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back(
      starvm::Implementation{starvm::DeviceKind::kCpu,
                             [](const starvm::ExecContext&) {}});
  std::vector<double> data(kBlocks * 8, 1.0);

  for (auto _ : state) {
    starvm::Engine engine(engine_config);
    starvm::DataHandle* h = engine.register_vector(data.data(), data.size());
    for (starvm::DataHandle* b : engine.partition_vector(h, kBlocks)) {
      engine.submit(starvm::TaskDesc{&noop, {{b, starvm::Access::kReadWrite}}});
    }
    if (!engine.wait_all().ok()) state.SkipWithError("wait_all failed");
  }
  state.counters["devices"] = static_cast<double>(state.range(0));
}

void BM_EngineLifecycle(benchmark::State& state) {
  engine_lifecycle(state, true);
}
BENCHMARK(BM_EngineLifecycle)->Arg(4)->Arg(1000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EngineLifecycleRecorderOff(benchmark::State& state) {
  engine_lifecycle(state, false);
}
BENCHMARK(BM_EngineLifecycleRecorderOff)->Arg(4)->Arg(1000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The recorder's fixed cost: the same engine built and torn down with no
// task, so no record is written and what the recorder reserves is all it
// costs.
void engine_set_up(benchmark::State& state, bool recorder) {
  const starvm::EngineConfig engine_config = manycore_engine_config(state, recorder);
  for (auto _ : state) {
    starvm::Engine engine(engine_config);
    benchmark::DoNotOptimize(engine.device_count());
  }
  state.counters["devices"] = static_cast<double>(state.range(0));
}

void BM_EngineSetUp(benchmark::State& state) { engine_set_up(state, true); }
BENCHMARK(BM_EngineSetUp)->Arg(1000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EngineSetUpRecorderOff(benchmark::State& state) {
  engine_set_up(state, false);
}
BENCHMARK(BM_EngineSetUpRecorderOff)->Arg(1000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int run_abl7_table();

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    // google-benchmark mode (CI scalability gate / snapshots).
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return run_abl7_table();
}

namespace {

int run_abl7_table() {
  const std::size_t n = 8192;
  std::printf("=== ABL7: DAG scheduling (N=%zu, starpu+2gpu, pure sim) ===\n", n);
  const double agg = aggregate_gflops();

  for (const bool lu : {false, true}) {
    std::printf("%s:\n", lu ? "tiled LU (denser trailing updates)"
                            : "tiled Cholesky");
    std::printf("%8s %8s %12s | %10s %10s %10s\n", "tiles", "tasks", "bound [s]",
                "eager", "ws", "heft");
    for (int tiles : {4, 8, 16, 32}) {
      const int t = tiles;
      const int tasks = lu ? t + t * (t - 1) + (t - 1) * t * (2 * t - 1) / 6
                           : t + t * (t - 1) + t * (t - 1) * (t - 2) / 6;
      double bound = 0.0;
      std::printf("%8d %8d", tiles, tasks);
      bool first = true;
      for (auto policy : {starvm::SchedulerKind::kEager,
                          starvm::SchedulerKind::kWorkStealing,
                          starvm::SchedulerKind::kHeft}) {
        const RunResult r = run(n, tiles, policy, lu);
        if (first) {
          bound = r.total_flops / (agg * 1e9);
          std::printf(" %12.3f |", bound);
          first = false;
        }
        std::printf(" %10.3f", r.makespan);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("makespan [s]; bound = total FLOPs / aggregate device rate.\n");
  std::printf("Coarse tilings expose too little parallelism for 8 devices;\n");
  std::printf("fine tilings raise the scheduling stakes (HEFT vs greedy).\n");
  return 0;
}

}  // namespace
