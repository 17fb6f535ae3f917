// ABL5 — runtime overhead vs task granularity (DESIGN.md).
//
// StarPU-class runtimes pay per-task submission/scheduling/dependency
// costs; tasks must be coarse enough to amortize them. This benchmark
// measures starvm's real per-task wall cost (empty kernels) and the
// effective throughput at several kernel durations.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "starvm/engine.hpp"

namespace {

void BM_SubmitDrainEmptyTasks(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({starvm::DeviceKind::kCpu, [](const starvm::ExecContext&) {}});
  for (auto _ : state) {
    starvm::EngineConfig config = starvm::EngineConfig::cpus(4);
    starvm::Engine engine(std::move(config));
    std::vector<std::vector<double>> buffers(static_cast<std::size_t>(tasks),
                                             std::vector<double>(1));
    for (auto& buf : buffers) {
      starvm::DataHandle* h = engine.register_vector(buf.data(), 1);
      engine.submit(starvm::TaskDesc{&noop, {{h, starvm::Access::kReadWrite}}});
    }
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SubmitDrainEmptyTasks)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Overhead gate for the always-on flight recorder: the identical workload
/// with the recorder disabled. BM_SubmitDrainEmptyTasks above runs with the
/// default (recorder on, 1024 records/device); the delta between the two is
/// the recorder's per-task cost and must stay within the CI noise gate.
void BM_SubmitDrainRecorderOff(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({starvm::DeviceKind::kCpu, [](const starvm::ExecContext&) {}});
  for (auto _ : state) {
    starvm::EngineConfig config = starvm::EngineConfig::cpus(4);
    config.flight_records_per_device = 0;
    starvm::Engine engine(std::move(config));
    std::vector<std::vector<double>> buffers(static_cast<std::size_t>(tasks),
                                             std::vector<double>(1));
    for (auto& buf : buffers) {
      starvm::DataHandle* h = engine.register_vector(buf.data(), 1);
      engine.submit(starvm::TaskDesc{&noop, {{h, starvm::Access::kReadWrite}}});
    }
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SubmitDrainRecorderOff)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DependencyChain(benchmark::State& state) {
  // Worst case for the dependency tracker: every task depends on the last.
  const int tasks = static_cast<int>(state.range(0));
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({starvm::DeviceKind::kCpu, [](const starvm::ExecContext&) {}});
  for (auto _ : state) {
    starvm::Engine engine(starvm::EngineConfig::cpus(2));
    std::vector<double> data(1);
    starvm::DataHandle* h = engine.register_vector(data.data(), 1);
    for (int i = 0; i < tasks; ++i) {
      engine.submit(starvm::TaskDesc{&noop, {{h, starvm::Access::kReadWrite}}});
    }
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_DependencyChain)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Efficiency at a given kernel duration: wall time of N tasks vs ideal.
void BM_GranularityEfficiency(benchmark::State& state) {
  const auto kernel_us = static_cast<std::uint64_t>(state.range(0));
  constexpr int kTasks = 64;
  starvm::Codelet busy;
  busy.name = "busy";
  busy.impls.push_back(
      {starvm::DeviceKind::kCpu, [kernel_us](const starvm::ExecContext&) {
         const auto end = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(kernel_us);
         while (std::chrono::steady_clock::now() < end) {
         }
       }});
  for (auto _ : state) {
    starvm::Engine engine(starvm::EngineConfig::cpus(4));
    std::vector<std::vector<double>> buffers(kTasks, std::vector<double>(1));
    for (auto& buf : buffers) {
      starvm::DataHandle* h = engine.register_vector(buf.data(), 1);
      engine.submit(starvm::TaskDesc{&busy, {{h, starvm::Access::kReadWrite}}});
    }
    (void)engine.wait_all();
  }
  // Ideal: kTasks * kernel_us / 4 devices.
  state.counters["ideal_ms"] =
      static_cast<double>(kTasks) * static_cast<double>(kernel_us) / 4.0 / 1e3;
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_GranularityEfficiency)
    ->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Same workload as BM_SubmitDrainEmptyTasks but through submit_batch:
/// dependency inference, node allocation and worker wakeup are paid once
/// per batch. The delta against the per-submit variant is the batching win.
void BM_SubmitBatchEmptyTasks(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({starvm::DeviceKind::kCpu, [](const starvm::ExecContext&) {}});
  for (auto _ : state) {
    starvm::Engine engine(starvm::EngineConfig::cpus(4));
    std::vector<std::vector<double>> buffers(static_cast<std::size_t>(tasks),
                                             std::vector<double>(1));
    std::vector<starvm::TaskDesc> batch;
    batch.reserve(buffers.size());
    for (auto& buf : buffers) {
      starvm::DataHandle* h = engine.register_vector(buf.data(), 1);
      batch.push_back(starvm::TaskDesc{&noop, {{h, starvm::Access::kReadWrite}}});
    }
    engine.submit_batch(std::move(batch));
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SubmitBatchEmptyTasks)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Contended submission: `producers` application threads submit
/// concurrently (disjoint handle sets) while the workers drain. Scaling
/// from 1 to N producers exercises the submission path — wiring
/// serializes on the submit mutex; a producer that finds the engine lock
/// taken hands its task over through the inbox instead of waiting.
void BM_MultiProducerSubmitDrain(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  constexpr int kTotalTasks = 8000;
  const int per_producer = kTotalTasks / producers;
  starvm::Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({starvm::DeviceKind::kCpu, [](const starvm::ExecContext&) {}});
  for (auto _ : state) {
    starvm::Engine engine(starvm::EngineConfig::cpus(4));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&engine, &noop, per_producer] {
        std::vector<std::vector<double>> buffers(
            static_cast<std::size_t>(per_producer), std::vector<double>(1));
        for (auto& buf : buffers) {
          starvm::DataHandle* h = engine.register_vector(buf.data(), 1);
          engine.submit(
              starvm::TaskDesc{&noop, {{h, starvm::Access::kReadWrite}}});
        }
        (void)engine.wait_all();  // buffers must outlive the drain
      });
    }
    for (auto& t : threads) t.join();
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * producers * per_producer);
}
BENCHMARK(BM_MultiProducerSubmitDrain)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Work-stealing under imbalance: round-robin placement lands every 4th
/// task (a 20 us spinner) on the same device queue; idle peers must steal
/// the backlog for the drain to finish anywhere near the ideal.
void BM_WorkStealingImbalanced(benchmark::State& state) {
  constexpr int kTasks = 256;
  starvm::Codelet mixed;
  mixed.name = "mixed";
  mixed.impls.push_back(
      {starvm::DeviceKind::kCpu, [](const starvm::ExecContext& ctx) {
         if (ctx.handle(0).cols() > 1) {  // heavy marker: 2-wide buffer
           const auto end =
               std::chrono::steady_clock::now() + std::chrono::microseconds(20);
           while (std::chrono::steady_clock::now() < end) {
           }
         }
       }});
  for (auto _ : state) {
    starvm::EngineConfig config = starvm::EngineConfig::cpus(4);
    config.scheduler = starvm::SchedulerKind::kWorkStealing;
    starvm::Engine engine(std::move(config));
    std::vector<std::vector<double>> buffers(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      auto& buf = buffers[static_cast<std::size_t>(i)];
      buf.resize(i % 4 == 0 ? 2 : 1);
      starvm::DataHandle* h = engine.register_vector(buf.data(), buf.size());
      engine.submit(starvm::TaskDesc{&mixed, {{h, starvm::Access::kReadWrite}}});
    }
    (void)engine.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_WorkStealingImbalanced)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
