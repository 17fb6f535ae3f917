// Golden rendering of simulation-mode schedules. `render()` prints every
// EngineStats::trace row (task id, device, start and finish virtual time,
// the times with %a so the text pins every bit) of eager, work-stealing and
// HEFT in kPureSim and kDeterministic on a fixed set of programs:
//
//   * manycore_platform(1000) running 2,048 independent blocks and a seeded
//     dependent DAG, HEFT also with placement_classes = false;
//   * platforms/testbed-starpu-2gpu.pdl.xml running the Fig-5 DGEMM
//     (n = 256) through cascabel::rt::Context;
//   * a fault plan that blacklists a device mid-run, so the schedulers
//     drain it (the fault events are printed too);
//   * a recording oracle that lists every choice point of a run, HEFT's
//     placement-class member ties among them.
//
// tests/fixtures/starvm_schedules.golden holds the text;
// `schedule_golden_record <file>` (tests/schedule_golden_record.cpp)
// rewrites it from the code it was built from, and test_starvm compares
// later builds against it byte for byte.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "discovery/presets.hpp"
#include "pdl/parser.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"
#include "starvm/fault.hpp"
#include "util/string_util.hpp"

namespace starvm::golden {

/// `v` in C's %a notation: every bit of the double, independent of locale
/// and rounding.
inline std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string mode_name(ExecutionMode mode) {
  return mode == ExecutionMode::kPureSim ? "puresim" : "deterministic";
}

/// One run's header and its trace rows (and fault events, when any).
inline void render_stats(std::string& out, const std::string& title,
                         const EngineStats& stats) {
  out += "== " + title + " ==\n";
  out += "completed " + std::to_string(stats.tasks_completed) + " failed " +
         std::to_string(stats.failed_tasks) + " blacklisted " +
         std::to_string(stats.devices_blacklisted) + " reroutes " +
         std::to_string(stats.reroutes);
  out += " makespan " + hex(stats.makespan_seconds) + "\n";
  for (const TaskTrace& t : stats.trace) {
    out += std::to_string(t.id) + " " + std::to_string(t.device) + " " +
           hex(t.start_vtime) + " " + hex(t.finish_vtime) + "\n";
  }
  for (const FaultEvent& e : stats.fault_events) {
    out += std::string("fault ") + to_string(e.kind) + " task " +
           std::to_string(e.task) + " device " + std::to_string(e.device) + " " +
           hex(e.vtime) + "\n";
  }
}

inline Codelet golden_codelet(std::string name, double flops) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext&) {}});
  c.flops = [flops](const std::vector<BufferView>&) { return flops; };
  return c;
}

inline EngineConfig manycore_config(int workers, SchedulerKind scheduler,
                                    ExecutionMode mode, bool placement_classes) {
  BridgeOptions bridge;
  bridge.scheduler = scheduler;
  bridge.mode = mode;
  EngineConfig config =
      engine_config_from_platform(pdl::discovery::manycore_platform(workers), bridge)
          .value();
  config.placement_classes = placement_classes;
  return config;
}

/// 2,048 independent blocks of a 4096-element vector.
inline EngineStats run_blocks(EngineConfig config) {
  Engine engine(std::move(config));
  std::vector<double> data(4096, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  const Codelet c = golden_codelet("block", 3e6);
  std::vector<TaskDesc> batch;
  for (DataHandle* b : engine.partition_vector(h, 2048)) {
    batch.push_back(TaskDesc{&c, {{b, Access::kReadWrite}}});
  }
  engine.submit_batch(std::move(batch));
  (void)engine.wait_all();
  return engine.stats();
}

/// 1,500 tasks over 64 blocks, each touching one to three of them with a
/// seeded access mode and one of three costs: RAW, WAR and WAW chains
/// between them. std::mt19937's sequence is fixed by the standard, and only
/// its raw output is used, so every library draws the same program.
inline EngineStats run_dag(EngineConfig config) {
  Engine engine(std::move(config));
  std::vector<double> data(4096, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  const std::vector<DataHandle*> blocks = engine.partition_vector(h, 64);
  const Codelet codelets[3] = {golden_codelet("light", 1e6),
                               golden_codelet("medium", 4e6),
                               golden_codelet("heavy", 9e6)};
  const Access modes[3] = {Access::kRead, Access::kWrite, Access::kReadWrite};
  std::mt19937 rng(20240611u);
  for (int t = 0; t < 1500; ++t) {
    TaskDesc desc;
    desc.codelet = &codelets[rng() % 3];
    const std::uint32_t touched = 1 + rng() % 3;
    std::vector<std::size_t> used;
    for (std::uint32_t k = 0; k < touched; ++k) {
      const std::size_t b = rng() % blocks.size();
      const Access mode = modes[rng() % 3];
      bool seen = false;
      for (const std::size_t u : used) seen = seen || u == b;
      if (seen) continue;
      used.push_back(b);
      desc.buffers.push_back({blocks[b], mode});
    }
    engine.submit(std::move(desc));
  }
  (void)engine.wait_all();
  return engine.stats();
}

/// The Fig-5 DGEMM (C += A * B, C and A in row bands, B whole) at n = 256
/// through the runtime veneer, on the 2-GPU testbed description; `drained`
/// sees the context once the program has run.
inline void run_fig5_with(
    const pdl::Platform& testbed, const cascabel::rt::Options& options,
    const std::function<void(cascabel::rt::Context&)>& drained) {
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);
  // The 32 blocks of 4 per device the goldens were recorded with.
  cascabel::rt::Options pinned = options;
  pinned.blocks_per_device = 4;
  cascabel::rt::Context ctx(testbed, std::move(repo), pinned);
  constexpr std::size_t n = 256;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(i % 7);
    b[i] = static_cast<double>(i % 5);
  }
  (void)ctx.execute(
      "Idgemm", "all",
      {cascabel::rt::arg_matrix(c.data(), n, n, cascabel::AccessMode::kReadWrite,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(a.data(), n, n, cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(b.data(), n, n, cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kNone)});
  (void)ctx.wait();
  drained(ctx);
}

inline EngineStats run_fig5(const pdl::Platform& testbed, SchedulerKind scheduler,
                            ExecutionMode mode) {
  cascabel::rt::Options options;
  options.scheduler = scheduler;
  options.mode = mode;
  EngineStats stats;
  run_fig5_with(testbed, options,
                [&stats](cascabel::rt::Context& ctx) { stats = ctx.stats(); });
  return stats;
}

/// 256 independent tasks on 16 cores, the fourth of which fails every
/// attempt once it has completed 4 tasks: it is blacklisted after three
/// consecutive failures and its queued work is re-routed.
inline EngineStats run_fault(SchedulerKind scheduler, ExecutionMode mode) {
  EngineConfig config = manycore_config(16, scheduler, mode, true);
  config.fault_plan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("kill:device=3,after=4").value());
  Engine engine(std::move(config));
  std::vector<double> data(256, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  const Codelet c = golden_codelet("unit", 2e6);
  for (DataHandle* b : engine.partition_vector(h, 256)) {
    engine.submit(TaskDesc{&c, {{b, Access::kReadWrite}}});
  }
  (void)engine.wait_all();
  return engine.stats();
}

/// Answers every choice point with the canonical alternative and writes it
/// down: kind, then each alternative as task@device.
class RecordingOracle final : public DecisionOracle {
 public:
  explicit RecordingOracle(std::string* out) : out_(out) {}
  int choose(const ChoicePoint& cp) override {
    *out_ += "choice " + std::string(to_string(cp.kind)) + ":";
    for (const ChoiceAlt& alt : cp.alts) {
      *out_ += " " + std::to_string(alt.task) + "@" + std::to_string(alt.device);
    }
    *out_ += "\n";
    return 0;
  }

 private:
  std::string* out_;
};

/// HEFT on 6 identical cores under a recording oracle: 24 independent
/// tasks (one placement class, so members tie) and a 6-task chain.
inline void render_oracle_run(std::string& out, ExecutionMode mode) {
  std::string choices;
  RecordingOracle oracle(&choices);
  EngineConfig config = manycore_config(6, SchedulerKind::kHeft, mode, true);
  config.oracle = &oracle;
  EngineStats stats;
  {
    Engine engine(std::move(config));
    std::vector<double> data(30, 1.0);
    DataHandle* h = engine.register_vector(data.data(), data.size());
    const std::vector<DataHandle*> blocks = engine.partition_vector(h, 30);
    const Codelet c = golden_codelet("unit", 2e6);
    for (std::size_t i = 0; i < 24; ++i) {
      engine.submit(TaskDesc{&c, {{blocks[i], Access::kReadWrite}}});
    }
    for (std::size_t i = 0; i < 6; ++i) {
      engine.submit(TaskDesc{
          &c, {{blocks[24], Access::kReadWrite}, {blocks[25 + i % 5], Access::kRead}}});
    }
    (void)engine.wait_all();
    stats = engine.stats();
  }
  render_stats(out, "oracle heft " + mode_name(mode), stats);
  out += choices;
}

/// Everything above, in a fixed order. `source_dir` is the repository root
/// (for platforms/testbed-starpu-2gpu.pdl.xml).
inline std::string render(const std::string& source_dir) {
  const SchedulerKind schedulers[3] = {SchedulerKind::kEager,
                                       SchedulerKind::kWorkStealing,
                                       SchedulerKind::kHeft};
  const ExecutionMode modes[2] = {ExecutionMode::kPureSim,
                                  ExecutionMode::kDeterministic};
  std::string out;
  for (const ExecutionMode mode : modes) {
    const std::string m = mode_name(mode);
    for (const SchedulerKind s : schedulers) {
      const std::string name(to_string(s));
      render_stats(out, "blocks " + name + " " + m,
                   run_blocks(manycore_config(1000, s, mode, true)));
      render_stats(out, "dag " + name + " " + m,
                   run_dag(manycore_config(1000, s, mode, true)));
    }
    render_stats(out, "blocks heft-exhaustive " + m,
                 run_blocks(manycore_config(1000, SchedulerKind::kHeft, mode, false)));
    render_stats(out, "dag heft-exhaustive " + m,
                 run_dag(manycore_config(1000, SchedulerKind::kHeft, mode, false)));
  }

  const std::string path = source_dir + "/platforms/testbed-starpu-2gpu.pdl.xml";
  const auto text = pdl::util::read_file(path);
  if (!text) return "cannot read " + path + "\n";
  pdl::Diagnostics diags;
  auto testbed = pdl::parse_platform(*text, diags, path);
  if (!testbed) return "cannot parse " + path + "\n";
  for (const ExecutionMode mode : modes) {
    for (const SchedulerKind s : schedulers) {
      render_stats(out,
                   "fig5 " + std::string(to_string(s)) + " " + mode_name(mode),
                   run_fig5(testbed.value(), s, mode));
    }
  }

  for (const ExecutionMode mode : modes) {
    for (const SchedulerKind s : schedulers) {
      render_stats(out,
                   "fault " + std::string(to_string(s)) + " " + mode_name(mode),
                   run_fault(s, mode));
    }
    render_oracle_run(out, mode);
  }
  return out;
}

}  // namespace starvm::golden
