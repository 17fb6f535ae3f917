// Golden rendering of every view the engine derives from a run. For each
// program below, in kPureSim and kDeterministic under eager, work-stealing
// and HEFT, `render_views()` prints:
//
//   * every EngineStats field but wall_seconds (real time): the counters,
//     each device, each trace row, fault event, attempt, error, decision
//     with its candidates, transfer leg and node peak (times in %a);
//   * to_chrome_trace() of those stats;
//   * the flight recorder as Engine::dump_flight_recorder writes it:
//     obs::flight_events_jsonl with task labels, then flight_chrome_trace;
//   * the non-zero `pdl_starvm_*` samples of render_prometheus(), with the
//     registry reset before the run and metrics collection on, so that
//     each engine publishes its EngineStats when it ends.
//
// The programs, all with record_decisions on:
//
//   * the Fig-5 DGEMM (n = 256) on platforms/testbed-starpu-2gpu.pdl.xml
//     through cascabel::rt::Context;
//   * twelve tasks on four cores (eight independent, a four-task chain
//     after the first) under `fail:task=3,attempts=1`: one retry that
//     succeeds;
//   * the same tasks under `fail:task=1,attempts=99`: the chain's head
//     exhausts its retry budget and its successors are cascade-cancelled;
//   * a reader submitted after its writer failed, cancelled at submission;
//   * 64 tasks on eight cores under `kill:device=3,after=4`: the device is
//     blacklisted and its queued tasks are re-routed;
//   * a 50 ms `delay` under a watchdog: the attempt times out and its retry
//     succeeds.
//
// tests/fixtures/starvm_views.golden holds the text;
// `schedule_golden_record <schedules> <views>` rewrites both goldens and
// test_starvm compares later builds against them byte for byte.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "starvm/trace_export.hpp"
#include "starvm_schedule_golden.hpp"

namespace starvm::golden {

/// Every EngineStats field except wall_seconds, one record per line.
inline void render_engine_stats(std::string& out, const EngineStats& s) {
  out += "stats makespan " + hex(s.makespan_seconds) + " submitted " +
         std::to_string(s.tasks_submitted) + " completed " +
         std::to_string(s.tasks_completed) + " overhead_us " +
         hex(s.task_overhead_us) + " steals " + std::to_string(s.steals) +
         " scheduler " + std::string(to_string(s.scheduler)) + "\n";
  out += "memory transfers " + std::to_string(s.transfers) + " bytes " +
         std::to_string(s.transfer_bytes) + " evictions " +
         std::to_string(s.evictions) + " writeback " +
         std::to_string(s.writeback_bytes) + " link_spec_misses " +
         std::to_string(s.link_spec_misses) + "\n";
  out += "perf store_entries " + std::to_string(s.perf_store_entries) +
         " store_rejected " + std::to_string(s.perf_store_rejected) +
         " seeds " + std::to_string(s.perf_model_seeds) + "\n";
  out += "faults failures " + std::to_string(s.task_failures) + " retries " +
         std::to_string(s.retries) + " timeouts " + std::to_string(s.timeouts) +
         " reroutes " + std::to_string(s.reroutes) + " blacklisted " +
         std::to_string(s.devices_blacklisted) + " failed " +
         std::to_string(s.failed_tasks) + " cancelled " +
         std::to_string(s.cancelled_tasks) + "\n";
  out += "flight records " + std::to_string(s.flight_records) + " overwritten " +
         std::to_string(s.flight_overwritten) + "\n";
  for (const DeviceStats& d : s.devices) {
    out += "device " + d.name + " " + std::string(to_string(d.kind)) +
           " tasks " + std::to_string(d.tasks_run) + " busy " +
           hex(d.busy_seconds) + " transfer " + hex(d.transfer_seconds) +
           " failures " + std::to_string(d.failures) + " blacklisted " +
           std::to_string(d.blacklisted) + " mtbf " + hex(d.mtbf_hours) +
           " gflops " + hex(d.declared_gflops) + "\n";
  }
  for (const TaskTrace& t : s.trace) {
    out += "trace " + std::to_string(t.id) + " " + t.label + " " +
           std::to_string(t.device) + " " + hex(t.start_vtime) + " " +
           hex(t.finish_vtime) + " " + hex(t.transfer_seconds) + " " +
           hex(t.exec_seconds) + " " + hex(t.flops) + " " +
           hex(t.ready_vtime) + "\n";
  }
  for (const FaultEvent& e : s.fault_events) {
    out += std::string("fault ") + to_string(e.kind) + " " + hex(e.vtime) +
           " task " + std::to_string(e.task) + " device " +
           std::to_string(e.device) + " attempt " + std::to_string(e.attempt) +
           " " + e.detail + "\n";
  }
  for (const TaskAttempt& a : s.attempts) {
    out += "attempt " + std::to_string(a.task) + " #" +
           std::to_string(a.attempt) + " device " + std::to_string(a.device) +
           " " + to_string(a.outcome) + " " + hex(a.vtime) + " " + a.cause +
           "\n";
  }
  for (const std::string& e : s.errors) out += "error " + e + "\n";
  for (const SchedulerDecision& d : s.decisions) {
    out += "decision " + std::to_string(d.task) + " " + d.label + " chosen " +
           std::to_string(d.chosen) + " " + hex(d.decided_vtime) + "\n";
    for (const DecisionCandidate& c : d.candidates) {
      out += "  candidate " + std::to_string(c.device) + " " + c.device_name +
             " x" + std::to_string(c.class_size) + " " +
             hex(c.est_finish_vtime) + "\n";
    }
  }
  for (const TransferLeg& l : s.transfer_legs) {
    out += "leg " + std::to_string(l.task) + " node " + std::to_string(l.node) +
           " bytes " + std::to_string(l.bytes) + " " + hex(l.begin_vtime) +
           " " + hex(l.end_vtime) + "\n";
  }
  for (const NodePeak& p : s.node_peaks) {
    out += "peak node " + std::to_string(p.node) + " device " +
           std::to_string(p.device) + " bytes " + std::to_string(p.bytes) +
           " " + hex(p.vtime) + "\n";
  }
}

/// Called by a program once its engine has drained, while it is alive.
using ViewFn = std::function<void(Engine&)>;

/// Stats, Chrome trace and flight dump of a drained engine.
inline void render_engine(std::string& out, Engine& engine) {
  const EngineStats stats = engine.stats();
  render_engine_stats(out, stats);
  out += "chrome " + to_chrome_trace(stats) + "\n";
  const std::string prefix =
      (std::filesystem::temp_directory_path() /
       ("starvm_views." + std::to_string(getpid())))
          .string();
  if (!engine.dump_flight_recorder(prefix, "golden")) {
    out += "flight dump failed\n";
    return;
  }
  for (const char* suffix : {".jsonl", ".trace.json"}) {
    const std::string path = prefix + suffix;
    out += std::string("flight") + suffix + "\n" +
           pdl::util::read_file(path).value_or("(unreadable)") + "\n";
    std::remove(path.c_str());
  }
}

/// Runs `program` against a reset metrics registry with metrics collection
/// on, then appends every view.
inline void render_run(std::string& out, const std::string& title,
                       const std::function<void(const ViewFn&)>& program) {
  out += "== " + title + " ==\n";
  obs::Registry::global().reset();
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  program([&out](Engine& engine) { render_engine(out, engine); });
  obs::set_metrics_enabled(metrics_were_on);
  // Only samples, and only non-zero ones: which instruments exist depends
  // on what else the process ran, a zero sample of a new one does not.
  std::istringstream prom(obs::render_prometheus());
  for (std::string line; std::getline(prom, line);) {
    if (line.starts_with("pdl_starvm_") && !line.ends_with(" 0")) {
      out += "prom " + line + "\n";
    }
  }
}

inline EngineConfig faulted_config(int workers, SchedulerKind scheduler,
                                   ExecutionMode mode, const std::string& plan) {
  EngineConfig config = manycore_config(workers, scheduler, mode, true);
  config.record_decisions = true;
  config.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan::parse(plan).value());
  return config;
}

/// Eight independent tasks, then a four-task chain on the first block.
inline void run_twelve(EngineConfig config, const ViewFn& view) {
  Engine engine(std::move(config));
  std::vector<double> data(8, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  const std::vector<DataHandle*> blocks = engine.partition_vector(h, 8);
  const Codelet step = golden_codelet("step", 2e6);
  const Codelet link = golden_codelet("link", 1e6);
  for (DataHandle* b : blocks) {
    engine.submit(TaskDesc{&step, {{b, Access::kReadWrite}}});
  }
  for (std::size_t i = 1; i <= 4; ++i) {
    engine.submit(TaskDesc{
        &link, {{blocks[0], Access::kReadWrite}, {blocks[i], Access::kRead}}});
  }
  (void)engine.wait_all();
  view(engine);
}

/// A writer that fails for good, then a reader of its output (cancelled
/// at submission) next to an independent task.
inline void run_late_reader(EngineConfig config, const ViewFn& view) {
  Engine engine(std::move(config));
  std::vector<double> x(4, 1.0);
  std::vector<double> y(4, 1.0);
  std::vector<double> z(4, 1.0);
  DataHandle* hx = engine.register_vector(x.data(), x.size(), "x");
  DataHandle* hy = engine.register_vector(y.data(), y.size(), "y");
  DataHandle* hz = engine.register_vector(z.data(), z.size(), "z");
  const Codelet c = golden_codelet("unit", 2e6);
  engine.submit(TaskDesc{&c, {{hx, Access::kWrite}}, "writer"});
  (void)engine.wait_all();
  engine.submit(TaskDesc{&c, {{hx, Access::kRead}, {hy, Access::kWrite}}, "reader"});
  engine.submit(TaskDesc{&c, {{hz, Access::kReadWrite}}, "bystander"});
  (void)engine.wait_all();
  view(engine);
}

/// 64 independent tasks on eight cores (the kill-plan program).
inline void run_sixty_four(EngineConfig config, const ViewFn& view) {
  Engine engine(std::move(config));
  std::vector<double> data(64, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  const Codelet c = golden_codelet("unit", 2e6);
  for (DataHandle* b : engine.partition_vector(h, 64)) {
    engine.submit(TaskDesc{&c, {{b, Access::kReadWrite}}});
  }
  (void)engine.wait_all();
  view(engine);
}

/// Every program above, in a fixed order. `source_dir` is the repository
/// root (for platforms/testbed-starpu-2gpu.pdl.xml).
inline std::string render_views(const std::string& source_dir) {
  const std::string path = source_dir + "/platforms/testbed-starpu-2gpu.pdl.xml";
  const auto text = pdl::util::read_file(path);
  if (!text) return "cannot read " + path + "\n";
  pdl::Diagnostics diags;
  auto testbed = pdl::parse_platform(*text, diags, path);
  if (!testbed) return "cannot parse " + path + "\n";

  const SchedulerKind schedulers[3] = {SchedulerKind::kEager,
                                       SchedulerKind::kWorkStealing,
                                       SchedulerKind::kHeft};
  const ExecutionMode modes[2] = {ExecutionMode::kPureSim,
                                  ExecutionMode::kDeterministic};
  std::string out;
  for (const ExecutionMode mode : modes) {
    for (const SchedulerKind s : schedulers) {
      const std::string run = std::string(to_string(s)) + " " + mode_name(mode);
      render_run(out, "fig5 " + run, [&](const ViewFn& view) {
        cascabel::rt::Options options;
        options.scheduler = s;
        options.mode = mode;
        options.bridge.record_decisions = true;
        run_fig5_with(testbed.value(), options,
                      [&view](cascabel::rt::Context& ctx) { view(ctx.engine()); });
      });
      render_run(out, "retry " + run, [&](const ViewFn& view) {
        run_twelve(faulted_config(4, s, mode, "fail:task=3,attempts=1"), view);
      });
      render_run(out, "exhausted " + run, [&](const ViewFn& view) {
        run_twelve(faulted_config(4, s, mode, "fail:task=1,attempts=99"), view);
      });
      render_run(out, "late-reader " + run, [&](const ViewFn& view) {
        run_late_reader(faulted_config(4, s, mode, "fail:task=1,attempts=99"),
                        view);
      });
      render_run(out, "kill " + run, [&](const ViewFn& view) {
        run_sixty_four(faulted_config(8, s, mode, "kill:device=3,after=4"), view);
      });
      render_run(out, "watchdog " + run, [&](const ViewFn& view) {
        EngineConfig config =
            faulted_config(4, s, mode, "delay:ms=50,task=2");
        config.fault_tolerance.watchdog_slack = 2.0;
        run_twelve(std::move(config), view);
      });
    }
  }
  return out;
}

}  // namespace starvm::golden
