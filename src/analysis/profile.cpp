#include "analysis/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "starvm/bridge.hpp"
#include "starvm/codelet.hpp"
#include "starvm/engine.hpp"

namespace analysis {

namespace {

/// Fixed-format milliseconds; deterministic across platforms.
std::string ms(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f ms", seconds * 1e3);
  return buf;
}

std::string gf(double gflops) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", gflops);
  return buf;
}

std::string ratio2(double r) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", r);
  return buf;
}

/// Codelet identity for aggregation: the translator stamps each expanded
/// call-site instance as "Idgemm[17]". Stripping the trailing "[...]" lets
/// drift rows line up per codelet instead of per instance.
std::string base_label(const std::string& label) {
  if (!label.empty() && label.back() == ']') {
    const std::size_t open = label.rfind('[');
    if (open != std::string::npos && open > 0) {
      return label.substr(0, open);
    }
  }
  return label;
}

}  // namespace

const char* to_string(CriticalEdge edge) {
  switch (edge) {
    case CriticalEdge::kStart: return "start";
    case CriticalEdge::kDependency: return "dependency";
    case CriticalEdge::kDevice: return "device";
  }
  return "?";
}

RunProfile profile_run(const starvm::EngineStats& stats) {
  RunProfile profile;
  const double overhead = stats.task_overhead_us * 1e-6;
  profile.makespan_seconds = stats.makespan_seconds;
  profile.flight_records = stats.flight_records;
  profile.flight_overwritten = stats.flight_overwritten;

  profile.tasks.reserve(stats.trace.size());
  for (const starvm::TaskTrace& t : stats.trace) {
    TaskProfile p;
    p.id = t.id;
    p.label = t.label;
    p.device = t.device;
    if (t.device >= 0 &&
        static_cast<std::size_t>(t.device) < stats.devices.size()) {
      p.device_name = stats.devices[static_cast<std::size_t>(t.device)].name;
    }
    p.ready_seconds = t.ready_vtime;
    p.start_seconds = t.start_vtime;
    p.finish_seconds = t.finish_vtime;
    p.overhead_seconds = overhead;
    p.transfer_seconds = t.transfer_seconds;
    p.compute_seconds = t.exec_seconds;
    // start = max(device available, ready) + overhead, so everything between
    // ready and (start - overhead) is time spent queued behind other work.
    p.queue_wait_seconds =
        std::max(0.0, t.start_vtime - overhead - t.ready_vtime);
    profile.tasks.push_back(std::move(p));
  }
  if (profile.tasks.empty()) return profile;

  // --- Measured critical path: walk backwards from the last finisher. ------
  // At every step decide why the task started when it did: if dispatch time
  // (start - overhead) coincides with its ready time, a dependency was the
  // constraint — follow the predecessor whose finish set that ready time.
  // Otherwise the device was busy — follow the latest task on the same
  // device that finished by dispatch time.
  const double eps = 1e-9 * std::max(1.0, profile.makespan_seconds) + 1e-12;
  int cur = 0;
  for (std::size_t i = 1; i < profile.tasks.size(); ++i) {
    if (profile.tasks[i].finish_seconds >
        profile.tasks[static_cast<std::size_t>(cur)].finish_seconds) {
      cur = static_cast<int>(i);
    }
  }
  std::vector<CriticalStep> reversed;
  CriticalEdge incoming = CriticalEdge::kStart;  // why the *current* step waited
  for (std::size_t guard = 0; guard <= profile.tasks.size(); ++guard) {
    const TaskProfile& t = profile.tasks[static_cast<std::size_t>(cur)];
    const double dispatch = t.start_seconds - t.overhead_seconds;
    int pred = -1;
    CriticalEdge edge = CriticalEdge::kStart;
    if (t.ready_seconds > eps && dispatch <= t.ready_seconds + eps) {
      // Ready-bound: the predecessor is whichever task's finish equals the
      // ready time (ready_vtime is the max over dependency finishes).
      for (std::size_t j = 0; j < profile.tasks.size(); ++j) {
        if (static_cast<int>(j) == cur) continue;
        const double f = profile.tasks[j].finish_seconds;
        if (f <= t.ready_seconds + eps && f >= t.ready_seconds - eps &&
            (pred < 0 ||
             f > profile.tasks[static_cast<std::size_t>(pred)].finish_seconds)) {
          pred = static_cast<int>(j);
        }
      }
      if (pred >= 0) edge = CriticalEdge::kDependency;
    }
    if (pred < 0 && dispatch > eps) {
      // Device-bound: the device drained earlier work until dispatch time.
      for (std::size_t j = 0; j < profile.tasks.size(); ++j) {
        if (static_cast<int>(j) == cur) continue;
        const TaskProfile& c = profile.tasks[j];
        if (c.device != t.device || c.finish_seconds > dispatch + eps) continue;
        if (pred < 0 ||
            c.finish_seconds >
                profile.tasks[static_cast<std::size_t>(pred)].finish_seconds) {
          pred = static_cast<int>(j);
        }
      }
      if (pred >= 0) edge = CriticalEdge::kDevice;
    }
    reversed.push_back(CriticalStep{cur, incoming});
    if (pred < 0) break;
    incoming = edge;
    cur = pred;
  }
  profile.critical_path.assign(reversed.rbegin(), reversed.rend());
  // The walk recorded, at each step, why its *successor* waited; after the
  // reversal the first step is the path's origin.
  if (!profile.critical_path.empty()) {
    for (std::size_t i = profile.critical_path.size(); i-- > 1;) {
      profile.critical_path[i].edge = profile.critical_path[i - 1].edge;
    }
    profile.critical_path.front().edge = CriticalEdge::kStart;
  }
  for (const CriticalStep& step : profile.critical_path) {
    TaskProfile& t = profile.tasks[static_cast<std::size_t>(step.task)];
    t.on_critical_path = true;
    profile.critical_queue_wait_seconds += t.queue_wait_seconds;
    profile.critical_overhead_seconds += t.overhead_seconds;
    profile.critical_transfer_seconds += t.transfer_seconds;
    profile.critical_compute_seconds += t.compute_seconds;
  }

  // --- Rate drift per (codelet, device). -----------------------------------
  std::map<std::pair<std::string, starvm::DeviceId>, RateDrift> drift;
  for (const TaskProfile& t : profile.tasks) {
    RateDrift& d = drift[{base_label(t.label), t.device}];
    d.label = base_label(t.label);
    d.device = t.device;
    d.device_name = t.device_name;
    ++d.tasks;
    d.exec_seconds += t.compute_seconds;
  }
  for (const starvm::TaskTrace& t : stats.trace) {
    drift[{base_label(t.label), t.device}].flops += t.flops;
  }
  for (auto& [key, d] : drift) {
    if (d.exec_seconds > 0.0 && d.flops > 0.0) {
      d.measured_gflops = d.flops / d.exec_seconds / 1e9;
    }
    if (d.device >= 0 &&
        static_cast<std::size_t>(d.device) < stats.devices.size()) {
      d.declared_gflops =
          stats.devices[static_cast<std::size_t>(d.device)].declared_gflops;
    }
    if (d.measured_gflops > 0.0 && d.declared_gflops > 0.0) {
      d.drift_ratio = d.measured_gflops / d.declared_gflops;
    }
    profile.drift.push_back(d);
  }
  return profile;
}

void apply_store_rates(RunProfile& profile, const starvm::EngineStats& stats,
                       const starvm::perf_store::Store& store) {
  for (RateDrift& d : profile.drift) {
    const std::uint64_t key =
        stats.devices[static_cast<std::size_t>(d.device)].class_key;
    for (const starvm::perf_store::Entry& entry : store.entries) {
      if (entry.codelet == d.label && entry.class_key == key &&
          entry.ema_gflops > 0.0) {
        d.store_gflops = entry.ema_gflops;
        if (d.measured_gflops > 0.0) {
          d.store_drift_ratio = d.measured_gflops / d.store_gflops;
        }
        break;
      }
    }
  }
}

pdl::util::Result<starvm::EngineStats> run_graph_on_platform(
    const starvm::TaskGraph& graph, const pdl::Platform& platform,
    const starvm::perf_store::Store* store,
    std::vector<const pdl::ProcessingUnit*>* origins) {
  starvm::BridgeOptions options;
  options.mode = starvm::ExecutionMode::kPureSim;
  // Every PU: an analysis run sets no cores aside as accelerator drivers.
  options.dedicate_driver_cores = false;
  auto config = starvm::engine_config_from_platform(platform, options, origins);
  if (!config.ok()) return config.error();

  // Pure-sim runs no kernel, so no buffer byte is ever read or written:
  // every handle aliases one shared word and only its registered extent
  // reaches the transfer model. Declared before the engine so the engine
  // dies first.
  double shared = 0.0;
  std::vector<starvm::Codelet> codelets(graph.tasks().size());
  std::unique_ptr<starvm::Engine> engine;
  try {
    engine = std::make_unique<starvm::Engine>(std::move(config).value());
  } catch (const std::invalid_argument& refused) {
    return pdl::util::Error{std::string("the runtime refuses this platform: ") +
                            refused.what()};
  }
  if (store != nullptr) starvm::perf_store::preload(*store, engine->perf_model());

  std::vector<starvm::DataHandle*> handles;
  handles.reserve(graph.buffers().size());
  for (const starvm::GraphBuffer& buffer : graph.buffers()) {
    const std::size_t doubles =
        std::max<std::size_t>(1, static_cast<std::size_t>(buffer.bytes / 8));
    handles.push_back(engine->register_vector(&shared, doubles, buffer.name));
  }
  for (std::size_t i = 0; i < codelets.size(); ++i) {
    const starvm::GraphTask& task = graph.tasks()[i];
    starvm::Codelet& codelet = codelets[i];
    codelet.name = task.name;
    codelet.impls = {{starvm::DeviceKind::kCpu, {}},
                     {starvm::DeviceKind::kAccelerator, {}}};
    const double flops = task.flops;
    // A graph task's flops of 0 means unknown work (GraphTask::flops).
    if (flops > 0.0) {
      codelet.flops = [flops](const std::vector<starvm::BufferView>&) {
        return flops;
      };
    }
  }
  starvm::submit_graph(*engine, graph, handles, codelets);
  // A failed drain still yields a profile-worthy trace; the stats carry the
  // errors for the caller to surface.
  (void)engine->wait_all();
  return engine->stats();
}

std::string render_profile_text(const RunProfile& profile) {
  std::ostringstream os;
  if (profile.tasks.empty()) {
    os << "profile: empty trace\n";
    return os.str();
  }
  os << "measured critical path (" << profile.critical_path.size()
     << " steps, makespan " << ms(profile.makespan_seconds) << "):\n";
  for (const CriticalStep& step : profile.critical_path) {
    const TaskProfile& t = profile.tasks[static_cast<std::size_t>(step.task)];
    os << "  [" << to_string(step.edge) << "] task " << t.id << " '" << t.label
       << "' on " << (t.device_name.empty() ? "?" : t.device_name)
       << ": ready " << ms(t.ready_seconds) << ", start "
       << ms(t.start_seconds) << ", finish " << ms(t.finish_seconds)
       << " (wait " << ms(t.queue_wait_seconds) << ", transfer "
       << ms(t.transfer_seconds) << ", compute " << ms(t.compute_seconds)
       << ")\n";
  }
  os << "critical-path attribution: queue wait "
     << ms(profile.critical_queue_wait_seconds) << ", overhead "
     << ms(profile.critical_overhead_seconds) << ", transfer "
     << ms(profile.critical_transfer_seconds) << ", compute "
     << ms(profile.critical_compute_seconds) << "\n";
  os << "rate drift per (task, device):\n";
  for (const RateDrift& d : profile.drift) {
    os << "  " << d.label << " @ "
       << (d.device_name.empty() ? "?" : d.device_name) << ": " << d.tasks
       << " task(s), measured " << gf(d.measured_gflops)
       << " GFLOPS, declared " << gf(d.declared_gflops) << " GFLOPS";
    if (d.drift_ratio > 0.0) os << ", ratio " << ratio2(d.drift_ratio);
    if (d.store_gflops > 0.0) {
      os << ", store " << gf(d.store_gflops) << " GFLOPS";
      if (d.store_drift_ratio > 0.0) {
        os << " (x" << ratio2(d.store_drift_ratio) << ")";
      }
    }
    os << "\n";
  }
  os << "flight recorder: " << profile.flight_records << " record(s), "
     << profile.flight_overwritten << " overwritten\n";
  return os.str();
}

}  // namespace analysis
