#include "analysis/schedule_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "analysis/profile.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"

namespace analysis {

namespace {

/// Host memory space (index 0): the first sized MemoryRegion found on a
/// Master, in declaration order. No capacity (0) when none declares SIZE.
SimMemorySpace host_space(const pdl::Platform& platform) {
  SimMemorySpace space;
  space.label = "<host>";
  for (const pdl::ProcessingUnit* master :
       pdl::pus_of_kind(platform, pdl::PuKind::kMaster)) {
    for (const pdl::MemoryRegion& mr : master->memory_regions()) {
      if (auto bytes = pdl::props::memory_capacity_bytes(mr)) {
        space.label = master->path() + "/" + mr.id;
        space.loc = mr.loc.valid() ? mr.loc : master->loc();
        space.pu_path = master->path();
        space.capacity_bytes = *bytes;
        return space;
      }
    }
  }
  return space;
}

/// One accelerator's local memory: the PU's first sized MemoryRegion, the
/// region the bridge reads the device's capacity from.
SimMemorySpace accelerator_space(const pdl::ProcessingUnit& pu,
                                 const std::string& device_name) {
  SimMemorySpace space;
  space.label = device_name + "/<no sized MemoryRegion>";
  space.loc = pu.loc();
  space.pu_path = pu.path();
  for (const pdl::MemoryRegion& mr : pu.memory_regions()) {
    if (auto bytes = pdl::props::memory_capacity_bytes(mr)) {
      space.label = device_name + "/" + mr.id;
      if (mr.loc.valid()) space.loc = mr.loc;
      space.capacity_bytes = *bytes;
      break;
    }
  }
  return space;
}

/// Time covered by >= 2 of one interconnect's [begin, end] leg windows.
double contended_time(const std::vector<std::pair<double, double>>& windows) {
  struct Edge {
    double time;
    int delta;
  };
  std::vector<Edge> edges;
  for (const auto& [begin, end] : windows) {
    if (end <= begin) continue;
    edges.push_back({begin, +1});
    edges.push_back({end, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // closings first: touching windows don't overlap
  });
  double contended = 0.0;
  double last = 0.0;
  int depth = 0;
  for (const Edge& e : edges) {
    if (depth >= 2) contended += e.time - last;
    depth += e.delta;
    last = e.time;
  }
  return contended;
}

std::string format_ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}

}  // namespace

SchedulePlan simulate_schedule(const starvm::TaskGraph& graph,
                               const pdl::Platform& platform,
                               const starvm::perf_store::Store* store) {
  SchedulePlan plan;
  const auto& tasks = graph.tasks();
  plan.placements.assign(tasks.size(), TaskPlacement{});
  std::vector<const pdl::ProcessingUnit*> origins;
  auto run = run_graph_on_platform(graph, platform, store, &origins);
  if (!run.ok()) {
    plan.failure = run.error().str();
    return plan;
  }
  const starvm::EngineStats& stats = run.value();

  // --- Devices, named by the engine, located by the PU each came from ------
  // Every root starts on the host, so the host space peaks at t = 0.
  plan.spaces.push_back(host_space(platform));
  plan.spaces[0].peak_bytes = graph.total_root_bytes();
  std::map<const pdl::Interconnect*, int> ic_index;
  for (std::size_t d = 0; d < stats.devices.size(); ++d) {
    const pdl::ProcessingUnit& pu = *origins[d];
    SimDevice dev;
    dev.name = stats.devices[d].name;
    dev.pu_path = pu.path();
    dev.loc = pu.loc();
    dev.is_cpu = stats.devices[d].kind == starvm::DeviceKind::kCpu;
    if (!dev.is_cpu) {
      dev.space = static_cast<int>(plan.spaces.size());
      plan.spaces.push_back(accelerator_space(pu, dev.name));
      const pdl::Interconnect* ic =
          pu.parent() != nullptr
              ? pdl::find_interconnect(platform, pu.parent()->id(), pu.id())
              : nullptr;
      dev.has_declared_link = ic != nullptr;
      if (ic != nullptr) {
        const auto [it, inserted] = ic_index.emplace(
            ic, static_cast<int>(plan.interconnects.size()));
        if (inserted) {
          SimInterconnect link;
          link.label = ic->from + "<->" + ic->to;
          if (!ic->type.empty()) link.label += " (" + ic->type + ")";
          link.loc = ic->loc;
          plan.interconnects.push_back(std::move(link));
        }
        dev.ic = it->second;
      }
    }
    plan.devices.push_back(std::move(dev));
  }
  std::map<starvm::MemoryNodeId, int> device_of_node;
  for (const starvm::NodePeak& peak : stats.node_peaks) {
    device_of_node[peak.node] = peak.device;
    SimMemorySpace& space =
        plan.spaces[static_cast<std::size_t>(plan.devices[peak.device].space)];
    space.peak_bytes = peak.bytes;
    space.peak_seconds = peak.vtime;
  }

  // --- Placements, loads and legs, straight from the run --------------------
  const double overhead = stats.task_overhead_us * 1e-6;
  plan.device_busy_seconds.assign(plan.devices.size(), 0.0);
  for (const starvm::TaskTrace& t : stats.trace) {
    TaskPlacement& p = plan.placements[static_cast<std::size_t>(t.id - 1)];
    p.device = t.device;
    // The engine's start_vtime adds its dispatch overhead to the moment
    // the device took the task.
    p.start_seconds = std::max(t.ready_vtime, t.start_vtime - overhead);
    p.finish_seconds = t.finish_vtime;
    p.compute_seconds = t.exec_seconds;
    p.transfer_seconds = t.transfer_seconds;
    plan.device_busy_seconds[static_cast<std::size_t>(t.device)] +=
        p.finish_seconds - p.start_seconds;
  }
  plan.makespan_seconds = stats.makespan_seconds;
  std::vector<std::vector<std::pair<double, double>>> windows(
      plan.interconnects.size());
  for (const starvm::TransferLeg& leg : stats.transfer_legs) {
    plan.placements[static_cast<std::size_t>(leg.task - 1)].transfer_bytes +=
        leg.bytes;
    const int ic = plan.devices[static_cast<std::size_t>(
                                    device_of_node.at(leg.node))]
                       .ic;
    if (ic < 0) continue;
    SimInterconnect& link = plan.interconnects[static_cast<std::size_t>(ic)];
    link.transfers += 1;
    link.busy_seconds += leg.end_vtime - leg.begin_vtime;
    windows[static_cast<std::size_t>(ic)].emplace_back(leg.begin_vtime,
                                                       leg.end_vtime);
  }
  for (std::size_t ic = 0; ic < plan.interconnects.size(); ++ic) {
    plan.interconnects[ic].contended_seconds = contended_time(windows[ic]);
  }

  // --- Critical path on the fastest device (the makespan lower bound) -------
  // Priced like the engine's estimates (learned rate, else declared rate),
  // on one device per device class.
  std::vector<std::uint64_t> class_keys;
  std::vector<double> class_gflops;
  for (const starvm::DeviceStats& d : stats.devices) {
    if (std::find(class_keys.begin(), class_keys.end(), d.class_key) ==
        class_keys.end()) {
      class_keys.push_back(d.class_key);
      class_gflops.push_back(d.declared_gflops);
    }
  }
  starvm::PerfModel rates(class_keys);
  if (store != nullptr) starvm::perf_store::preload(*store, rates);
  const int n = static_cast<int>(tasks.size());
  std::vector<std::vector<int>> preds(tasks.size());
  for (const auto& e : graph.edges()) {
    if (e.from >= 0 && e.from < n && e.to >= 0 && e.to < n) {
      preds[e.to].push_back(e.from);
    }
  }
  std::vector<double> dp(tasks.size(), 0.0);
  std::vector<int> via(tasks.size(), -1);
  int tail = -1;
  for (int t = 0; t < n; ++t) {  // submission order is topological
    // A graph task's flops of 0 means unknown work (GraphTask::flops).
    const std::optional<double> work =
        tasks[t].flops > 0.0 ? std::optional<double>(tasks[t].flops) : std::nullopt;
    double fastest = 0.0;
    for (std::size_t c = 0; c < class_keys.size(); ++c) {
      const double est = rates.estimate(tasks[t].name, c, work, class_gflops[c]);
      if (c == 0 || est < fastest) fastest = est;
    }
    double longest = 0.0;
    for (int p : preds[t]) {
      if (dp[p] > longest) {
        longest = dp[p];
        via[t] = p;
      } else if (dp[p] == longest && via[t] >= 0 && p < via[t]) {
        via[t] = p;  // deterministic tie-break
      }
    }
    dp[t] = longest + fastest;
    if (tail < 0 || dp[t] > dp[tail]) tail = t;
  }
  if (tail >= 0) {
    plan.critical_path_seconds = dp[tail];
    for (int node = tail; node >= 0; node = via[node]) {
      plan.critical_path.push_back(node);
    }
    std::reverse(plan.critical_path.begin(), plan.critical_path.end());
  }
  return plan;
}

std::string render_plan_text(const SchedulePlan& plan,
                             const starvm::TaskGraph& graph) {
  if (!plan.failure.empty()) {
    return "schedule plan: none (" + plan.failure + ")\n";
  }
  std::string out;
  out += "schedule plan: " + std::to_string(graph.tasks().size()) +
         " task(s) on " + std::to_string(plan.devices.size()) +
         " device(s)\n";
  out += "  makespan: " + format_ms(plan.makespan_seconds) + " ms";
  out += "  (critical-path lower bound: " +
         format_ms(plan.critical_path_seconds) + " ms)\n";
  if (!plan.critical_path.empty()) {
    out += "  critical path:";
    for (int t : plan.critical_path) {
      out += " " + graph.tasks()[static_cast<std::size_t>(t)].name;
    }
    out += "\n";
  }
  for (std::size_t d = 0; d < plan.devices.size(); ++d) {
    const double busy = plan.device_busy_seconds[d];
    const double util =
        plan.makespan_seconds > 0.0 ? busy / plan.makespan_seconds : 0.0;
    out += "  device " + plan.devices[d].name + ": busy " + format_ms(busy) +
           " ms (" + format_pct(util) + ")\n";
  }
  for (const SimMemorySpace& space : plan.spaces) {
    if (space.peak_bytes == 0) continue;
    out += "  memory " + space.label + ": peak " +
           std::to_string(space.peak_bytes) + " B";
    if (space.capacity_bytes > 0) {
      out += " of " + std::to_string(space.capacity_bytes) + " B";
    }
    out += "\n";
  }
  for (const SimInterconnect& ic : plan.interconnects) {
    if (ic.transfers == 0) continue;
    out += "  interconnect " + ic.label + ": " +
           std::to_string(ic.transfers) + " transfer(s), busy " +
           format_ms(ic.busy_seconds) + " ms, contended " +
           format_ms(ic.contended_seconds) + " ms\n";
  }
  return out;
}

}  // namespace analysis
