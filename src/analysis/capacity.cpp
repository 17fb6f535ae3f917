#include "analysis/capacity.hpp"

#include <cstdio>
#include <optional>
#include <string>

#include "analysis/rules.hpp"

namespace analysis {

namespace {

// Gates keeping A5xx quiet on nominal graphs (unknown FLOPs, kB buffers):
// a schedule must be clearly degenerate before we call it a finding.
constexpr double kImbalanceIdleFraction = 0.9;     // A504: busy < 10%
constexpr double kImbalanceMakespanSlack = 1.25;   // A504: 25% over the bound
constexpr double kOversubscriptionFraction = 0.1;  // A505: 10% of makespan

std::string ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

struct Emit {
  const AnalysisOptions& options;
  pdl::Diagnostics& diags;

  void operator()(const char* rule, std::string message, pdl::SourceLoc loc,
                  std::string where) const {
    if (!rule_enabled(options, rule)) return;
    pdl::Severity severity = pdl::Severity::kWarning;
    if (const RuleInfo* info = find_rule(rule)) {
      severity = info->default_severity;
    }
    severity = effective_severity(options, rule, severity);
    pdl::add_finding(diags, severity, rule, std::move(message), std::move(loc),
                     std::move(where));
  }
};

}  // namespace

void analyze_schedule_plan(const SchedulePlan& plan,
                           const starvm::TaskGraph& graph,
                           const AnalysisOptions& options,
                           pdl::Diagnostics& diags) {
  if (!plan.failure.empty()) {
    pdl::add_error(diags, "schedule analysis skipped: " + plan.failure);
    return;
  }
  const Emit emit{options, diags};
  const auto& tasks = graph.tasks();

  // A501: peak resident bytes vs declared capacity.
  for (const SimMemorySpace& space : plan.spaces) {
    if (space.capacity_bytes == 0 || space.peak_bytes <= space.capacity_bytes) {
      continue;
    }
    emit(kMemoryCapacityExceeded,
         "modeled peak working set of " + std::to_string(space.peak_bytes) +
             " B (at " + ms(space.peak_seconds) + ") exceeds the " +
             std::to_string(space.capacity_bytes) +
             " B capacity MemoryRegion '" + space.label + "' declares",
         space.loc, space.pu_path);
  }

  // A502: transfers charged to a device with no declared Interconnect.
  for (std::size_t d = 0; d < plan.devices.size(); ++d) {
    const SimDevice& dev = plan.devices[d];
    if (dev.is_cpu || dev.has_declared_link) continue;
    std::uint64_t moved = 0;
    for (const TaskPlacement& p : plan.placements) {
      if (p.device == static_cast<int>(d)) moved += p.transfer_bytes;
    }
    if (moved == 0) continue;
    emit(kNoTransferPath,
         "modeled schedule moves " + std::to_string(moved) + " B to device '" +
             dev.name +
             "' but its PU declares no Interconnect to its controller; "
             "transfer costs use the runtime's default link",
         dev.loc, dev.pu_path);
  }

  // A503: transfer-bound tasks under the declared link parameters.
  for (std::size_t t = 0; t < plan.placements.size(); ++t) {
    const TaskPlacement& p = plan.placements[t];
    if (p.device < 0 || p.transfer_bytes == 0) continue;
    if (p.transfer_seconds <= p.compute_seconds) continue;
    const SimDevice& dev = plan.devices[static_cast<std::size_t>(p.device)];
    emit(kTransferBoundTask,
         "task '" + tasks[t].name + "' on device '" + dev.name +
             "' spends " + ms(p.transfer_seconds) + " moving " +
             std::to_string(p.transfer_bytes) + " B but only " +
             ms(p.compute_seconds) +
             " computing; transfers dominate under the declared "
             "bandwidth/latency",
         tasks[t].loc, tasks[t].name);
  }

  // A504: devices left idle by a schedule already far over its lower bound.
  if (plan.devices.size() >= 2 && plan.makespan_seconds > 0.0 &&
      tasks.size() >= 2 * plan.devices.size() &&
      plan.makespan_seconds >
          plan.critical_path_seconds * kImbalanceMakespanSlack) {
    for (std::size_t d = 0; d < plan.devices.size(); ++d) {
      const double busy = plan.device_busy_seconds[d];
      const double idle = 1.0 - busy / plan.makespan_seconds;
      if (idle <= kImbalanceIdleFraction) continue;
      char pct[32];
      std::snprintf(pct, sizeof(pct), "%.0f%%", idle * 100.0);
      emit(kLoadImbalance,
           "device '" + plan.devices[d].name + "' is idle " + pct +
               " of the modeled makespan (" + ms(plan.makespan_seconds) +
               " vs a " + ms(plan.critical_path_seconds) +
               " critical-path lower bound) — the schedule cannot use it",
           plan.devices[d].loc, plan.devices[d].pu_path);
    }
  }

  // A505: interconnect oversubscription windows.
  for (const SimInterconnect& ic : plan.interconnects) {
    if (plan.makespan_seconds <= 0.0 || ic.contended_seconds <= 0.0) continue;
    if (ic.contended_seconds <=
        kOversubscriptionFraction * plan.makespan_seconds) {
      continue;
    }
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.0f%%",
                  ic.contended_seconds / plan.makespan_seconds * 100.0);
    emit(kInterconnectOversubscribed,
         "interconnect " + ic.label + " carries overlapping transfers for " +
             ms(ic.contended_seconds) + " (" + pct +
             " of the modeled makespan, " + std::to_string(ic.transfers) +
             " transfer(s)) — concurrent tasks contend for the same link",
         ic.loc, ic.label);
  }
}

SchedulePlan analyze_schedule(const starvm::TaskGraph& graph,
                              const pdl::Platform& platform,
                              const AnalysisOptions& options,
                              pdl::Diagnostics& diags,
                              const starvm::perf_store::Store* store) {
  SchedulePlan plan = simulate_schedule(graph, platform, store);
  analyze_schedule_plan(plan, graph, options, diags);
  return plan;
}

}  // namespace analysis
