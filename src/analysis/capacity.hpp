// Layer (d) of the cross-layer analyzer: schedule-aware capacity and
// interference rules (A5xx) over the schedule the runtime's own pure-sim
// run produces (schedule_sim.hpp).
//
// Where A1xx-A4xx ask "is this structurally correct?", A5xx asks "does the
// program fit and perform on the described platform?" — in the spirit of
// PML-style interference analysis: the PDL's declared MemoryRegion sizes,
// BANDWIDTH_GB_S and LATENCY_US are strong enough to bound peak footprints,
// transfer costs and contention windows before anything runs.
//
//   A501  peak resident bytes exceed a declared MemoryRegion SIZE
//   A502  schedule moves data to a PU with no declared Interconnect path
//   A503  task whose modeled transfer time exceeds its modeled compute
//   A504  device idle almost the whole modeled makespan (load imbalance)
//   A505  interconnect carrying overlapping transfers for a significant
//         fraction of the makespan (oversubscription window)
//
// The thresholds are deliberately conservative so nominal static graphs
// (1 kB buffers, unknown FLOPs) stay clean; see docs/ANALYSIS.md.
#pragma once

#include "analysis/analyzer.hpp"
#include "analysis/schedule_sim.hpp"

namespace analysis {

/// Run the A5xx rules over a precomputed plan. A plan the runtime refused
/// to build (SchedulePlan::failure) yields one error naming the reason.
void analyze_schedule_plan(const SchedulePlan& plan,
                           const starvm::TaskGraph& graph,
                           const AnalysisOptions& options,
                           pdl::Diagnostics& diags);

/// Convenience: simulate (schedule_sim.hpp) and analyze in one call. The
/// returned plan lets tools also render the plan summary.
SchedulePlan analyze_schedule(const starvm::TaskGraph& graph,
                              const pdl::Platform& platform,
                              const AnalysisOptions& options,
                              pdl::Diagnostics& diags,
                              const starvm::perf_store::Store* store = nullptr);

}  // namespace analysis
