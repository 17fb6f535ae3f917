// The A5xx schedule plan: where and when the runtime places a recorded
// starvm::TaskGraph on the device set a PDL platform describes.
//
// The plan is a view over one kPureSim run of the graph on the engine the
// starvm bridge builds for the platform (run_graph_on_platform,
// profile.hpp). Placements, transfer legs, device loads, accelerator memory
// peaks and the makespan all come from that run, so the analyzer and the
// runtime cannot disagree about where a task runs or what its data
// movement costs. What the run does not know — which MemoryRegion,
// Interconnect and source location a device's numbers belong to — is read
// from the PU the bridge made the device from. Only the critical-path lower
// bound is analytic. The resulting SchedulePlan carries everything the A5xx
// capacity/interference rules (capacity.hpp) and the plan-summary renderer
// need.
//
// Determinism: the pure-sim engine is a single-threaded discrete-event
// loop with fixed tie-breaks, so identical inputs give byte-identical plans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "starvm/graph.hpp"
#include "starvm/perf_store.hpp"

namespace analysis {

/// One engine device, with the PU it came from.
struct SimDevice {
  std::string name;      ///< Engine device name ("id", or "id#i" expanded).
  std::string pu_path;   ///< Master/…/pu path for diagnostics.
  pdl::SourceLoc loc;    ///< The PU's source location.
  bool is_cpu = true;
  int space = 0;   ///< Index into SchedulePlan::spaces.
  int ic = -1;     ///< Index into SchedulePlan::interconnects; -1 = none.
  /// False when the PU has no declared Interconnect to its controller, so
  /// the engine priced its transfers with the default link (A502).
  bool has_declared_link = true;
};

/// One memory space buffers can be resident in: the host region (index 0,
/// shared by every CPU device) or an accelerator instance's local memory.
struct SimMemorySpace {
  std::string label;     ///< "<pu path>/<region id>" or "<host>".
  pdl::SourceLoc loc;    ///< The MemoryRegion's (or owning PU's) location.
  std::string pu_path;
  std::uint64_t capacity_bytes = 0;  ///< 0 = no SIZE declared (no A501).
  std::uint64_t peak_bytes = 0;      ///< Peak resident bytes in the run.
  double peak_seconds = 0.0;         ///< When the peak is reached.
};

/// One declared Interconnect transfers were charged on.
struct SimInterconnect {
  std::string label;   ///< "from<->to" plus the type when declared.
  pdl::SourceLoc loc;
  int transfers = 0;               ///< Charged transfer legs.
  double busy_seconds = 0.0;       ///< Sum of leg lengths.
  double contended_seconds = 0.0;  ///< Time covered by >= 2 legs.
};

/// Where and when the run executed one task.
struct TaskPlacement {
  int device = -1;                ///< -1 when the task never completed.
  double start_seconds = 0.0;     ///< The device takes the task here.
  double finish_seconds = 0.0;
  double compute_seconds = 0.0;
  double transfer_seconds = 0.0;  ///< Total charged data movement.
  std::uint64_t transfer_bytes = 0;
};

struct SchedulePlan {
  std::vector<SimDevice> devices;
  std::vector<SimMemorySpace> spaces;
  std::vector<SimInterconnect> interconnects;
  std::vector<TaskPlacement> placements;      ///< One per graph task.
  std::vector<double> device_busy_seconds;    ///< One per device.
  std::vector<int> critical_path;             ///< Task indices, in order.
  double critical_path_seconds = 0.0;  ///< Lower bound: fastest device, no transfers.
  double makespan_seconds = 0.0;
  /// Why the runtime refused the platform (no plan was built); empty
  /// when the run happened.
  std::string failure;
};

/// Run `graph` on `platform` (run_graph_on_platform) and read the plan off
/// the run. `store`, when given, prices compute in the run and in the lower
/// bound at the learned rates of the platform's device classes.
/// Platforms without any executing PU fall back to the Master as a single
/// CPU device, like the starvm bridge.
SchedulePlan simulate_schedule(const starvm::TaskGraph& graph,
                               const pdl::Platform& platform,
                               const starvm::perf_store::Store* store = nullptr);

/// Human-readable plan summary (makespan, lower bound, critical path,
/// per-device loads, per-space peaks); deterministic, millisecond-formatted.
std::string render_plan_text(const SchedulePlan& plan,
                             const starvm::TaskGraph& graph);

}  // namespace analysis
