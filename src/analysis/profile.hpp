// Critical-path profiler: take the trace of a finished engine run,
// attribute each task's span to queue wait / transfer / compute / runtime
// overhead, and extract the critical path by walking finish -> ready edges
// backwards. run_graph_on_platform lowers a recorded task graph into the
// pure-sim engine the bridge builds; that one run is also what the A5xx
// schedule plan (schedule_sim.hpp) is read from.
//
// The drift table is the paper's feedback loop made concrete: PDL declares
// SUSTAINED_GFLOPS per PU; the profiler reports, per (codelet label,
// device), the rate the run actually achieved — a declared rate that is
// consistently wrong is a platform-description bug, not a runtime bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdl/model.hpp"
#include "starvm/graph.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/stats.hpp"
#include "util/result.hpp"

namespace analysis {

/// One executed task with its span attributed to where the time went.
/// Invariant: finish - ready == queue_wait + overhead + transfer + compute
/// (up to clamping of a negative queue wait, which indicates an untracked
/// ready time rather than real anticipation).
struct TaskProfile {
  starvm::TaskId id = 0;
  std::string label;
  starvm::DeviceId device = -1;
  std::string device_name;
  double ready_seconds = 0.0;   ///< Every dependency finished here.
  double start_seconds = 0.0;   ///< Execution began (after overhead).
  double finish_seconds = 0.0;
  double queue_wait_seconds = 0.0;  ///< Device contention: dispatch - ready.
  double overhead_seconds = 0.0;    ///< EngineConfig::task_overhead_us.
  double transfer_seconds = 0.0;
  double compute_seconds = 0.0;
  bool on_critical_path = false;
};

/// Why a critical-path step had to wait for its predecessor.
enum class CriticalEdge {
  kStart,       ///< First step of the path.
  kDependency,  ///< Waited for a dependency to finish (ready-bound).
  kDevice,      ///< Waited for its device to drain earlier work.
};

const char* to_string(CriticalEdge edge);

/// One step of the measured critical path, in execution order.
struct CriticalStep {
  int task = -1;  ///< Index into RunProfile::tasks.
  CriticalEdge edge = CriticalEdge::kStart;
};

/// Achieved vs declared compute rate for one (task label, device) pair.
struct RateDrift {
  std::string label;
  starvm::DeviceId device = -1;
  std::string device_name;
  std::uint64_t tasks = 0;
  double flops = 0.0;
  double exec_seconds = 0.0;
  double measured_gflops = 0.0;
  double declared_gflops = 0.0;  ///< 0 = no declared rate to compare with.
  /// measured / declared; 0 when either side is unknown. 1.0 means the
  /// platform description told the truth.
  double drift_ratio = 0.0;
  /// Learned EMA rate from a persisted perf store (apply_store_rates);
  /// 0 = the store holds no entry for this label on the device's class.
  double store_gflops = 0.0;
  /// measured / store-learned; a ratio far from 1.0 flags a decayed store
  /// entry (the machine, or the kernel, changed since it was learned).
  double store_drift_ratio = 0.0;
};

struct RunProfile {
  std::vector<TaskProfile> tasks;        ///< Virtual-clock order.
  std::vector<CriticalStep> critical_path;
  double makespan_seconds = 0.0;
  // Attribution summed over the critical path only: where the makespan
  // actually went.
  double critical_queue_wait_seconds = 0.0;
  double critical_overhead_seconds = 0.0;
  double critical_transfer_seconds = 0.0;
  double critical_compute_seconds = 0.0;
  std::vector<RateDrift> drift;  ///< Sorted by label, then device.
  std::uint64_t flight_records = 0;
  std::uint64_t flight_overwritten = 0;
};

/// Profile a finished run from its statistics (call after wait_all()).
RunProfile profile_run(const starvm::EngineStats& stats);

/// Annotate the drift table with the learned rates of a persisted perf
/// store (RateDrift::store_gflops / store_drift_ratio): the third column of
/// the feedback loop — declared (PDL), learned (store), measured (this
/// run). A drift row reads the entry of its label and its device's class
/// (DeviceStats::class_key of the run `stats` the profile came from).
void apply_store_rates(RunProfile& profile, const starvm::EngineStats& stats,
                       const starvm::perf_store::Store& store);

/// Execute a recorded graph on a platform: a pure-sim engine the bridge
/// builds over every PU, one synthetic codelet per task, deterministic and
/// fault-free.
/// `store`, when given, is preloaded into the run's perf model (entries of
/// the platform's device classes); `origins` receives the PU of each
/// device. Fails, naming the reason, when the bridge or the engine refuses
/// the platform.
pdl::util::Result<starvm::EngineStats> run_graph_on_platform(
    const starvm::TaskGraph& graph, const pdl::Platform& platform,
    const starvm::perf_store::Store* store = nullptr,
    std::vector<const pdl::ProcessingUnit*>* origins = nullptr);

/// Human-readable report: critical path with per-step attribution, the
/// makespan breakdown, and the rate-drift table. Deterministic.
std::string render_profile_text(const RunProfile& profile);

}  // namespace analysis
