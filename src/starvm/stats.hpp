// Execution statistics and per-task traces reported by the engine.
//
// The modeled (virtual-clock) makespan is the quantity Figure-5 style
// benches report; wall_seconds is the real elapsed time, meaningful for
// CPU-only configurations in hybrid mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "starvm/types.hpp"

namespace starvm {

struct TaskTrace {
  TaskId id = 0;
  std::string label;
  DeviceId device = -1;
  double start_vtime = 0.0;
  double finish_vtime = 0.0;
  double transfer_seconds = 0.0;
  double exec_seconds = 0.0;
  double flops = 0.0;  ///< work estimate from the codelet's flops model
  /// Virtual time when every dependency had finished; start - ready is the
  /// task's queue wait (scheduling + device contention). Appended last so
  /// positional initializers predating it stay valid (defaults to 0).
  double ready_vtime = 0.0;
};

/// One charged transfer leg: `bytes` crossing the host link of memory node
/// `node` on behalf of `task`, over [begin_vtime, end_vtime]. A move
/// between two accelerators is two legs, one per link it bounces over.
struct TransferLeg {
  TaskId task = 0;
  MemoryNodeId node = kHostNode;
  std::uint64_t bytes = 0;
  double begin_vtime = 0.0;
  double end_vtime = 0.0;
};

/// High-water mark of the bytes resident on one accelerator memory node,
/// owned by device `device`.
struct NodePeak {
  MemoryNodeId node = kHostNode;
  DeviceId device = -1;
  std::uint64_t bytes = 0;
  double vtime = 0.0;  ///< when `bytes` was first reached
};

struct DeviceStats {
  std::string name;
  DeviceKind kind = DeviceKind::kCpu;
  std::uint64_t tasks_run = 0;
  double busy_seconds = 0.0;      ///< modeled execution time on this device
  double transfer_seconds = 0.0;  ///< modeled transfer time paid by its tasks
  std::uint64_t failures = 0;     ///< failed execution attempts
  bool blacklisted = false;       ///< removed from scheduling after failures
  double mtbf_hours = 0.0;        ///< declared rate (PDL MTBF_HOURS); 0 = n/a
  /// Declared sustained rate (DeviceSpec::sustained_gflops): the baseline
  /// the profiler's measured-rate drift is computed against.
  double declared_gflops = 0.0;
};

/// One fault-tolerance decision, in virtual-clock order. Rendered as
/// instant events in the Chrome trace and emitted on the obs event sink.
struct FaultEvent {
  /// The flight record's kind; a fault event is one of kRetry through
  /// kCancelled, and obs::to_string names it.
  using Kind = obs::FlightKind;
  Kind kind = Kind::kFailure;
  double vtime = 0.0;
  TaskId task = 0;      ///< 0 when the event concerns a device only
  DeviceId device = -1;
  int attempt = 0;
  std::string detail;
};

/// One execution attempt in a task's fault-tolerance history. Every attempt
/// that ends (success, failure, timeout) and every forced move (reroute off
/// a blacklisted device, cancellation) appends an entry, so the full chain
/// — which device, which attempt number, why it ended — survives aggregation
/// into wait_all()'s one-line status. The explorer's A603/A604 oracles and
/// EngineStats::errors both read this.
struct TaskAttempt {
  enum class Outcome {
    kCompleted,  ///< the attempt finished successfully
    kFailed,     ///< the attempt failed (injected fault, fail(), throw)
    kTimeout,    ///< the watchdog rejected the attempt
    kRerouted,   ///< queued work moved off a blacklisted device (no attempt)
    kCancelled,  ///< cancelled before running (failed dependency)
  };
  TaskId task = 0;
  int attempt = 0;        ///< attempt number (1-based); 0 for pre-run moves
  DeviceId device = -1;   ///< device of the attempt (target device for moves)
  Outcome outcome = Outcome::kCompleted;
  double vtime = 0.0;     ///< virtual time the attempt ended / the move happened
  std::string cause;      ///< failure reason / reroute or cancel explanation
};

const char* to_string(TaskAttempt::Outcome outcome);

/// One candidate the scheduler could have placed a task on, with the
/// finish time the cost model predicted at decision time. A candidate
/// stands for a whole placement class: `class_size` interchangeable
/// devices share the recorded estimate, so the log stays exact (every
/// distinct cost appears, the winner always among them) without one entry
/// per device of a 1k-worker group.
struct DecisionCandidate {
  DeviceId device = -1;
  std::string device_name;
  int class_size = 1;  ///< devices this candidate stands for
  double est_finish_vtime = 0.0;  ///< max(avail, ready) + transfer + exec estimate
};

/// A placement decision: which device won a task and what the alternatives
/// looked like. Recorded when EngineConfig::record_decisions is set or an
/// obs trace/event sink is active.
struct SchedulerDecision {
  TaskId task = 0;
  std::string label;
  DeviceId chosen = -1;
  double decided_vtime = 0.0;  ///< virtual time when the task started
  std::vector<DecisionCandidate> candidates;
};

struct EngineStats {
  double makespan_seconds = 0.0;  ///< modeled: max task finish on the virtual clock
  double wall_seconds = 0.0;      ///< real elapsed time between first submit and drain
  /// Tasks accepted by submit()/submit_batch() — counted once per task, so
  /// a batch of N adds N (not 1).
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  /// Per-task virtual overhead charged at dispatch
  /// (EngineConfig::task_overhead_us), echoed for the profiler.
  double task_overhead_us = 0.0;
  /// Tasks a lane took from another lane's queue instead of its own
  /// (work-stealing policy, threaded mode; 0 in the simulation modes).
  std::uint64_t steals = 0;
  std::uint64_t transfers = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t evictions = 0;        ///< replicas dropped for capacity
  std::uint64_t writeback_bytes = 0;  ///< evicted sole replicas copied home
  /// Transfers modeled with the hard-coded default link because a memory
  /// node had no owning device spec. Always 0 for engine-built platforms
  /// (every non-host node is created from a device); non-zero means a bug.
  std::uint64_t link_spec_misses = 0;

  // --- persisted perf models (docs/RUNTIME.md) ---
  /// Calibration cells preloaded from the perf store at construction.
  std::uint64_t perf_store_entries = 0;
  /// Stores refused at construction (version mismatch, corrupt file, or
  /// descriptor-hash mismatch); the run fell back to declared rates.
  std::uint64_t perf_store_rejected = 0;
  /// (codelet, device) cells seeded from declared SUSTAINED_GFLOPS at task
  /// wiring — the shared warm/cold code path for pre-history estimates.
  std::uint64_t perf_model_seeds = 0;

  // --- fault tolerance ---
  std::uint64_t task_failures = 0;        ///< failed attempts (incl. timeouts)
  std::uint64_t retries = 0;              ///< attempts re-queued after failure
  std::uint64_t timeouts = 0;             ///< attempts rejected by the watchdog
  std::uint64_t reroutes = 0;             ///< tasks moved off blacklisted devices
  std::uint64_t devices_blacklisted = 0;  ///< devices removed from scheduling
  std::uint64_t failed_tasks = 0;         ///< tasks that permanently failed
  std::uint64_t cancelled_tasks = 0;      ///< tasks cancelled by failed deps
  std::vector<std::string> errors;        ///< one message per failed task
  std::vector<FaultEvent> fault_events;   ///< recovery log, virtual-clock order
  /// Full per-task attempt history (device, attempt #, cause) in the order
  /// attempts ended. Populated whenever the fault path is exercised; empty
  /// on a fault-free run.
  std::vector<TaskAttempt> attempts;

  // --- flight recorder ---
  std::uint64_t flight_records = 0;      ///< records produced across all rings
  std::uint64_t flight_overwritten = 0;  ///< records lost to ring wraparound

  SchedulerKind scheduler = SchedulerKind::kHeft;
  std::vector<DeviceStats> devices;
  std::vector<TaskTrace> trace;
  /// Every leg acquire_buffers and eviction write-backs charged, in the
  /// order they were charged. Empty on single-node platforms.
  std::vector<TransferLeg> transfer_legs;
  std::vector<NodePeak> node_peaks;  ///< one per accelerator node, node order
  std::vector<SchedulerDecision> decisions;  ///< empty unless recording enabled
};

}  // namespace starvm
