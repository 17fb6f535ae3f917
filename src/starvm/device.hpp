// Device descriptions for engine construction.
//
// CPU devices execute kernels for real on host memory (node 0). Simulated
// accelerators — the GPU substitution, DESIGN.md — execute kernels on the
// host too (results stay correct) but their *time* is charged from the
// sustained-GFLOPS model onto a private memory node connected to the host
// by a modeled link.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "starvm/fault.hpp"
#include "starvm/types.hpp"

namespace starvm {

class DecisionOracle;

namespace detail {
class Scheduler;
}  // namespace detail

struct DeviceSpec {
  std::string name = "cpu";
  DeviceKind kind = DeviceKind::kCpu;

  /// Sustained compute rate used by the analytic cost model
  /// (for accelerators, and for CPUs in pure-sim mode).
  double sustained_gflops = 5.0;

  /// Host link of an accelerator's memory node (ignored for CPUs).
  double link_bandwidth_gbs = 5.5;
  double link_latency_us = 10.0;

  /// Capacity of an accelerator's memory node in bytes; 0 = unlimited.
  /// When replicas exceed it, least-recently-used ones are evicted (with a
  /// modeled write-back when the evicted copy is the only valid one).
  std::size_t memory_bytes = 0;

  // --- Reliability (optional PDL `reliability` properties) -----------------

  /// Per-device override of FaultToleranceConfig::max_retries for tasks
  /// that fail *on this device* (PDL MAX_RETRIES); -1 = use the engine-wide
  /// budget.
  int max_retries = -1;

  /// Declared mean time between failures in hours (PDL MTBF_HOURS);
  /// 0 = unspecified. Informational: surfaced through DeviceStats so
  /// operators can correlate observed failures with the declared rate.
  double mtbf_hours = 0.0;
};

struct EngineConfig {
  std::vector<DeviceSpec> devices;
  SchedulerKind scheduler = SchedulerKind::kHeft;
  ExecutionMode mode = ExecutionMode::kHybrid;
  /// Fixed per-task runtime overhead charged to the virtual clock
  /// (submission + scheduling cost; StarPU's is in this range).
  double task_overhead_us = 10.0;

  /// Record a SchedulerDecision (candidate devices + modeled finish times)
  /// for every task placement. Also implied by an active obs tracer; off
  /// by default to keep the hot path free of the cost.
  bool record_decisions = false;

  /// Group interchangeable host-node devices into placement classes so
  /// HEFT evaluates one candidate per device flavor instead of one per
  /// device (sublinear placement on quantity-expanded platforms). False
  /// forces singleton classes — the exhaustive per-device scan — which
  /// only exists for equivalence testing and A/B measurement.
  bool placement_classes = true;

  /// Flight recorder (docs/OBSERVABILITY.md "Flight recorder & profiling"):
  /// records kept per device in the one ring all lanes share (rounded up
  /// to a power of two; 64 bytes per record); the fault lane keeps as many
  /// of the fault log's newest entries. Always on by default — recording
  /// is a handful of relaxed atomic stores per task — with bounded memory
  /// (oldest records are overwritten). 0 disables it.
  std::size_t flight_records_per_device = 1024;

  /// Path prefix for automatic post-mortem flight dumps: on a watchdog
  /// fire or a failed wait_all() the engine writes <prefix>.jsonl and
  /// <prefix>.trace.json once. Empty = no automatic dump (explicit
  /// Engine::dump_flight_recorder still works). The engine reads no
  /// environment for it; rt::Context forwards PDL_FLIGHT_DUMP here.
  std::string flight_dump_prefix;

  /// Persisted perf-model store (docs/RUNTIME.md "Persisted performance
  /// models"): path of a perf_store file preloaded into the EMA cells at
  /// engine construction — so HEFT estimates are warm from the first task
  /// — and, by a kHybrid engine only, atomically rewritten with the merged
  /// history at destruction (the simulation modes observe nothing but the
  /// model's own estimates). Each entry is keyed by its device class
  /// (perf_store.hpp, format v2): entries of classes this engine lacks are
  /// kept for the rewrite. A corrupt or wrong-version store is rejected
  /// (counted in EngineStats::perf_store_rejected) and the run proceeds
  /// from declared rates. Empty = no store. The engine reads no
  /// environment for it; rt::Context forwards PDL_PERF_STORE here.
  std::string perf_store_path;

  /// Retry/backoff/blacklist/watchdog policy (docs/RUNTIME.md).
  FaultToleranceConfig fault_tolerance;

  /// Deterministic fault-injection plan; null = no faults. The engine
  /// reads no environment for it; rt::Context forwards PDL_FAULT_PLAN here.
  std::shared_ptr<const FaultPlan> fault_plan;

  /// Decision oracle for the simulation modes (docs/MODEL_CHECKING.md):
  /// every nondeterministic choice point — schedule pick, release order,
  /// placement-class member — is offered to the oracle with the canonical
  /// tie-break as alternative 0. Null keeps the fixed tie-break; non-owning
  /// and must outlive the engine. Ignored in kHybrid (its worker threads
  /// cannot be serialized through an oracle).
  DecisionOracle* oracle = nullptr;

  /// Test-only: wrap (or replace) the engine's one scheduler, in any mode,
  /// after construction. The model-checking harness uses this to install
  /// deliberately broken decorators (e.g. a lost-wakeup seeder) and prove
  /// the explorer catches them. Null for production use.
  std::function<std::unique_ptr<detail::Scheduler>(
      std::unique_ptr<detail::Scheduler>)>
      wrap_scheduler;

  /// Convenience: n CPU cores at the given sustained rate.
  static EngineConfig cpus(int n, double sustained_gflops = 5.0);
};

}  // namespace starvm
