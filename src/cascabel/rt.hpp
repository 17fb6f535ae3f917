// cascabel::rt — the runtime veneer translated programs execute against.
//
// The paper's generated output programs call StarPU; ours call this veneer,
// which binds a target PDL description, the task repository and a starvm
// engine together:
//
//   * Context — an explicit object API used by examples, tests and benches;
//   * a process-global context driven by initialize()/execute()/wait(),
//     which is what Cascabel-generated source files use (they cannot thread
//     a context object through unmodified application code).
//
// One execute() call implements paper §IV-C step 3 for a single call site:
// data registration, BLOCK/CYCLIC decomposition, variant choice per device
// class, and submission of one starvm task per block.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "annot/task_model.hpp"
#include "cascabel/repository.hpp"
#include "cascabel/selection.hpp"
#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"
#include "starvm/perf_store.hpp"
#include "util/result.hpp"

namespace cascabel::rt {

/// One data argument of an executed task.
struct Arg {
  double* ptr = nullptr;
  std::size_t rows = 1;
  std::size_t cols = 0;
  AccessMode mode = AccessMode::kRead;
  DistributionKind dist = DistributionKind::kNone;
};

/// Vector argument of `n` doubles.
inline Arg arg(double* ptr, std::size_t n, AccessMode mode,
               DistributionKind dist = DistributionKind::kNone) {
  return Arg{ptr, 1, n, mode, dist};
}

/// Row-major matrix argument.
inline Arg arg_matrix(double* ptr, std::size_t rows, std::size_t cols, AccessMode mode,
                      DistributionKind dist = DistributionKind::kNone) {
  return Arg{ptr, rows, cols, mode, dist};
}

struct Options {
  starvm::SchedulerKind scheduler = starvm::SchedulerKind::kHeft;
  starvm::ExecutionMode mode = starvm::ExecutionMode::kHybrid;
  /// BLOCK distributions split data into up to blocks_per_device *
  /// device_count row bands, fewer when the split would leave some empty.
  int blocks_per_device = 4;
  starvm::BridgeOptions bridge;
  /// Engine recovery policy (retries, backoff, blacklist, watchdog).
  starvm::FaultToleranceConfig fault_tolerance;
  /// Deterministic fault injection; nullptr = the PDL_FAULT_PLAN
  /// environment variable, resolved once here (the engine reads none).
  std::shared_ptr<const starvm::FaultPlan> fault_plan;
  /// Persisted perf store (docs/RUNTIME.md "Persisted performance models"):
  /// forwarded to EngineConfig::perf_store_path, and the same file is read
  /// up front so static pre-selection ranks variants by measured rate.
  /// Empty = the PDL_PERF_STORE environment variable, resolved once here
  /// ("0"/unset disables persistence; the engine reads none).
  std::string perf_store_path;
  /// Sample-count threshold before a store entry may override declared
  /// rates in pre-selection (SelectionOptions::min_samples).
  std::uint64_t perf_min_samples = 3;
  /// Accuracy requirement of the program (docs/RUNTIME.md "Accuracy-guarded
  /// selection"): when enabled, a measured-rate flip may not select a
  /// variant whose declared static error bound exceeds the tolerance, no
  /// matter how much faster the perf store says it is. The veto is logged
  /// in diagnostics().
  AccuracyGuard accuracy;
};

/// An executable translation context: repository + engine, built from a
/// target platform.
///
/// The constructor is the only place that reads `target`: it builds the
/// engine through the bridge, runs pre-selection and keeps the
/// description's group names (pdl::logic_groups) for the execution-group
/// rule. No copy of the description is kept, so `target` may be a
/// temporary; the PU pointers in selection()'s `mapped_pus` point into it
/// and must not be followed once it is gone (`mapped_groups` carry what
/// execute() needs).
class Context {
 public:
  /// Reads `target` here only; the repository is taken by value.
  /// Pre-selection runs immediately; check diagnostics() for pruning info.
  Context(const pdl::Platform& target, TaskRepository repository,
          Options options = {});

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Execute one annotated call site: decompose and submit (asynchronous —
  /// follow with wait()).
  pdl::util::Status execute(std::string_view interface_name, std::string_view group,
                            std::vector<Arg> args);

  /// Block until every submitted task completed, failed, or was cancelled;
  /// the status aggregates task failures (see Engine::wait_all).
  pdl::util::Status wait();

  /// Tell the runtime the host modified a previously used buffer directly
  /// (between wait() and the next execute): invalidates device replicas in
  /// the transfer model. No-op for unknown pointers.
  void host_modified(double* ptr);

  starvm::Engine& engine() { return *engine_; }
  starvm::EngineStats stats() const { return engine_->stats(); }
  const SelectionResult& selection() const { return selection_; }
  /// The perf store pre-selection consumed, or null when none was loaded
  /// (no path configured, missing file, or a rejected/stale store).
  const starvm::perf_store::Store* perf_store() const {
    return perf_store_loaded_ ? &perf_store_ : nullptr;
  }
  const pdl::Diagnostics& diagnostics() const { return diags_; }
  const Options& options() const { return options_; }

 private:
  struct Registered {
    starvm::DataHandle* handle = nullptr;
    std::vector<starvm::DataHandle*> blocks;
    int nblocks = 0;  ///< 0 = unpartitioned
  };

  Registered& find_or_register(const Arg& a);
  void repartition(Registered& reg, const Arg& a, int nblocks);

  TaskRepository repository_;
  Options options_;
  /// The target's LogicGroupAttribute names (execution_group's input).
  std::vector<std::string> groups_;
  pdl::Diagnostics diags_;
  SelectionResult selection_;
  std::unique_ptr<starvm::Engine> engine_;
  /// Perf store loaded at construction (descriptor hash already verified
  /// against the engine config); kept alive for selection() introspection.
  starvm::perf_store::Store perf_store_;
  bool perf_store_loaded_ = false;

  /// ptr -> registration (keyed by base pointer; geometry must be stable).
  std::map<double*, Registered> registered_;
  /// Codelets must outlive their tasks; cached per interface+group.
  std::map<std::string, std::unique_ptr<starvm::Codelet>> codelets_;
};

// --- Process-global context (used by Cascabel-generated sources) -------------

/// Register an executable variant before initialize(). Safe to call from
/// static initializers (the generated file's registration thunks).
/// `error_model` is the implementation's declared accuracy claim (see
/// starvm::ErrorModel); unspecified variants are never vetoed by the
/// AccuracyGuard but make every bound they touch unknown (A702).
bool register_variant(const std::string& interface_name,
                      const std::string& variant_name,
                      const std::vector<std::string>& target_platforms,
                      starvm::DeviceKind kind,
                      std::function<void(const starvm::ExecContext&)> fn,
                      std::function<double(const std::vector<starvm::BufferView>&)>
                          flops = nullptr,
                      starvm::ErrorModel error_model = {});

/// Create the global context from PDL XML text. Also loads the built-in
/// expert variants (builtin_variants.hpp) and everything registered via
/// register_variant. Returns false (and logs) on invalid PDL.
bool initialize(const char* pdl_xml, Options options = {});

/// True between a successful initialize() and shutdown().
bool initialized();

/// Execute on the global context; logs and returns false on error.
bool execute(const char* interface_name, const char* group, std::vector<Arg> args);

/// Drain the global context; false (and a log line) when tasks failed.
bool wait();

/// Stats of the global context (empty when uninitialized).
starvm::EngineStats stats();

/// Destroy the global context (idempotent).
void shutdown();

}  // namespace cascabel::rt
