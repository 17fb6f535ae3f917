// The starvm engine: a StarPU-like heterogeneous task runtime
// (substrate S7 — scheduling + data management for the paper's case study).
//
// Lifecycle:
//   Engine engine(config);
//   DataHandle* a = engine.register_matrix(ptr, rows, cols);
//   auto blocks = engine.partition_rows(a, 8);       // BLOCK distribution
//   engine.submit({&codelet, {{blocks[i], Access::kReadWrite}, ...}});
//   if (auto st = engine.wait_all(); !st.ok()) { /* tasks failed */ }
//   EngineStats s = engine.stats();
//
// Dependencies are inferred from access modes per data handle with
// sequential consistency (RAW, WAR, WAW), exactly the contract StarPU
// gives the paper's generated programs. Each described device is a lane:
// a queue in the one scheduler plus a virtual clock. The simulation modes
// run the lanes on the caller's thread inside wait_all; the threaded mode
// (kHybrid) runs the same loop on k = min(devices, host cores) workers,
// any of which may serve any lane. Simulated accelerators execute
// implementations on the host while their time is charged from the
// performance model (DESIGN.md).
//
// Thread-safety: submit/submit_batch/wait_all may be called concurrently
// from multiple application threads while workers drain; DataHandle
// registration and partitioning must happen outside active task execution
// on those handles.
//
// Locking (see docs/RUNTIME.md "Scheduling & locking architecture"): the
// scheduler, the lanes and every attempt's bookkeeping are guarded by
// mutex_ in every mode; a threaded worker releases it only around the
// kernel. Submission wiring is serialized by submit_mutex_; dependency
// release goes through per-task edge mutexes; replica bookkeeping has its
// own memory_mutex_ (skipped entirely on single-node platforms); fault
// handling has fault_mutex_.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "starvm/codelet.hpp"
#include "starvm/data.hpp"
#include "starvm/device.hpp"
#include "starvm/perf_model.hpp"
#include "starvm/runtime_state.hpp"
#include "starvm/scheduler.hpp"
#include "starvm/stats.hpp"
#include "starvm/types.hpp"
#include "util/result.hpp"

namespace obs {
class Counter;
}

namespace starvm {

/// Elements [begin, begin + count) of one block of a BLOCK split.
struct BlockSpan {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// The one BLOCK split rule, shared by Engine::partition_* and
/// cascabel::rt::Context: each of `nblocks` >= 1 blocks gets ceil(extent /
/// nblocks) elements, so the last blocks are short or empty.
BlockSpan block_span(std::size_t extent, int nblocks, int b);

/// How many of the `nblocks` spans of block_span hold data.
int filled_blocks(std::size_t extent, int nblocks);

class Engine {
 public:
  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Data registration ----------------------------------------------------

  /// Register a row-major matrix of doubles (rows x cols, stride ld; 0 = cols).
  DataHandle* register_matrix(double* ptr, std::size_t rows, std::size_t cols,
                              std::size_t ld = 0, std::string name = {});

  /// Register a vector of doubles.
  DataHandle* register_vector(double* ptr, std::size_t n, std::string name = {});

  /// Split a matrix handle into `nblocks` row bands (the paper's BLOCK
  /// distribution). Tasks must target the blocks, not the parent, until
  /// unpartition() is called. Always returns exactly `nblocks` handles;
  /// when nblocks > rows the tail blocks are empty (rows() == 0).
  std::vector<DataHandle*> partition_rows(DataHandle* handle, int nblocks);

  /// Split a vector handle into `nblocks` contiguous spans (exactly
  /// `nblocks` handles; tail spans may be empty).
  std::vector<DataHandle*> partition_vector(DataHandle* handle, int nblocks);

  /// Split a matrix handle into a 2-D grid of row_blocks x col_blocks
  /// tiles (needed by tiled linear algebra: Cholesky, LU, ...). Tiles keep
  /// the parent's row stride, so implementations must honor ld(). Returned
  /// row-major: tile (r, c) at index r * col_blocks + c — always the full
  /// row_blocks x col_blocks grid; edge tiles may be empty.
  std::vector<DataHandle*> partition_tiles(DataHandle* handle, int row_blocks,
                                           int col_blocks);

  /// Re-enable use of the parent handle; blocks become invalid for new tasks.
  void unpartition(DataHandle* handle);

  /// Declare that the application modified the buffer directly on the host,
  /// outside any task (the StarPU acquire/release-in-RW equivalent): the
  /// host becomes the only valid replica of the handle and of its partition
  /// blocks. Call between wait_all() and the next submit touching it.
  void host_write(DataHandle* handle);

  // --- Task submission --------------------------------------------------------

  /// Submit a task; returns its id. Dependencies on previously submitted
  /// tasks are inferred from the buffers' access modes.
  TaskId submit(TaskDesc desc);

  /// Submit many tasks at once: validates every descriptor up front (throws
  /// before anything is enqueued), wires the whole batch's dependencies
  /// under one lock acquisition, pre-reserves the task nodes, and wakes the
  /// workers once per involved device instead of once per task. Returned
  /// ids are in descriptor order. Dependencies between batch members follow
  /// from descriptor order exactly as if each had been submit()ed in turn.
  std::vector<TaskId> submit_batch(std::vector<TaskDesc> descs);

  /// Block until every submitted task has completed, failed permanently, or
  /// been cancelled. Ok when everything succeeded; otherwise an error
  /// aggregating the per-task failures (EngineStats::errors has the full
  /// list). Failures are sticky: once a task has failed, subsequent calls
  /// keep reporting the error.
  pdl::util::Status wait_all();

  /// Block until a specific task has completed; false for unknown, failed,
  /// or cancelled ids. In pure simulation this drains everything (the event
  /// loop is not incremental), so prefer wait_all there.
  bool wait(TaskId id);

  // --- Introspection -----------------------------------------------------------

  const EngineConfig& config() const { return config_; }
  std::size_t device_count() const { return devices_.size(); }
  /// Host threads serving the lanes: min(devices, host cores) in the
  /// threaded mode, 0 in the simulation modes (the caller's thread runs
  /// the loop).
  std::size_t worker_count() const { return workers_.size(); }
  /// Number of placement classes (groups of interchangeable devices) the
  /// schedulers evaluate per task; a quantity-expanded 1k-worker group
  /// counts once. Equals device_count() when
  /// EngineConfig::placement_classes is false.
  std::size_t placement_class_count() const { return classes_.size(); }
  /// Spec of the device owning memory node `node` (the node→spec index
  /// behind the transfer model); nullptr for the host node or unknown ids.
  const DeviceSpec* node_link_spec(MemoryNodeId node) const;
  /// Snapshot of statistics; call after wait_all for a consistent view.
  EngineStats stats() const;
  PerfModel& perf_model() { return perf_model_; }

  // --- Flight recorder ---------------------------------------------------------

  /// The always-on flight recorder; nullptr when disabled
  /// (EngineConfig::flight_records_per_device == 0).
  const obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  /// Merged, time-ordered snapshot of every flight ring. Safe at any time,
  /// including while workers are running (torn records are dropped).
  std::vector<obs::FlightEvent> flight_snapshot() const;

  /// Explicit post-mortem dump: write <prefix>.jsonl (one record per line)
  /// and <prefix>.trace.json (Chrome trace; recorder events on their own
  /// process lane, end-less records as instant events). False when the
  /// recorder is disabled or a file cannot be written.
  bool dump_flight_recorder(const std::string& prefix,
                            const std::string& reason = "explicit") const;

 private:
  bool hybrid() const { return config_.mode == ExecutionMode::kHybrid; }

  /// The loop of every mode (`lock` holds mutex_). A turn pops the task of
  /// the earliest free lane, begins the attempt, runs or models the
  /// kernel, ends the attempt and re-keys the lane. The simulation modes
  /// return when nothing is runnable; a threaded worker releases the lock
  /// around the kernel, sleeps when nothing is runnable and returns once
  /// the engine stops.
  void run_turns(std::unique_lock<std::mutex>& lock);

  /// Start an attempt of `task` on `device` (mutex_ held): mark it running,
  /// count the attempt, record the decision, charge the transfers, publish
  /// the ready-queue depth to the gauge and the flight ring with the
  /// task-start record, and return the fault plan's verdict.
  FaultPlan::Injection begin_attempt(detail::TaskNode& task,
                                     detail::DeviceState& device);

  /// Finish an attempt: a failed one goes to handle_task_failure, one whose
  /// `exec` exceeds the watchdog limit times out with `watchdog_reason`,
  /// any other is finalized.
  void end_attempt(detail::TaskNode& task, detail::DeviceState& device,
                   double exec, bool failed, const std::string& reason,
                   const char* watchdog_reason);

  /// Validate a descriptor (throws std::invalid_argument).
  void validate_desc(const TaskDesc& desc) const;

  /// Append a node to the arena and wire its dependencies (submit_mutex_
  /// held). The node still holds its submission reference: it cannot
  /// become ready until publish_submission drops it.
  detail::TaskNode& wire_task_locked(TaskDesc&& desc, double flops);

  /// Drop the submission reference; when that makes the task ready,
  /// publish it.
  void publish_submission(detail::TaskNode* task);

  /// Dispatch submitted ready tasks, in order, when mutex_ is free; else
  /// hand them over.
  void publish_ready(std::span<detail::TaskNode* const> ready);

  /// Put the ready tasks `oldest`..`newest` (linked newest to oldest
  /// through next_ready) in the inbox, and wake a worker when one is
  /// needed to drain it.
  void hand_over(detail::TaskNode* oldest, detail::TaskNode* newest);

  /// Dispatch the inbox's tasks in submission order (mutex_ held).
  void drain_inbox_locked();

  /// Push a ready task to the scheduler (mutex_ held); a task that no live
  /// device can run any more fails instead.
  void dispatch_ready(detail::TaskNode* task);

  /// Who must hear of runnable work left for another worker.
  enum class Listener { kNone, kPoller, kSleeper };

  /// Runnable work is being left for another worker (mutex_ held): the
  /// polling worker if one polls; otherwise one sleeper when a worker
  /// sleeps that nobody is waking yet and the work needs it — kernels are
  /// long, or no worker will come back from a kernel to pop it. kNone in
  /// the simulation modes.
  Listener leave_work_locked();

  /// Act on leave_work_locked's answer once mutex_ is released, so the
  /// notified worker does not block on it at once.
  void notify(Listener listener);

  /// Threaded worker with nothing runnable: poll for a moved epoch or a
  /// filled inbox with mutex_ released, yielding the core, then retake
  /// it. True when work was signalled.
  bool poll_for_work(std::unique_lock<std::mutex>& lock);

  /// Fold a measured kernel time into the average and switch the
  /// short-kernel mode at its thresholds (mutex_ held).
  void note_kernel_time_locked(double seconds);

  /// Oracle-steered pop (mutex_ held, oracle_ non-null): enumerate every
  /// (device, task) pair a pop could yield as a kSchedule ChoicePoint in
  /// canonical (avail_vtime, id) order and pop whichever alternative the
  /// oracle picks. nullptr when nothing is runnable anywhere.
  detail::TaskNode* pop_via_oracle(DeviceId* chosen);

  /// Book a completed task: virtual clock, stats, dependency release
  /// (mutex_ held).
  void finalize_task(detail::TaskNode& task, detail::DeviceState& device,
                     double exec);

  // --- Fault tolerance (cold path; fault_mutex_) -----------------------------

  /// Book a failed attempt: advance the device's virtual clock past the
  /// attempt, count the failure, blacklist the device when it crossed the
  /// consecutive-failure threshold, then either re-queue the task with
  /// exponential backoff (budget left and a live device exists) or fail it
  /// permanently. Takes fault_mutex_ itself.
  void handle_task_failure(detail::TaskNode& task, detail::DeviceState& device,
                           double exec, const std::string& reason,
                           bool is_timeout);

  /// Permanently fail `task` (kFailed) and cascade-cancel every transitive
  /// successor still waiting on it (fault_mutex_ held).
  void fail_task_locked(detail::TaskNode& task, const std::string& reason);

  /// Stop scheduling onto `device` and re-route its queued tasks onto the
  /// survivors (tasks with no surviving capable device fail permanently)
  /// (fault_mutex_ held).
  void blacklist_device_locked(detail::DeviceState& device);

  /// Retry budget for failures on `device` (per-device PDL override or the
  /// engine-wide FaultToleranceConfig::max_retries).
  int retry_budget(const detail::DeviceState& device) const;

  /// Watchdog limit in seconds for `task` on `device`; 0 = watchdog off.
  double watchdog_limit(const detail::TaskNode& task,
                        const detail::DeviceState& device) const;

  bool has_live_capable_device(const Codelet& codelet) const;

  void record_fault_event_locked(FaultEvent::Kind kind, double vtime,
                                 TaskId task, DeviceId device, int attempt,
                                 std::string detail);

  /// Status summarizing permanent failures so far; Ok when none
  /// (fault_mutex_ held).
  pdl::util::Status drain_status_locked() const;

  /// Wake everyone blocked in wait/wait_all after pending_/task state
  /// changed (never called with drain_mutex_ held).
  void notify_drain();

  /// Record a SchedulerDecision for `task` placed on `chosen` (mutex_
  /// held, before acquire_buffers mutates replica state). Counts the
  /// decision always; allocates nothing unless recording is active.
  void record_decision(const detail::TaskNode& task,
                       const detail::DeviceState& chosen);

  /// Modeled cost of moving `task`'s missing replicas to `node`, charged
  /// on the virtual clock from task.start_vtime on; updates the handle
  /// valid-sets, transfer counters and leg log (memory_mutex_ taken
  /// internally; returns 0 immediately on single-node platforms).
  double acquire_buffers(detail::TaskNode& task, MemoryNodeId node);

  /// Replica bookkeeping with capacity accounting (memory_mutex_ held).
  /// add_replica may evict LRU replicas on bounded nodes; eviction of a
  /// sole replica charges a write-back to the host into `cost`. The
  /// executing task's own buffers are never evicted.
  void add_replica_locked(DataHandle* handle, MemoryNodeId node,
                          const detail::TaskNode& task, double& cost);
  void drop_replica_locked(DataHandle* handle, MemoryNodeId node);

  /// Charge `task` for moving `bytes` from `from` to `to` into `cost`, one
  /// TransferLeg per accelerator link crossed (memory_mutex_ held).
  void charge_transfer_locked(const detail::TaskNode& task, std::size_t bytes,
                              MemoryNodeId from, MemoryNodeId to,
                              double& cost);

  /// Estimate for the HEFT policy: transfers (without mutating state) plus
  /// execution estimate. Takes memory_mutex_ only on multi-node platforms.
  double estimated_cost(const detail::TaskNode& task,
                        const detail::DeviceState& device) const;

  /// Class form for placement: fills out[c] for every placement class,
  /// taking the perf-model lock once and memory_mutex_ at most once for
  /// the whole row instead of once per candidate. Member devices of a
  /// class share kind, rate, link parameters and memory node, so one
  /// estimate is exact for all of them.
  void estimated_cost_class_row(const detail::TaskNode& task,
                                double* out) const;

  double exec_estimate(const detail::TaskNode& task,
                       const detail::DeviceState& device) const;

  /// Modeled bandwidth/latency between memory nodes (via host when needed).
  double link_transfer_seconds(std::size_t bytes, MemoryNodeId from,
                               MemoryNodeId to) const;
  /// One hop over accelerator node `node`'s host link.
  double hop_seconds(std::size_t bytes, MemoryNodeId node) const;

  EngineConfig config_;
  /// deque, not vector: DeviceState embeds atomics (immovable) and
  /// deque growth never relocates elements.
  mutable std::deque<detail::DeviceState> devices_;
  /// The one scheduler of every mode (mutex_).
  std::unique_ptr<detail::Scheduler> scheduler_;
  PerfModel perf_model_;
  /// True when every device lives on the host memory node: replica
  /// bookkeeping is then a no-op and acquire_buffers skips memory_mutex_.
  bool single_node_ = false;

  /// Placement classes (see runtime_state.hpp) and supporting flat indexes,
  /// all immutable after construction except PlacementClass::live_members
  /// (decremented under fault_mutex_ when a member is blacklisted).
  detail::PlacementClassSet classes_;
  std::vector<std::size_t> class_of_;   ///< device id -> class index
  std::vector<double> class_gflops_;    ///< representative's sustained rate
  /// Memory node -> owning device's spec (host slot = nullptr): the O(1)
  /// replacement for the per-call device scan in link_transfer_seconds.
  std::vector<const DeviceSpec*> node_spec_;
  /// Transfers modeled with the hard-coded default link because a node had
  /// no spec in node_spec_ — unreachable for engine-built platforms;
  /// surfaced via EngineStats so tests can assert it stays zero.
  mutable std::atomic<std::uint64_t> link_spec_misses_{0};

  /// Group interchangeable devices into classes_ / class_of_ /
  /// class_gflops_ (constructor only; device list already built).
  void build_placement_classes();

  /// Append a rows x cols block of `parent` at `offset` doubles into it,
  /// with row stride `ld`, to the handle arena and to parent's children.
  /// It is valid on the host if the parent is (submit_mutex_ and
  /// memory_mutex_ held).
  DataHandle* add_block_locked(DataHandle* parent, std::size_t offset,
                               std::size_t rows, std::size_t cols,
                               std::size_t ld, std::string name);

  /// Guards the scheduler, the lanes, the decision log and every
  /// attempt's bookkeeping, in every mode.
  mutable std::mutex mutex_;
  /// Threaded mode. Written under mutex_; atomic where hand_over reads
  /// them without it: workers asleep in wake_ (registered under mutex_, so
  /// no wake-up is lost), workers polling with mutex_ released, workers
  /// running a kernel, and the moving average of measured kernel times
  /// with the mode it selects.
  std::condition_variable wake_;
  std::atomic<int> sleepers_{0};
  std::atomic<int> pollers_{0};
  std::atomic<int> running_{0};
  int wakes_pending_ = 0;  ///< notified sleepers that have not woken yet
  double kernel_ema_seconds_ = 0.0;
  std::atomic<bool> short_kernels_{false};
  /// Moved when a worker leaves work while another polls.
  std::atomic<std::uint32_t> work_epoch_{0};
  /// Ready tasks handed over by submitters, newest first, linked through
  /// TaskNode::next_ready. The next turn drains them into the scheduler,
  /// so a submitter never waits for mutex_.
  std::atomic<detail::TaskNode*> inbox_{nullptr};

  /// Serializes submission wiring: task-id assignment, arena growth,
  /// handle registration and dependency-tail updates. Guarantees a total
  /// submission order, which keeps the inferred DAG acyclic.
  mutable std::mutex submit_mutex_;
  /// Replica valid-sets, LRU accounting and transfer counters.
  mutable std::mutex memory_mutex_;
  /// Failure/retry/blacklist/cancel bookkeeping (cold path).
  mutable std::mutex fault_mutex_;
  /// Pairs with drain_cv_ for wait/wait_all sleeping.
  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  bool stopping_ = false;  ///< mutex_
  /// Tasks submitted but not yet done/failed/cancelled.
  std::atomic<std::size_t> pending_{0};
  /// Threads blocked in wait(TaskId); finalize only signals drain_cv_ when
  /// someone is actually watching or pending_ hit zero, instead of once
  /// per completed task.
  std::atomic<int> waiters_{0};

  detail::TaskArena tasks_;  ///< submit_mutex_
  /// A codelet's resolved calibration rows: its own row plus the per-kind
  /// variant alias rows (Codelet::calibration_alias), so the per-task
  /// wiring path never takes the perf-model mutex.
  struct ModelRows {
    PerfModel::Row* main = nullptr;
    std::array<PerfModel::Row*, 2> alias{};
  };
  std::unordered_map<const Codelet*, ModelRows> model_rows_;  ///< submit_mutex_
  detail::Arena<DataHandle> handles_;  ///< submit_mutex_
  TaskId next_task_id_ = 1;  ///< submit_mutex_

  /// Memory accounting per node (index = MemoryNodeId; host unbounded).
  struct NodeState {
    std::size_t capacity = 0;  ///< 0 = unlimited
    std::size_t used = 0;        ///< resident bytes (accelerator nodes)
    std::size_t peak = 0;        ///< high-water mark of `used`
    double peak_vtime = 0.0;     ///< when `peak` was first reached
    std::list<DataHandle*> lru;  ///< bounded nodes; front = most recent
  };
  std::vector<NodeState> nodes_;  ///< memory_mutex_

  // Statistics.
  std::vector<TransferLeg> transfer_legs_;  ///< memory_mutex_
  std::uint64_t transfers_ = 0;        ///< memory_mutex_
  std::uint64_t transfer_bytes_ = 0;   ///< memory_mutex_
  std::uint64_t evictions_ = 0;        ///< memory_mutex_
  std::uint64_t writeback_bytes_ = 0;  ///< memory_mutex_
  std::atomic<double> first_submit_wall_{-1.0};
  std::atomic<double> drain_wall_{0.0};
  std::vector<SchedulerDecision> decisions_;  ///< mutex_

  // Fault-tolerance statistics (guarded by fault_mutex_).
  std::uint64_t task_failures_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t reroutes_ = 0;
  /// Also read under mutex_ alone: a device is blacklisted only inside
  /// end_attempt, which holds mutex_ too.
  std::uint64_t blacklists_ = 0;
  std::uint64_t failed_tasks_ = 0;
  std::uint64_t cancelled_tasks_ = 0;
  std::vector<std::string> task_errors_;   ///< one entry per failed task
  std::vector<FaultEvent> fault_events_;
  /// Full per-task attempt chains (device, attempt #, cause): failures,
  /// timeouts, reroutes, cancellations always; completions whenever the
  /// task needed more than one attempt. Surfaced as EngineStats::attempts.
  std::vector<TaskAttempt> attempts_;

  /// Append to attempts_ (fault_mutex_ held).
  void record_attempt_locked(TaskId task, int attempt, DeviceId device,
                             TaskAttempt::Outcome outcome, double vtime,
                             std::string cause);

  /// One-line digest of `task`'s attempt chain for error messages
  /// (fault_mutex_ held); empty when the chain is empty.
  std::string attempt_chain_locked(TaskId task) const;

  // Flight recorder (docs/OBSERVABILITY.md). Ring i belongs to lane i and
  // is written only under mutex_, so it has one producer at a time; the
  // extra ring at index devices_.size() takes the fault-path events, whose
  // producers are serialized by fault_mutex_. Null when disabled.
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Ensures the automatic post-mortem dump fires at most once per engine.
  mutable std::atomic<bool> flight_dumped_{false};
  /// Auto-dump prefix (config or $PDL_FLIGHT_DUMP); empty = no auto dump.
  std::string flight_dump_prefix_;
  std::uint64_t tasks_submitted_ = 0;  ///< submit_mutex_

  /// Persisted perf store (docs/RUNTIME.md "Persisted performance models"
  /// at config_.perf_store_path): the descriptor hash the store is keyed
  /// by. Loaded at construction, written back (tmp + rename) at destruction
  /// after the workers joined.
  std::uint64_t descriptor_hash_ = 0;
  std::uint64_t perf_store_entries_ = 0;   ///< construction only
  std::uint64_t perf_store_rejected_ = 0;  ///< construction only
  std::uint64_t perf_model_seeds_ = 0;     ///< submit_mutex_

  /// Write the post-mortem dump if an auto-dump prefix is configured and no
  /// dump has happened yet. Must be called WITHOUT fault_mutex_ held (the
  /// snapshot reads task labels under submit_mutex_ and writes files).
  void maybe_auto_dump(const char* reason) const;

  /// Per-policy decision counter ("starvm.decisions.<policy>"), resolved
  /// once at construction so the hot path skips the registry lookup.
  obs::Counter* decision_counter_ = nullptr;

  /// Decision oracle steering the simulation loop (EngineConfig::oracle;
  /// null in the threaded mode). Non-owning.
  DecisionOracle* oracle_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace starvm
