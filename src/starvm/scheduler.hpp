// Task schedulers (paper §IV-B: the PDL supports "static and dynamic
// task-mapping"; §VI flags dynamic run-time schedulers as the open issue —
// these three policies are the ablation axis of bench/bm_scheduler_ablation).
//
// Two implementations of the same three policies live here:
//   - Scheduler: the single-queue-discipline used by the virtual-clock
//     simulation modes. All methods are called with the engine mutex held.
//   - HybridDispatch: the lock-split dispatch used by the real-threads
//     (kHybrid) path — it owns one ReadyQueue (deque + mutex + condition
//     variable) per device, with work stealing; it takes only the
//     ReadyQueue mutexes of the devices involved, never a global lock. The
//     simulation modes build no ReadyQueue at all.
//
// Both HEFT implementations are hierarchical: candidates are the engine's
// placement classes (groups of interchangeable devices, see
// runtime_state.hpp), so the per-task cost evaluation is O(classes) — one
// estimate per distinct device flavor — instead of O(devices). The concrete
// member inside the winning class is picked in O(log members) (simulation:
// the member with the smallest estimated backlog) or O(1) (hybrid:
// cheapest of a bounded probe window). A 1k-worker platform has one CPU
// class, so placement cost no longer scales with the quantity expansion.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "starvm/oracle.hpp"
#include "starvm/runtime_state.hpp"
#include "starvm/types.hpp"

namespace starvm::detail {

/// Batched cost estimate: fills `out[c]` with the estimated cost (seconds)
/// of running `task` on a device of placement class c — execution plus
/// pending data transfers. Class-at-a-time so the engine can take its
/// memory lock and the perf-model history lock once per task and every
/// member of a quantity-expanded worker group shares one evaluation.
using CostClassFn = std::function<void(const TaskNode&, double* out)>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Offer a ready task.
  virtual void push(TaskNode* task) = 0;

  /// Next task for an idle device; nullptr when none is runnable there.
  virtual TaskNode* pop(DeviceId device) = 0;

  /// The task pop(device) would return right now, without mutating any
  /// queue; nullptr when pop(device) would come up empty (including a
  /// blacklisted device). The model-checking oracle path uses this to
  /// enumerate every (device, task) schedule alternative before committing
  /// to one with pop().
  virtual TaskNode* peek(DeviceId device) const = 0;

  /// Pop for the earliest-available live device: equivalent to trying
  /// pop() over every live device in ascending (avail_vtime, id) order and
  /// returning the first hit. Implementations keep avail-ordered indexes
  /// so the simulation loop costs O(log devices) per task instead of
  /// sorting every device each iteration. Returns nullptr when nothing is
  /// runnable anywhere; on success `*device` is the chosen device.
  virtual TaskNode* pop_earliest(DeviceId* device) = 0;

  /// The simulation loop advanced `device`'s avail_vtime (a task finished
  /// or failed there); avail-ordered indexes re-key that device.
  virtual void on_device_time_advanced(DeviceId device) = 0;

  /// True when no task is queued anywhere.
  virtual bool empty() const = 0;

  /// Number of tasks queued across every device (the ready-queue length
  /// reported to the obs metrics registry).
  virtual std::size_t size() const = 0;

  /// Remove and return every queued task that only `device` could have run
  /// now that it is blacklisted. Per-device policies hand back the device's
  /// whole queue (the engine re-pushes each task against the surviving
  /// devices); the shared-queue policy only evicts tasks no live device can
  /// execute, because survivors still drain the shared queue naturally.
  virtual std::vector<TaskNode*> drain_device(DeviceId device) = 0;
};

/// Factory. `devices` and `classes` outlive the scheduler; `cost_fn` is
/// used by kHeft and produces one estimate per placement class. `oracle`
/// (nullable, non-owning) resolves placement-class member ties in kHeft —
/// alternative 0 is the canonical lowest-id member, so a null oracle and a
/// CanonicalOracle behave identically.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          const std::deque<DeviceState>* devices,
                                          const PlacementClassSet* classes,
                                          CostClassFn cost_fn,
                                          DecisionOracle* oracle = nullptr);

/// Ready queue for the real-threads path. The owning worker pops from the
/// front; idle peers steal from the back (oldest work first, the classic
/// Cilk/ABP orientation that minimizes owner interference). Cache-line
/// aligned: HybridDispatch packs one per device into an array, and the
/// workers of neighbouring devices must not share a line.
struct alignas(64) ReadyQueue {
  std::mutex m;
  std::condition_variable cv;
  std::deque<TaskNode*> tasks;     ///< guarded by m
  std::uint64_t steals_out = 0;    ///< tasks stolen FROM this queue (by m)
  /// Workers currently blocked in cv.wait. Written under m (between the
  /// queue re-check and the wait, so a pusher holding m sees either the
  /// task consumed or the sleeper registered — no lost wakeup); atomic so
  /// heuristic reads (peer nudges) may skip the lock. Pushers skip the
  /// notify syscall entirely when this is zero: an awake worker re-polls
  /// the queue before it ever sleeps.
  std::atomic<int> sleepers{0};
};

/// Lock-split ready-task dispatch for the real-threads path.
///
/// Placement happens at push time per policy (kEager: one shared
/// priority-ordered queue; kWorkStealing: round-robin over capable live
/// devices; kHeft: earliest-estimated-finish over the placement classes,
/// then the cheapest of a bounded member probe window inside the winning
/// class). Workers pop their own queue front; under kWorkStealing an
/// idle worker additionally steals from peers' backs before sleeping
/// (kHeft placement is final — the model chose the device — and kEager's
/// shared queue makes stealing moot). Pushes re-check the target's
/// blacklist flag under its queue mutex, so a task can never be stranded
/// on a device blacklisted concurrently with placement.
class HybridDispatch {
 public:
  HybridDispatch(SchedulerKind kind, std::deque<DeviceState>* devices,
                 const PlacementClassSet* classes, CostClassFn cost_fn);

  /// Place one ready task and wake one worker. False when no live capable
  /// device exists (the engine then fails the task).
  bool push(TaskNode* task);

  /// Place a batch, taking each involved queue's mutex once and waking its
  /// workers once. Tasks with no live capable device are returned for the
  /// engine to fail.
  std::vector<TaskNode*> push_batch(const std::vector<TaskNode*>& tasks);

  /// Blocking pop for `device`'s worker: own queue front, then steal from
  /// peers' backs; sleeps on the device's cv (with a short timeout so
  /// stealable work left on peers is eventually noticed). Returns nullptr
  /// once `stopping` is set and nothing is locally runnable.
  TaskNode* wait_pop(DeviceId device, const std::atomic<bool>& stopping);

  /// Blacklist support: remove and return everything queued on `device`
  /// (shared-queue policy: only tasks no live device can run).
  std::vector<TaskNode*> drain_device(DeviceId device);

  /// Tasks currently queued (approximate under concurrency; exact at rest).
  std::size_t size() const { return count_.load(std::memory_order_relaxed); }

  /// Total tasks obtained by stealing (sums ReadyQueue::steals_out).
  std::uint64_t steals() const;

  /// Wake every worker (shutdown).
  void notify_all();

 private:
  bool push_to(DeviceId device, TaskNode* task, bool notify);
  TaskNode* pop_local(DeviceId device);
  TaskNode* steal_for(DeviceId thief);
  /// Policy choice among capable live devices; -1 = none.
  DeviceId place(const TaskNode& task);
  /// Live member of class `cls` with the cheapest estimated backlog among a
  /// bounded probe window (two-choice load balancing); -1 when every member
  /// is blacklisted.
  DeviceId pick_member(std::size_t cls);

  SchedulerKind kind_;
  std::deque<DeviceState>* devices_;
  const PlacementClassSet* classes_;
  CostClassFn cost_fn_;
  ReadyQueue shared_;  ///< kEager: one priority-ordered queue for everyone
  /// One queue per device, indexed by device id (heap-allocated array:
  /// mutexes are immovable and the count is fixed at construction).
  std::unique_ptr<ReadyQueue[]> queues_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> rr_{0};  ///< kWorkStealing round-robin cursor
  /// Per-class probe cursors for kHeft member selection (heap-allocated
  /// array: atomics are immovable and the count is fixed at construction).
  std::unique_ptr<std::atomic<std::size_t>[]> class_rr_;
};

}  // namespace starvm::detail
