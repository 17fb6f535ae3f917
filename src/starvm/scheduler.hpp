// Task schedulers (paper §IV-B: the PDL supports "static and dynamic
// task-mapping"; §VI flags dynamic run-time schedulers as the open issue —
// these three policies are the ablation axis of bench/bm_scheduler_ablation).
//
// One Scheduler serves every execution mode. The engine calls it only with
// its mutex held: the simulation modes from the discrete-event loop on the
// caller's thread, the threaded mode from the same loop run by its k
// workers. Each device is a lane with its own queue here and its own
// virtual clock; pop_earliest skips a lane that is blacklisted or busy (a
// threaded worker is running its kernel with the engine mutex released).
//
// HEFT is hierarchical: candidates are the engine's placement classes
// (groups of interchangeable devices, see runtime_state.hpp), so the
// per-task cost evaluation is O(classes) — one estimate per distinct
// device flavor — instead of O(devices). The concrete member inside the
// winning class is the one with the smallest estimated backlog, found in
// O(log members). A 1k-worker platform has one CPU class, so placement
// cost does not scale with the quantity expansion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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

  /// Pop for the earliest-available free lane: equivalent to trying pop()
  /// over every device that is neither blacklisted nor busy, in ascending
  /// (avail_vtime, id) order, and returning the first hit. Implementations
  /// keep avail-ordered indexes so the engine loop costs O(log devices)
  /// per task instead of sorting every device each turn. Returns nullptr
  /// when nothing is runnable on a free lane; on success `*device` is the
  /// chosen device.
  virtual TaskNode* pop_earliest(DeviceId* device) = 0;

  /// The engine loop advanced `device`'s avail_vtime (a task finished or
  /// failed there); avail-ordered indexes re-key that device.
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

  /// Tasks a lane took from another lane's queue (work-stealing only).
  virtual std::uint64_t steals() const { return 0; }
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

}  // namespace starvm::detail
