// Internal runtime state shared by engine.cpp and scheduler.cpp.
// Not part of the public API.
//
// Concurrency model (see docs/RUNTIME.md, "Scheduling & locking
// architecture"):
//   - Fields marked "immutable after wiring" are written while the task is
//     private to the submitting thread (under the engine's submit mutex)
//     and never change afterwards.
//   - `state`, `deps_remaining` and `ready_vtime` are atomics; task-state
//     transitions go through compare-exchange so exactly one thread wins a
//     kWaiting -> kReady (publish) or kWaiting -> kFailed (cancel) race.
//   - `successors`, `released` and the finish_vtime handoff to late
//     subscribers are guarded by the per-task `edge_mutex`.
//   - A device is a lane: its queue lives in the one Scheduler, its clock
//     and statistics here. Both, and every attempt's bookkeeping, are
//     written under the engine mutex in every mode; only a threaded
//     worker's kernel runs without it, while its lane is marked `busy`.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "starvm/codelet.hpp"
#include "starvm/device.hpp"
#include "starvm/perf_model.hpp"
#include "starvm/types.hpp"

namespace starvm::detail {

enum class TaskState { kWaiting, kReady, kRunning, kDone, kFailed };

/// No entry in the engine's fault log.
inline constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

struct TaskNode {
  // --- immutable after wiring ---
  TaskId id = 0;
  const Codelet* codelet = nullptr;
  std::vector<BufferView> buffers;
  std::string label;
  double flops = 0.0;
  int priority = 0;
  /// Cached calibration cells for `codelet`, one per device class (set at
  /// wiring): lets workers and placement estimate/observe without the
  /// perf-model mutex or map lookup.
  PerfModel::Cell* model_row = nullptr;
  /// Per-device-kind variant calibration rows (Codelet::calibration_alias,
  /// indexed by DeviceKind; null when no alias is set). Resolved at wiring
  /// like model_row; finalize additionally records observations here so the
  /// persisted perf store learns per-variant rates.
  std::array<PerfModel::Cell*, 2> alias_rows{};

  // --- dependency tracking ---
  std::atomic<TaskState> state{TaskState::kWaiting};
  /// Unreleased predecessors + 1 "submission reference" that the submitter
  /// drops after wiring completes, so a task can never become ready while
  /// its edges are still being added.
  std::atomic<int> deps_remaining{1};
  /// Guards successors + released + the finish_vtime handoff.
  std::mutex edge_mutex;
  std::vector<TaskNode*> successors;
  /// True once finalize_task has swapped the successor list out; later
  /// subscribers read finish_vtime instead of adding an edge.
  bool released = false;

  /// Virtual time when all dependencies have finished (CAS-max updated).
  std::atomic<double> ready_vtime{0.0};
  /// Virtual interval this task occupied on its device (engine mutex).
  double start_vtime = 0.0;
  double finish_vtime = 0.0;
  double transfer_seconds = 0.0;  ///< modeled transfer cost paid by this task
  double exec_seconds = 0.0;      ///< measured or modeled execution cost
  DeviceId ran_on = -1;

  // --- fault tolerance ---
  int attempts = 0;  ///< execution attempts started so far
  /// Index of this task's newest entry in the engine's fault log, or
  /// kNoFault (fault_mutex_).
  std::size_t last_fault = kNoFault;

  /// Link in the engine's inbox of submitted ready tasks.
  TaskNode* next_ready = nullptr;
};

/// Raise an atomic virtual clock to at least `v` (concurrent max).
inline void vtime_raise(std::atomic<double>& clock, double v) {
  double cur = clock.load(std::memory_order_relaxed);
  while (cur < v && !clock.compare_exchange_weak(cur, v)) {
  }
}

struct DeviceState {
  DeviceSpec spec;
  DeviceId id = -1;
  MemoryNodeId node = kHostNode;
  std::size_t device_class = 0;  ///< its perf-model cell (DeviceClasses)

  /// Virtual time when the device next becomes free (raised when an
  /// attempt ends; read by schedulers and decision recording).
  std::atomic<double> avail_vtime{0.0};
  /// A threaded worker is running a kernel on this lane with the engine
  /// mutex released; pop_earliest skips the lane until the worker ends the
  /// attempt. Never set in the simulation modes (engine mutex).
  bool busy = false;

  // --- statistics (engine mutex) ---
  double busy_seconds = 0.0;
  double transfer_seconds = 0.0;
  std::uint64_t tasks_run = 0;

  // --- fault tolerance ---
  std::atomic<bool> blacklisted{false};  ///< no longer receives work
  int consecutive_failures = 0;  ///< reset on every successful attempt
};

/// Devices that are interchangeable for placement, grouped once at engine
/// construction: same kind, same modeled rate, same link parameters and the
/// same memory node mean every member produces the same cost estimate for
/// any task, so HEFT evaluates one candidate per class instead of one per
/// device. All host-node CPUs with one spec collapse into a single class (a
/// 1k-worker quantity expansion becomes one candidate); accelerators own
/// private memory nodes — their replica state differs per device — and stay
/// singleton classes. Classes are created in device-id order, so the class
/// order matches exhaustive HEFT's lowest-index tie-breaking.
struct PlacementClass {
  DeviceKind kind = DeviceKind::kCpu;
  MemoryNodeId node = kHostNode;
  /// Lowest member id; its device class prices the placement class.
  DeviceId representative = -1;
  std::vector<DeviceId> members;  ///< ascending device ids
  /// Members not blacklisted; decremented by the engine's blacklist path.
  /// Atomic so the submit path can read it without the engine mutex.
  std::atomic<int> live_members{0};
};

/// std::deque, not vector: the embedded atomic makes the struct immovable.
using PlacementClassSet = std::deque<PlacementClass>;

/// Chunked TaskNode pool: node addresses are stable for the engine's
/// lifetime (successor edges are raw pointers) and allocation happens once
/// per kChunk submissions instead of once per task. Guarded by the
/// engine's submit mutex; ids are dense from 1, so node i lives at
/// index id - 1.
/// Chunked stable-address arena: elements never move once created (they
/// are referred to by raw pointer everywhere), and appending amortizes to
/// one allocation per kChunk elements instead of one per element (or per
/// deque page — std::deque<DataHandle> fits ~3 handles per 512-byte page).
template <typename T>
class Arena {
 public:
  static constexpr std::size_t kChunk = 64;

  T& emplace_back() {
    if (size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    return (*this)[size_++];
  }

  /// Pre-allocate room for `n` more elements (batched submission).
  void reserve_more(std::size_t n) {
    while (chunks_.size() * kChunk < size_ + n) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
  }

  T& operator[](std::size_t i) {
    return (*chunks_[i / kChunk])[i % kChunk];
  }
  const T& operator[](std::size_t i) const {
    return (*chunks_[i / kChunk])[i % kChunk];
  }

  std::size_t size() const { return size_; }

 private:
  using Chunk = std::array<T, kChunk>;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

using TaskArena = Arena<TaskNode>;

}  // namespace starvm::detail
