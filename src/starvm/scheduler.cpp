#include "starvm/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "starvm/device_heap.hpp"

namespace starvm::detail {

namespace {

bool device_capable(const DeviceState& device, const TaskNode& task) {
  return !device.blacklisted.load(std::memory_order_relaxed) &&
         task.codelet->supports(device.spec.kind);
}

bool any_live_capable(const std::deque<DeviceState>& devices,
                      const TaskNode& task) {
  for (const DeviceState& device : devices) {
    if (device_capable(device, task)) return true;
  }
  return false;
}

/// Stable priority order: insert after the last entry with priority >= ours,
/// so equal priorities keep submission (FIFO) order. Scanning from the BACK
/// makes the common all-default-priority case O(1) — a front scan walks the
/// entire queue per push and turns a burst of N submissions into O(N^2).
void priority_insert(std::deque<TaskNode*>& queue, TaskNode* task) {
  auto it = queue.end();
  while (it != queue.begin() && (*std::prev(it))->priority < task->priority) {
    --it;
  }
  queue.insert(it, task);
}

/// One device's ready tasks in the per-lane schedulers: a vector plus a
/// head index. Unlike std::deque, whose constructor allocates a map and a
/// node, it allocates nothing until its first push, so a device that is
/// never given work costs nothing. Pops advance the head; the popped
/// prefix is reclaimed once it is half the buffer, so a queue that never
/// runs empty stays bounded. Order is a deque's: FIFO, and erase keeps the
/// order of the rest.
class TaskFifo {
 public:
  using iterator = std::vector<TaskNode*>::iterator;
  using const_iterator = std::vector<TaskNode*>::const_iterator;

  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }
  TaskNode* front() const { return buf_[head_]; }

  void push_back(TaskNode* task) { buf_.push_back(task); }

  void pop_front() {
    if (++head_ == buf_.size()) {
      clear();
    } else if (2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(), begin());
      head_ = 0;
    }
  }

  void erase(iterator it) {
    if (it == begin()) {
      pop_front();
    } else {
      buf_.erase(it);
    }
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  iterator begin() { return buf_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return buf_.end(); }
  const_iterator begin() const {
    return buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return buf_.end(); }
  auto rbegin() { return std::make_reverse_iterator(end()); }
  auto rend() { return std::make_reverse_iterator(begin()); }
  auto rbegin() const { return std::make_reverse_iterator(end()); }
  auto rend() const { return std::make_reverse_iterator(begin()); }

 private:
  std::vector<TaskNode*> buf_;
  std::size_t head_ = 0;  ///< index of the front task in buf_
};

double device_avail(const std::deque<DeviceState>& devices, DeviceId device) {
  return devices[static_cast<std::size_t>(device)].avail_vtime.load(
      std::memory_order_relaxed);
}

bool blacklisted(const std::deque<DeviceState>& devices, DeviceId device) {
  return devices[static_cast<std::size_t>(device)].blacklisted.load(
      std::memory_order_relaxed);
}

/// Neither blacklisted nor running a threaded worker's kernel.
bool free_lane(const std::deque<DeviceState>& devices, DeviceId device) {
  return !devices[static_cast<std::size_t>(device)].busy &&
         !blacklisted(devices, device);
}

/// Every device of `devices`, keyed by its virtual clock.
DeviceHeap avail_heap(const std::deque<DeviceState>& devices) {
  DeviceHeap heap(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    heap.set(static_cast<DeviceId>(i), device_avail(devices, static_cast<DeviceId>(i)));
  }
  return heap;
}

/// The first free lane in (avail_vtime, id) order that `pop` finds work
/// for: what popping over every free lane in that order would return.
template <typename Pop>
TaskNode* pop_in_avail_order(const DeviceHeap& avail,
                             const std::deque<DeviceState>& devices, Pop&& pop,
                             DeviceId* device) {
  TaskNode* task = nullptr;
  avail.walk([&](const DeviceHeap::Entry& e) {
    const DeviceId d = e.device;  // pop(d) may move entries of `avail`
    if (!free_lane(devices, d)) return true;
    task = pop(d);
    if (task != nullptr) *device = d;
    return task == nullptr;
  });
  return task;
}

/// Single shared FIFO; the first idle device with a matching implementation
/// takes the oldest runnable task. Greedy, model-free.
class EagerScheduler final : public Scheduler {
 public:
  explicit EagerScheduler(const std::deque<DeviceState>* devices)
      : devices_(devices), avail_(avail_heap(*devices)) {}

  void push(TaskNode* task) override { priority_insert(queue_, task); }

  TaskNode* pop(DeviceId device) override {
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (device_capable(dev, **it)) {
        TaskNode* task = *it;
        queue_.erase(it);
        return task;
      }
    }
    return nullptr;
  }

  TaskNode* peek(DeviceId device) const override {
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
    for (TaskNode* task : queue_) {
      if (device_capable(dev, *task)) return task;
    }
    return nullptr;
  }

  TaskNode* pop_earliest(DeviceId* device) override {
    if (queue_.empty()) return nullptr;
    // The shared queue is capability-filtered at pop time, so the earliest
    // device may come up empty-handed while a later one can run something;
    // keep scanning (bounded by the number of distinct device kinds in
    // practice — a capable device usually sits at the front).
    return pop_in_avail_order(
        avail_, *devices_, [this](DeviceId d) { return pop(d); }, device);
  }

  void on_device_time_advanced(DeviceId device) override {
    avail_.rekey(device, device_avail(*devices_, device));
  }

  bool empty() const override { return queue_.empty(); }

  std::size_t size() const override { return queue_.size(); }

  std::vector<TaskNode*> drain_device(DeviceId device) override {
    // Shared queue: survivors keep draining it. Only evict tasks that no
    // live device can run, so the engine can fail them instead of hanging.
    avail_.erase(device);
    std::vector<TaskNode*> orphans;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (!any_live_capable(*devices_, **it)) {
        orphans.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return orphans;
  }

 private:
  const std::deque<DeviceState>* devices_;
  std::deque<TaskNode*> queue_;
  DeviceHeap avail_;  ///< every live device, keyed by its virtual clock
};

/// Per-device FIFOs with round-robin placement and back-stealing.
class WorkStealingScheduler final : public Scheduler {
 public:
  explicit WorkStealingScheduler(const std::deque<DeviceState>* devices)
      : devices_(devices), queues_(devices->size()), avail_(avail_heap(*devices)) {}

  void push(TaskNode* task) override {
    ++total_;
    // Round-robin over capable devices spreads independent tasks without a
    // model; stealing repairs imbalance afterwards.
    const std::size_t n = queues_.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t i = (next_ + probe) % n;
      if (device_capable((*devices_)[i], *task)) {
        queues_[i].push_back(task);
        next_ = i + 1;
        return;
      }
    }
    // No capable device: keep it in queue 0; pop() re-checks capability and
    // the engine has already validated codelets, so this is unreachable in
    // practice but keeps the invariant "pushed tasks are never dropped".
    queues_[0].push_back(task);
  }

  TaskNode* pop(DeviceId device) override {
    auto& own = queues_[static_cast<std::size_t>(device)];
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
    for (auto it = own.begin(); it != own.end(); ++it) {
      if (device_capable(dev, **it)) {
        TaskNode* task = *it;
        own.erase(it);
        --total_;
        return task;
      }
    }
    // Steal from the back of the longest victim queue.
    std::size_t victim = queues_.size();
    std::size_t best = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (i == static_cast<std::size_t>(device)) continue;
      if (queues_[i].size() > best) {
        best = queues_[i].size();
        victim = i;
      }
    }
    if (victim == queues_.size()) return nullptr;
    auto& vq = queues_[victim];
    for (auto it = vq.rbegin(); it != vq.rend(); ++it) {
      if (device_capable(dev, **it)) {
        TaskNode* task = *it;
        vq.erase(std::next(it).base());
        --total_;
        ++steals_;
        return task;
      }
    }
    return nullptr;
  }

  TaskNode* peek(DeviceId device) const override {
    // Mirror pop()'s scan exactly — own queue front-to-back, then the back
    // of the longest victim queue — without erasing anything.
    const auto& own = queues_[static_cast<std::size_t>(device)];
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
    for (TaskNode* task : own) {
      if (device_capable(dev, *task)) return task;
    }
    std::size_t victim = queues_.size();
    std::size_t best = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (i == static_cast<std::size_t>(device)) continue;
      if (queues_[i].size() > best) {
        best = queues_[i].size();
        victim = i;
      }
    }
    if (victim == queues_.size()) return nullptr;
    const auto& vq = queues_[victim];
    for (auto it = vq.rbegin(); it != vq.rend(); ++it) {
      if (device_capable(dev, **it)) return *it;
    }
    return nullptr;
  }

  TaskNode* pop_earliest(DeviceId* device) override {
    if (total_ == 0) return nullptr;
    // pop() steals when the device's own queue is empty, so the earliest
    // device finds work as long as any capable task is queued anywhere.
    return pop_in_avail_order(
        avail_, *devices_, [this](DeviceId d) { return pop(d); }, device);
  }

  void on_device_time_advanced(DeviceId device) override {
    avail_.rekey(device, device_avail(*devices_, device));
  }

  bool empty() const override { return total_ == 0; }

  std::size_t size() const override { return total_; }

  std::uint64_t steals() const override { return steals_; }

  std::vector<TaskNode*> drain_device(DeviceId device) override {
    avail_.erase(device);
    auto& q = queues_[static_cast<std::size_t>(device)];
    std::vector<TaskNode*> drained(q.begin(), q.end());
    q.clear();
    total_ -= drained.size();
    return drained;
  }

 private:
  const std::deque<DeviceState>* devices_;
  std::vector<TaskFifo> queues_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  std::uint64_t steals_ = 0;  ///< pops served from another lane's queue
  DeviceHeap avail_;  ///< every live device, keyed by its virtual clock
};

/// Model-based earliest-finish-time placement (StarPU dmda-like): each task
/// goes, at push time, to the placement class minimizing
///   max(est_avail(cheapest member), task.ready) + transfer_est + exec_est,
/// then to that cheapest member. With singleton classes this is exactly the
/// classic per-device HEFT scan; with grouped classes it evaluates one
/// candidate per device flavor and picks the member with the smallest
/// estimated backlog in O(log members).
class HeftScheduler final : public Scheduler {
 public:
  HeftScheduler(const std::deque<DeviceState>* devices,
                const PlacementClassSet* classes, CostClassFn cost_fn,
                DecisionOracle* oracle)
      : devices_(devices),
        classes_(classes),
        cost_fn_(std::move(cost_fn)),
        queues_(devices->size()),
        members_(devices->size(), member_counts(*classes)),
        ready_(devices->size()),
        oracle_(oracle) {
    for (std::size_t c = 0; c < classes->size(); ++c) {
      for (const DeviceId m : (*classes)[c].members) members_.set(m, 0.0, c);
    }
  }

  void push(TaskNode* task) override {
    costs_.resize(classes_->size());
    cost_fn_(*task, costs_.data());
    const double ready = task->ready_vtime.load(std::memory_order_relaxed);
    double best_finish = std::numeric_limits<double>::infinity();
    std::size_t best_class = classes_->size();
    DeviceId best_device = -1;
    for (std::size_t c = 0; c < classes_->size(); ++c) {
      const PlacementClass& pc = (*classes_)[c];
      if (!task->codelet->supports(pc.kind)) continue;
      if (members_.empty(c)) continue;  // every member blacklisted
      // The cheapest member is the class's candidate: all members share one
      // cost estimate, so the smallest backlog finishes first, ties to the
      // lowest device id (the exhaustive scan's tie-break).
      const auto& [est, dev] = members_.top(c);
      const double finish = std::max(est, ready) + costs_[c];
      if (finish < best_finish) {
        best_finish = finish;
        best_class = c;
        best_device = dev;
      }
    }
    if (best_device < 0) {
      // Unreachable in practice (the engine validates codelets against the
      // platform), but keeps the invariant "pushed tasks are never dropped":
      // park on queue 0 without touching the class candidate heaps.
      queues_[0].push_back(task);
      ++total_;
      if (queues_[0].size() == 1) ready_.set(0, device_avail(*devices_, 0));
      return;
    }
    if (oracle_ != nullptr) {
      // Placement-class member resolution is a genuine choice point: every
      // member whose estimated backlog ties the minimum finishes the task at
      // the same modeled time. The canonical pick (alternative 0) is the
      // lowest device id — exactly what members_.top() yields — so replay
      // with a CanonicalOracle is byte-identical to running with none.
      const double min_est = members_.top(best_class).key;
      ChoicePoint cp;
      cp.kind = ChoiceKind::kMember;
      members_.walk(
          [&](const DeviceHeap::Entry& e) {
            if (e.key != min_est) return false;  // (est, id) order: ties first
            cp.alts.push_back({task->id, e.device});
            return true;
          },
          best_class);
      if (cp.alts.size() > 1) {
        const int pick = oracle_->choose(cp);
        best_device = cp.alts[static_cast<std::size_t>(pick)].device;
      } else {
        oracle_->note(ChoiceKind::kMember, task->id, best_device);
      }
    }
    members_.set(best_device, best_finish, best_class);
    auto& queue = queues_[static_cast<std::size_t>(best_device)];
    queue.push_back(task);
    ++total_;
    if (queue.size() == 1) {
      ready_.set(best_device, device_avail(*devices_, best_device));
    }
  }

  TaskNode* pop(DeviceId device) override {
    auto& own = queues_[static_cast<std::size_t>(device)];
    if (own.empty()) return nullptr;
    TaskNode* task = own.front();
    own.pop_front();
    --total_;
    if (own.empty()) ready_.erase(device);
    return task;
  }

  TaskNode* peek(DeviceId device) const override {
    if (blacklisted(*devices_, device)) return nullptr;
    const auto& own = queues_[static_cast<std::size_t>(device)];
    return own.empty() ? nullptr : own.front();
  }

  TaskNode* pop_earliest(DeviceId* device) override {
    // ready_ holds exactly the devices with queued work, keyed by their
    // virtual clock, so its first live entry is the device the old sorted
    // scan would have reached first. Blacklisted devices were drained out.
    return pop_in_avail_order(
        ready_, *devices_, [this](DeviceId d) { return pop(d); }, device);
  }

  void on_device_time_advanced(DeviceId device) override {
    ready_.rekey(device, device_avail(*devices_, device));
  }

  bool empty() const override { return total_ == 0; }

  std::size_t size() const override { return total_; }

  std::vector<TaskNode*> drain_device(DeviceId device) override {
    auto& q = queues_[static_cast<std::size_t>(device)];
    std::vector<TaskNode*> drained(q.begin(), q.end());
    q.clear();
    total_ -= drained.size();
    ready_.erase(device);
    // The dead device stops being a class candidate; re-pushed tasks are
    // placed on the survivors.
    members_.erase(device);
    return drained;
  }

 private:
  static std::vector<std::size_t> member_counts(const PlacementClassSet& classes) {
    std::vector<std::size_t> counts;
    counts.reserve(classes.size());
    for (const PlacementClass& pc : classes) counts.push_back(pc.members.size());
    return counts;
  }

  const std::deque<DeviceState>* devices_;
  const PlacementClassSet* classes_;
  CostClassFn cost_fn_;
  std::vector<TaskFifo> queues_;
  /// One heap per placement class over its live members, keyed by estimated
  /// backlog; top(c) is the class candidate HEFT compares against the
  /// other classes.
  DeviceHeap members_;
  DeviceHeap ready_;  ///< devices with queued work, keyed by virtual clock
  std::size_t total_ = 0;
  std::vector<double> costs_;  ///< scratch row (engine mutex held)
  DecisionOracle* oracle_ = nullptr;  ///< member-tie resolution; nullable
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          const std::deque<DeviceState>* devices,
                                          const PlacementClassSet* classes,
                                          CostClassFn cost_fn,
                                          DecisionOracle* oracle) {
  switch (kind) {
    case SchedulerKind::kEager:
      return std::make_unique<EagerScheduler>(devices);
    case SchedulerKind::kWorkStealing:
      return std::make_unique<WorkStealingScheduler>(devices);
    case SchedulerKind::kHeft:
      return std::make_unique<HeftScheduler>(devices, classes,
                                             std::move(cost_fn), oracle);
  }
  return std::make_unique<EagerScheduler>(devices);
}

}  // namespace starvm::detail
