#include "starvm/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <thread>
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

/// Class-granular capability probe: O(classes) instead of O(devices), using
/// the live-member counts the engine maintains on its blacklist path.
bool any_live_capable_class(const PlacementClassSet& classes,
                            const TaskNode& task) {
  for (const PlacementClass& pc : classes) {
    if (pc.live_members.load(std::memory_order_relaxed) > 0 &&
        task.codelet->supports(pc.kind)) {
      return true;
    }
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

/// One device's ready tasks in the simulation schedulers: a vector plus a
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

/// Every device of `devices`, keyed by its virtual clock.
DeviceHeap avail_heap(const std::deque<DeviceState>& devices) {
  DeviceHeap heap(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    heap.set(static_cast<DeviceId>(i), device_avail(devices, static_cast<DeviceId>(i)));
  }
  return heap;
}

/// The first live device in (avail_vtime, id) order that `pop` finds work
/// for: what popping over every live device in that order would return.
template <typename Pop>
TaskNode* pop_in_avail_order(const DeviceHeap& avail,
                             const std::deque<DeviceState>& devices, Pop&& pop,
                             DeviceId* device) {
  TaskNode* task = nullptr;
  avail.walk([&](const DeviceHeap::Entry& e) {
    const DeviceId d = e.device;  // pop(d) may move entries of `avail`
    if (blacklisted(devices, d)) return true;
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

// --- HybridDispatch ----------------------------------------------------------

HybridDispatch::HybridDispatch(SchedulerKind kind,
                               std::deque<DeviceState>* devices,
                               const PlacementClassSet* classes,
                               CostClassFn cost_fn)
    : kind_(kind),
      devices_(devices),
      classes_(classes),
      cost_fn_(std::move(cost_fn)),
      queues_(std::make_unique<ReadyQueue[]>(devices->size())),
      class_rr_(new std::atomic<std::size_t>[classes->size()]) {
  for (std::size_t c = 0; c < classes->size(); ++c) {
    class_rr_[c].store(0, std::memory_order_relaxed);
  }
}

DeviceId HybridDispatch::pick_member(std::size_t cls) {
  const PlacementClass& pc = (*classes_)[cls];
  const std::size_t m = pc.members.size();
  if (m == 1) {
    const DeviceId only = pc.members[0];
    return (*devices_)[static_cast<std::size_t>(only)].blacklisted.load(
               std::memory_order_relaxed)
               ? -1
               : only;
  }
  // Two-choice load balancing: probe a small rotating window and take the
  // member with the smallest estimated backlog. Near-optimal spread at O(1)
  // cost — a full member scan would reintroduce the O(devices) walk the
  // classes exist to avoid.
  constexpr std::size_t kProbes = 2;
  const std::size_t start = class_rr_[cls].fetch_add(1, std::memory_order_relaxed);
  DeviceId best = -1;
  double best_est = std::numeric_limits<double>::infinity();
  for (std::size_t probe = 0; probe < kProbes && probe < m; ++probe) {
    const DeviceId candidate = pc.members[(start + probe) % m];
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(candidate)];
    if (dev.blacklisted.load(std::memory_order_relaxed)) continue;
    const double est = dev.est_avail.load(std::memory_order_relaxed);
    if (est < best_est) {
      best_est = est;
      best = candidate;
    }
  }
  if (best >= 0) return best;
  // Every probed member was blacklisted (rare); fall back to a full scan
  // for any survivor.
  for (const DeviceId candidate : pc.members) {
    if (!(*devices_)[static_cast<std::size_t>(candidate)].blacklisted.load(
            std::memory_order_relaxed)) {
      return candidate;
    }
  }
  return -1;
}

DeviceId HybridDispatch::place(const TaskNode& task) {
  if (kind_ == SchedulerKind::kWorkStealing) {
    const std::size_t n = devices_->size();
    const std::size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t i = (start + probe) % n;
      if (device_capable((*devices_)[i], task)) {
        return static_cast<DeviceId>(i);
      }
    }
    return -1;
  }
  // kHeft: earliest estimated finish over the placement classes — one cost
  // estimate per device flavor, not per device — then the cheapest probed
  // member inside the winning class. Concurrent placements may read
  // slightly stale est_avail values — a heuristic race that degrades
  // placement, never correctness. The cost row is fetched in one call
  // (single model/memory lock round-trip); thread_local scratch keeps
  // concurrent submitters allocation-free.
  static thread_local std::vector<double> costs;
  const std::size_t nc = classes_->size();
  costs.resize(nc);
  cost_fn_(task, costs.data());
  double best_finish = std::numeric_limits<double>::infinity();
  DeviceId best_device = -1;
  const double ready = task.ready_vtime.load(std::memory_order_relaxed);
  for (std::size_t c = 0; c < nc; ++c) {
    const PlacementClass& pc = (*classes_)[c];
    if (!task.codelet->supports(pc.kind)) continue;
    if (pc.live_members.load(std::memory_order_relaxed) <= 0) continue;
    const DeviceId member = pick_member(c);
    if (member < 0) continue;
    const DeviceState& dev = (*devices_)[static_cast<std::size_t>(member)];
    const double start =
        std::max(dev.est_avail.load(std::memory_order_relaxed), ready);
    const double finish = start + costs[c];
    if (finish < best_finish) {
      best_finish = finish;
      best_device = member;
    }
  }
  if (best_device >= 0) {
    vtime_raise((*devices_)[static_cast<std::size_t>(best_device)].est_avail,
                best_finish);
  }
  return best_device;
}

bool HybridDispatch::push_to(DeviceId device, TaskNode* task, bool notify) {
  const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
  ReadyQueue& q = queues_[static_cast<std::size_t>(device)];
  bool wake = false;
  bool nudge_peer = false;
  {
    std::lock_guard<std::mutex> lock(q.m);
    // Re-check under the queue mutex: blacklisting sets the flag first and
    // drains the queue after, both against this mutex, so either we insert
    // before the drain (and the task is re-routed) or we see the flag.
    if (dev.blacklisted.load(std::memory_order_relaxed)) return false;
    const bool was_empty = q.tasks.empty();
    q.tasks.push_back(task);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Wake only on the empty -> non-empty transition, and only when someone
    // is actually asleep (sleepers is registered under this mutex before
    // the worker waits, so this read cannot miss a sleeper that already
    // passed its queue re-check). A non-empty queue means the owner is
    // either awake or has an undelivered wakeup: it drains to empty under
    // this mutex before it ever sleeps again. Skipping the futex syscall on
    // the other pushes is the difference between one wake per task and one
    // per burst.
    wake = notify && was_empty && q.sleepers.load(std::memory_order_relaxed) > 0;
    nudge_peer = notify && kind_ == SchedulerKind::kWorkStealing &&
                 q.tasks.size() > 1 && devices_->size() > 1;
  }
  // Notify with the mutex released: a woken worker immediately re-acquires
  // the queue mutex, so signalling while holding it forces an extra block/
  // unblock cycle on every handoff.
  if (wake) q.cv.notify_one();
  if (nudge_peer) {
    // The owner may be busy for a while; nudge one sleeping peer so
    // back-stealing picks the backlog up without waiting for its rescan
    // timeout (heuristic — a stale sleepers read at worst delays a steal).
    const std::size_t peer =
        (static_cast<std::size_t>(device) + 1) % devices_->size();
    ReadyQueue& pq = queues_[peer];
    if (pq.sleepers.load(std::memory_order_relaxed) > 0) pq.cv.notify_one();
  }
  return true;
}

bool HybridDispatch::push(TaskNode* task) {
  if (kind_ == SchedulerKind::kEager) {
    if (!any_live_capable_class(*classes_, *task)) return false;
    bool wake;
    {
      std::lock_guard<std::mutex> lock(shared_.m);
      priority_insert(shared_.tasks, task);
      count_.fetch_add(1, std::memory_order_relaxed);
      wake = shared_.sleepers.load(std::memory_order_relaxed) > 0;
    }
    // notify_all, not notify_one: the shared queue is capability-filtered
    // at pop time, so waking a single worker could pick one whose device
    // cannot run this task while the capable worker keeps sleeping.
    if (wake) shared_.cv.notify_all();
    return true;
  }
  // A device can be blacklisted between place() and push_to(); re-place
  // until the insert lands or no candidate remains.
  for (;;) {
    const DeviceId device = place(*task);
    if (device < 0) return false;
    if (push_to(device, task, /*notify=*/true)) return true;
  }
}

std::vector<TaskNode*> HybridDispatch::push_batch(
    const std::vector<TaskNode*>& tasks) {
  std::vector<TaskNode*> rejected;
  if (kind_ == SchedulerKind::kEager) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(shared_.m);
      for (TaskNode* task : tasks) {
        if (!any_live_capable_class(*classes_, *task)) {
          rejected.push_back(task);
          continue;
        }
        priority_insert(shared_.tasks, task);
        count_.fetch_add(1, std::memory_order_relaxed);
      }
      wake = shared_.sleepers.load(std::memory_order_relaxed) > 0;
    }
    if (wake) shared_.cv.notify_all();
    return rejected;
  }

  // Bucket per device so each involved queue is locked and notified once.
  std::vector<std::vector<TaskNode*>> buckets(devices_->size());
  for (TaskNode* task : tasks) {
    const DeviceId device = place(*task);
    if (device < 0) {
      rejected.push_back(task);
      continue;
    }
    buckets[static_cast<std::size_t>(device)].push_back(task);
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].empty()) continue;
    const DeviceState& dev = (*devices_)[i];
    ReadyQueue& q = queues_[i];
    bool placed = false;
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(q.m);
      if (!dev.blacklisted.load(std::memory_order_relaxed)) {
        was_empty = q.tasks.empty();
        for (TaskNode* task : buckets[i]) q.tasks.push_back(task);
        count_.fetch_add(buckets[i].size(), std::memory_order_relaxed);
        placed = true;
      }
    }
    if (placed) {
      if (kind_ == SchedulerKind::kWorkStealing && buckets[i].size() > 1) {
        // A burst on one device is exactly what stealing exists for: wake
        // every worker, not just the owner.
        notify_all();
      } else if (was_empty && q.sleepers.load(std::memory_order_relaxed) > 0) {
        // Empty -> non-empty transition only (see push_to). Safe to read
        // sleepers after unlocking: a sleeper either registered before our
        // push (visible via the mutex) or re-checked the queue after it
        // and found the batch.
        q.cv.notify_one();
      }
    } else {
      // Blacklisted while batching: fall back to one-by-one re-placement.
      for (TaskNode* task : buckets[i]) {
        if (!push(task)) rejected.push_back(task);
      }
    }
  }
  return rejected;
}

TaskNode* HybridDispatch::pop_local(DeviceId device) {
  const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
  if (kind_ == SchedulerKind::kEager) {
    std::lock_guard<std::mutex> lock(shared_.m);
    for (auto it = shared_.tasks.begin(); it != shared_.tasks.end(); ++it) {
      if (device_capable(dev, **it)) {
        TaskNode* task = *it;
        shared_.tasks.erase(it);
        count_.fetch_sub(1, std::memory_order_relaxed);
        return task;
      }
    }
    return nullptr;
  }
  ReadyQueue& q = queues_[static_cast<std::size_t>(device)];
  std::lock_guard<std::mutex> lock(q.m);
  if (q.tasks.empty()) return nullptr;
  // Per-device queues only ever receive tasks the device can run.
  TaskNode* task = q.tasks.front();
  q.tasks.pop_front();
  count_.fetch_sub(1, std::memory_order_relaxed);
  return task;
}

TaskNode* HybridDispatch::steal_for(DeviceId thief) {
  // Only the work-stealing policy steals: kEager has nothing device-bound,
  // and kHeft's model-based placement is final — stealing would silently
  // override the cost model (and move work off the accelerators it chose).
  if (kind_ != SchedulerKind::kWorkStealing) return nullptr;
  const std::size_t n = devices_->size();
  const DeviceState& me = (*devices_)[static_cast<std::size_t>(thief)];
  for (std::size_t offset = 1; offset < n; ++offset) {
    const std::size_t v = (static_cast<std::size_t>(thief) + offset) % n;
    ReadyQueue& victim = queues_[v];
    std::lock_guard<std::mutex> lock(victim.m);
    // Steal the oldest work we can actually run, from the back — the
    // owner pops the front, so contention on a 2-element queue is nil.
    for (auto it = victim.tasks.rbegin(); it != victim.tasks.rend(); ++it) {
      if ((*it)->codelet->supports(me.spec.kind)) {
        TaskNode* task = *it;
        victim.tasks.erase(std::next(it).base());
        ++victim.steals_out;
        count_.fetch_sub(1, std::memory_order_relaxed);
        return task;
      }
    }
  }
  return nullptr;
}

TaskNode* HybridDispatch::wait_pop(DeviceId device,
                                   const std::atomic<bool>& stopping) {
  const DeviceState& dev = (*devices_)[static_cast<std::size_t>(device)];
  ReadyQueue& q = kind_ == SchedulerKind::kEager
                      ? shared_
                      : queues_[static_cast<std::size_t>(device)];
  // Empty polls since the last task; governs the yield-before-sleep below.
  int idle_polls = 0;
  for (;;) {
    if (TaskNode* task = pop_local(device)) return task;
    if (!dev.blacklisted.load(std::memory_order_relaxed)) {
      if (TaskNode* task = steal_for(device)) return task;
    }
    // Yield a few times before sleeping: while a submitter is actively
    // producing, the worker stays runnable (sleepers == 0, so pushes skip
    // the futex syscall) and each yield hands the core to the submitter,
    // which typically queues a burst the next poll drains. Only a queue
    // that stays empty across several quanta puts the worker to sleep.
    if (idle_polls < 8 && !stopping.load(std::memory_order_relaxed)) {
      ++idle_polls;
      std::this_thread::yield();
      continue;
    }
    idle_polls = 0;
    std::unique_lock<std::mutex> lock(q.m);
    // Re-check under the queue mutex: a push after our pop_local above
    // would otherwise be a lost wakeup.
    if (kind_ == SchedulerKind::kEager) {
      for (auto it = shared_.tasks.begin(); it != shared_.tasks.end(); ++it) {
        if (device_capable(dev, **it)) {
          TaskNode* task = *it;
          shared_.tasks.erase(it);
          count_.fetch_sub(1, std::memory_order_relaxed);
          return task;
        }
      }
    } else if (!q.tasks.empty()) {
      TaskNode* task = q.tasks.front();
      q.tasks.pop_front();
      count_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
    if (stopping.load(std::memory_order_relaxed)) return nullptr;
    // Register as a sleeper BEFORE waiting, still under q.m: a pusher that
    // takes q.m after us must see sleepers > 0 and notify; one that ran
    // before us already enqueued the task our re-check above would have
    // found. Either way no wakeup is lost, and pushers may skip the futex
    // syscall entirely whenever sleepers == 0.
    q.sleepers.fetch_add(1, std::memory_order_relaxed);
    if (kind_ == SchedulerKind::kWorkStealing &&
        count_.load(std::memory_order_relaxed) > 0) {
      // Work is queued somewhere we could steal from; rescan soon even if
      // nobody nudges us. Non-stealing policies only receive work through
      // their own queue's notification, so they sleep without a timeout.
      q.cv.wait_for(lock, std::chrono::milliseconds(2));
    } else {
      q.cv.wait(lock);
    }
    q.sleepers.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::vector<TaskNode*> HybridDispatch::drain_device(DeviceId device) {
  if (kind_ == SchedulerKind::kEager) {
    // Shared queue: survivors keep draining it; evict only orphans.
    std::vector<TaskNode*> orphans;
    std::lock_guard<std::mutex> lock(shared_.m);
    for (auto it = shared_.tasks.begin(); it != shared_.tasks.end();) {
      if (!any_live_capable(*devices_, **it)) {
        orphans.push_back(*it);
        it = shared_.tasks.erase(it);
        count_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
    return orphans;
  }
  ReadyQueue& q = queues_[static_cast<std::size_t>(device)];
  std::lock_guard<std::mutex> lock(q.m);
  std::vector<TaskNode*> drained(q.tasks.begin(), q.tasks.end());
  q.tasks.clear();
  count_.fetch_sub(drained.size(), std::memory_order_relaxed);
  return drained;
}

std::uint64_t HybridDispatch::steals() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < devices_->size(); ++i) {
    std::lock_guard<std::mutex> lock(queues_[i].m);
    total += queues_[i].steals_out;
  }
  return total;
}

void HybridDispatch::notify_all() {
  // The empty critical sections order this notification against workers in
  // wait_pop: a worker holds the queue mutex from its stopping/queue
  // re-check until cv.wait releases it, so locking here guarantees the
  // worker either sees the new state or is already waiting when we notify.
  {
    std::lock_guard<std::mutex> lock(shared_.m);
  }
  shared_.cv.notify_all();
  for (std::size_t i = 0; i < devices_->size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(queues_[i].m);
    }
    queues_[i].cv.notify_all();
  }
}

}  // namespace starvm::detail
