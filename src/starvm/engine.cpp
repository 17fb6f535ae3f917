#include "starvm/engine.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <tuple>

#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/trace_export.hpp"
#include "util/stopwatch.hpp"

namespace starvm {

namespace {

/// Threaded mode: once the moving average of measured kernel times falls
/// below kShortKernelSeconds, kernels run one at a time until it rises
/// above kLongKernelSeconds. Every turn takes the one engine lock, so for
/// such kernels a second worker would mostly wait for it and slow the
/// first one down. The gap keeps a mix of long and short kernels from
/// flipping the mode. The average starts long: the first tasks wake
/// workers as soon as work is left.
constexpr double kShortKernelSeconds = 1e-6;
constexpr double kLongKernelSeconds = 4e-6;
/// Weight of one measured kernel in that average.
constexpr double kKernelAverageWeight = 1.0 / 64;

/// Threaded mode: how often an idle worker yields its core and looks for a
/// push before it sleeps.
constexpr int kPollsBeforeSleep = 64;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Engine telemetry (obs registry), shared by every engine instance.
obs::Counter& tasks_completed_counter() {
  static obs::Counter& c = obs::counter("starvm.tasks_completed");
  return c;
}
obs::Counter& tasks_submitted_counter() {
  static obs::Counter& c = obs::counter("starvm.tasks_submitted");
  return c;
}
obs::Histogram& submit_batch_histogram() {
  static obs::Histogram& h = obs::histogram("starvm.submit_batch_tasks");
  return h;
}
obs::Counter& transfers_counter() {
  static obs::Counter& c = obs::counter("starvm.transfers");
  return c;
}
obs::Counter& evictions_counter() {
  static obs::Counter& c = obs::counter("starvm.evictions");
  return c;
}
obs::Gauge& ready_queue_gauge() {
  static obs::Gauge& g = obs::gauge("starvm.ready_queue");
  return g;
}
obs::Histogram& task_exec_us_histogram() {
  static obs::Histogram& h = obs::histogram("starvm.task_exec_us");
  return h;
}
obs::Counter& task_failures_counter() {
  static obs::Counter& c = obs::counter("starvm.task_failures");
  return c;
}
obs::Counter& task_retries_counter() {
  static obs::Counter& c = obs::counter("starvm.task_retries");
  return c;
}
obs::Counter& task_timeouts_counter() {
  static obs::Counter& c = obs::counter("starvm.task_timeouts");
  return c;
}
obs::Counter& device_blacklists_counter() {
  static obs::Counter& c = obs::counter("starvm.device_blacklists");
  return c;
}

/// Run `impl` on `task`'s buffers for `device`, turning ExecContext::fail()
/// and thrown exceptions into a failure reason. True on success.
bool run_attempt(const Implementation& impl, const detail::TaskNode& task,
                 const detail::DeviceState& device, std::string& reason) {
  ExecContext ctx;
  ctx.device = device.id;
  ctx.device_kind = device.spec.kind;
  ctx.buffers = &task.buffers;
  try {
    impl.fn(ctx);
    if (ctx.failed()) {
      reason = ctx.error().empty() ? "codelet reported failure" : ctx.error();
      return false;
    }
  } catch (const std::exception& e) {
    reason = std::string("codelet threw: ") + e.what();
    return false;
  } catch (...) {
    reason = "codelet threw an unknown exception";
    return false;
  }
  return true;
}

}  // namespace

EngineConfig EngineConfig::cpus(int n, double sustained_gflops) {
  EngineConfig config;
  for (int i = 0; i < n; ++i) {
    DeviceSpec spec;
    spec.name = "cpu" + std::to_string(i);
    spec.kind = DeviceKind::kCpu;
    spec.sustained_gflops = sustained_gflops;
    config.devices.push_back(std::move(spec));
  }
  return config;
}

std::string_view to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kCpu: return "cpu";
    case DeviceKind::kAccelerator: return "accelerator";
  }
  return "?";
}

std::string_view to_string(Access access) {
  switch (access) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kReadWrite: return "readwrite";
  }
  return "?";
}

std::string_view to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEager: return "eager";
    case SchedulerKind::kWorkStealing: return "ws";
    case SchedulerKind::kHeft: return "heft";
  }
  return "?";
}

const char* to_string(TaskAttempt::Outcome outcome) {
  switch (outcome) {
    case TaskAttempt::Outcome::kCompleted: return "completed";
    case TaskAttempt::Outcome::kFailed: return "failed";
    case TaskAttempt::Outcome::kTimeout: return "timeout";
    case TaskAttempt::Outcome::kRerouted: return "rerouted";
    case TaskAttempt::Outcome::kCancelled: return "cancelled";
  }
  return "?";
}

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.devices.empty()) {
    throw std::invalid_argument("starvm::Engine needs at least one device");
  }
  // Memory nodes: host = 0; every accelerator gets its own node.
  MemoryNodeId next_node = kHostNode + 1;
  for (std::size_t i = 0; i < config_.devices.size(); ++i) {
    // DeviceState embeds atomics (immovable): build in place.
    detail::DeviceState& state = devices_.emplace_back();
    state.spec = config_.devices[i];
    state.id = static_cast<DeviceId>(i);
    state.node =
        state.spec.kind == DeviceKind::kAccelerator ? next_node++ : kHostNode;
  }
  if (static_cast<std::size_t>(next_node) > 64) {
    // DataHandle tracks replica validity in a 64-bit mask, one bit per
    // memory node (host + one per accelerator).
    throw std::invalid_argument(
        "starvm::Engine supports at most 63 accelerator memory nodes");
  }
  nodes_.resize(static_cast<std::size_t>(next_node));
  for (const auto& device : devices_) {
    if (device.node != kHostNode) {
      nodes_[static_cast<std::size_t>(device.node)].capacity =
          device.spec.memory_bytes;
    }
  }
  single_node_ = next_node == kHostNode + 1;
  // Node -> owning device spec, so the transfer model resolves a link in
  // O(1) instead of scanning every device per leg.
  node_spec_.assign(nodes_.size(), nullptr);
  for (const auto& device : devices_) {
    if (device.node != kHostNode) {
      node_spec_[static_cast<std::size_t>(device.node)] = &device.spec;
    }
  }
  build_placement_classes();

  // The oracle only steers the simulation loop, which one thread runs;
  // threaded workers cannot be serialized through it.
  if (!hybrid()) oracle_ = config_.oracle;
  scheduler_ = detail::make_scheduler(
      config_.scheduler, &devices_, &classes_,
      [this](const detail::TaskNode& task, double* out) {
        estimated_cost_class_row(task, out);
      },
      oracle_);
  if (config_.wrap_scheduler) {
    scheduler_ = config_.wrap_scheduler(std::move(scheduler_));
  }
  decision_counter_ = &obs::counter("starvm.decisions." +
                                    std::string(to_string(config_.scheduler)));

  // Flight recorder: one ring per device plus one for the fault path
  // (whose producers fault_mutex_ serializes). Built before the workers so
  // the very first task is already recorded.
  if (config_.flight_records_per_device > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        devices_.size() + 1, config_.flight_records_per_device);
  }
  flight_dump_prefix_ = config_.flight_dump_prefix;
  if (flight_dump_prefix_.empty()) {
    const char* env = std::getenv("PDL_FLIGHT_DUMP");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      flight_dump_prefix_ = env;
    }
  }

  // Persisted perf store: preload previously learned rates so HEFT
  // estimates are warm from the very first task. A missing file is a clean
  // cold start; a wrong-version, corrupt or descriptor-mismatched store is
  // rejected (counted in perf_store_rejected) and the run proceeds from
  // declared rates. Done before the workers spawn: preload races nothing.
  if (!config_.perf_store_path.empty()) {
    descriptor_hash_ = perf_store::descriptor_hash(config_.devices);
    perf_store::LoadResult loaded = perf_store::load(config_.perf_store_path);
    if (loaded.status == perf_store::LoadStatus::kLoaded) {
      if (loaded.store.descriptor_hash == descriptor_hash_) {
        perf_store::preload(loaded.store, perf_model_);
        perf_store_entries_ = loaded.store.entries.size();
      } else {
        ++perf_store_rejected_;  // stale store from a different platform
      }
    } else if (loaded.status != perf_store::LoadStatus::kMissing) {
      ++perf_store_rejected_;
    }
  }

  if (hybrid()) {
    // Until a kernel has been measured, treat kernels as long: wake a
    // worker for any work left behind.
    kernel_ema_seconds_ = kLongKernelSeconds;
    // Any worker serves any lane, so more workers than host cores would
    // only contend for them.
    const std::size_t workers = std::min<std::size_t>(
        devices_.size(), std::max(1u, std::thread::hardware_concurrency()));
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        run_turns(lock);
      });
    }
  }
}

void Engine::build_placement_classes() {
  class_of_.resize(devices_.size());
  // Full-spec key (not just the cost-model inputs): merging only devices
  // that also share the fault-tolerance knobs keeps retry budgets and
  // per-device overrides trivially uniform within a class.
  using Flavor =
      std::tuple<int, double, double, double, std::uint64_t, int, double>;
  std::map<Flavor, std::size_t> flavors;
  for (const auto& device : devices_) {
    std::size_t cls = classes_.size();
    // Accelerators own private memory nodes — their replica state (and so
    // their transfer estimate) differs per device — so they stay singleton
    // classes even when spec-identical. Host-node devices group by flavor.
    if (config_.placement_classes && device.node == kHostNode) {
      const Flavor key{static_cast<int>(device.spec.kind),
                       device.spec.sustained_gflops,
                       device.spec.link_bandwidth_gbs,
                       device.spec.link_latency_us,
                       static_cast<std::uint64_t>(device.spec.memory_bytes),
                       device.spec.max_retries,
                       device.spec.mtbf_hours};
      cls = flavors.emplace(key, cls).first->second;
    }
    if (cls == classes_.size()) {
      // Devices arrive in id order, so classes are created in order of
      // their lowest member — preserving exhaustive HEFT's lowest-index
      // tie-breaking when classes are evaluated front to back.
      detail::PlacementClass& fresh = classes_.emplace_back();
      fresh.kind = device.spec.kind;
      fresh.node = device.node;
      fresh.representative = device.id;
    }
    detail::PlacementClass& pc = classes_[cls];
    pc.members.push_back(device.id);
    pc.live_members.store(static_cast<int>(pc.members.size()),
                          std::memory_order_relaxed);
    class_of_[static_cast<std::size_t>(device.id)] = cls;
  }
  class_gflops_.reserve(classes_.size());
  for (const auto& pc : classes_) {
    class_gflops_.push_back(
        devices_[static_cast<std::size_t>(pc.representative)]
            .spec.sustained_gflops);
  }
}

const DeviceSpec* Engine::node_link_spec(MemoryNodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= node_spec_.size()) {
    return nullptr;
  }
  return node_spec_[static_cast<std::size_t>(node)];
}

Engine::~Engine() {
  (void)wait_all();  // task errors were the caller's to collect
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // Pollers see the epoch move, sleepers the notification.
  work_epoch_.fetch_add(1, std::memory_order_relaxed);
  wake_.notify_all();
  for (auto& w : workers_) w.join();
  // Workers are gone: the model is quiescent, snapshot and persist it. Only
  // a hybrid run measures anything; in the simulation modes every
  // "observation" is the model's own estimate, and writing those back
  // would overwrite the rates real runs learned.
  if (hybrid() && !config_.perf_store_path.empty()) {
    (void)perf_store::save(
        perf_store::from_model(perf_model_, descriptor_hash_),
        config_.perf_store_path);
  }
}

// --- Data ----------------------------------------------------------------------

DataHandle* Engine::register_matrix(double* ptr, std::size_t rows, std::size_t cols,
                                    std::size_t ld, std::string name) {
  if (ld == 0) ld = cols;
  std::lock_guard<std::mutex> lock(submit_mutex_);
  DataHandle& handle = handles_.emplace_back();
  handle.ptr_ = ptr;
  handle.rows_ = rows;
  handle.cols_ = cols;
  handle.ld_ = ld;
  handle.bytes_ = rows * cols * sizeof(double);
  // Fresh registrations are valid on the host only.
  handle.valid_ = DataHandle::node_bit(kHostNode);
  if (name.empty()) {
    // "m<index>" fits SSO; std::to_chars keeps the hot registration path
    // free of std::to_string's temporary.
    char buf[2 + std::numeric_limits<std::size_t>::digits10 + 1] = {'m'};
    const auto end = std::to_chars(buf + 1, buf + sizeof(buf),
                                   handles_.size() - 1);
    handle.name_.assign(buf, end.ptr);
  } else {
    handle.name_ = std::move(name);
  }
  return &handle;
}

DataHandle* Engine::register_vector(double* ptr, std::size_t n, std::string name) {
  return register_matrix(ptr, 1, n, n, std::move(name));
}

BlockSpan block_span(std::size_t extent, int nblocks, int b) {
  const std::size_t per = (extent + static_cast<std::size_t>(nblocks) - 1) /
                          static_cast<std::size_t>(nblocks);
  const std::size_t begin = std::min(static_cast<std::size_t>(b) * per, extent);
  return {begin, std::min(per, extent - begin)};
}

int filled_blocks(std::size_t extent, int nblocks) {
  // Every filled span but the last is full: the size of span 0.
  const std::size_t per = block_span(extent, nblocks, 0).count;
  return per == 0 ? 0 : static_cast<int>((extent + per - 1) / per);
}

DataHandle* Engine::add_block_locked(DataHandle* parent, std::size_t offset,
                                     std::size_t rows, std::size_t cols,
                                     std::size_t ld, std::string name) {
  // Empty blocks point at one-past-the-end of the parent (valid to form,
  // never dereferenced — bytes() is 0).
  DataHandle& block = handles_.emplace_back();
  block.ptr_ = static_cast<double*>(parent->ptr_) + offset;
  block.rows_ = rows;
  block.cols_ = cols;
  block.ld_ = ld;
  block.bytes_ = rows * cols * sizeof(double);
  block.name_ = std::move(name);
  block.parent_ = parent;
  // Blocks inherit only the host replica: device-side accounting is per
  // handle, and partitioning is a host-side operation by contract.
  block.valid_ = parent->valid_ & DataHandle::node_bit(kHostNode);
  parent->children_.push_back(&block);
  return &block;
}

std::vector<DataHandle*> Engine::partition_rows(DataHandle* handle, int nblocks) {
  assert(handle != nullptr && nblocks >= 1);
  assert(!handle->partitioned() && "handle is already partitioned");
  std::vector<DataHandle*> blocks;
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::lock_guard<std::mutex> mem(memory_mutex_);
  for (int b = 0; b < nblocks; ++b) {
    // Always produce exactly nblocks handles: when nblocks > rows the tail
    // blocks are empty (rows() == 0, bytes() == 0) so callers indexing
    // blocks[i] stay in bounds.
    const BlockSpan rows = block_span(handle->rows(), nblocks, b);
    blocks.push_back(add_block_locked(handle, rows.begin * handle->ld_,
                                      rows.count, handle->cols_, handle->ld_,
                                      handle->name_ + "[" + std::to_string(b) + "]"));
  }
  return blocks;
}

std::vector<DataHandle*> Engine::partition_vector(DataHandle* handle, int nblocks) {
  assert(handle != nullptr && handle->rows() == 1);
  assert(!handle->partitioned() && "handle is already partitioned");
  std::vector<DataHandle*> blocks;
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::lock_guard<std::mutex> mem(memory_mutex_);
  for (int b = 0; b < nblocks; ++b) {
    // Exactly nblocks handles; tail blocks are empty when nblocks > n. A
    // surplus block is fully empty (0 x 0), not a degenerate 1 x 0 row:
    // callers test rows() == 0 to detect padding.
    const BlockSpan span = block_span(handle->cols(), nblocks, b);
    blocks.push_back(add_block_locked(handle, span.begin, span.count > 0 ? 1 : 0,
                                      span.count, span.count,
                                      handle->name_ + "[" + std::to_string(b) + "]"));
  }
  return blocks;
}

std::vector<DataHandle*> Engine::partition_tiles(DataHandle* handle, int row_blocks,
                                                 int col_blocks) {
  assert(handle != nullptr && row_blocks >= 1 && col_blocks >= 1);
  assert(!handle->partitioned() && "handle is already partitioned");
  std::vector<DataHandle*> tiles;
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::lock_guard<std::mutex> mem(memory_mutex_);
  for (int r = 0; r < row_blocks; ++r) {
    // Exactly row_blocks x col_blocks handles, row-major, so tile (r, c) is
    // always at index r * col_blocks + c; edge tiles are empty when the
    // grid is finer than the matrix.
    const BlockSpan rows = block_span(handle->rows(), row_blocks, r);
    for (int c = 0; c < col_blocks; ++c) {
      const BlockSpan cols = block_span(handle->cols(), col_blocks, c);
      // Tiles are strided views into the parent: they keep its row stride.
      tiles.push_back(add_block_locked(
          handle, rows.begin * handle->ld_ + cols.begin, rows.count, cols.count,
          handle->ld_,
          handle->name_ + "(" + std::to_string(r) + "," + std::to_string(c) + ")"));
    }
  }
  return tiles;
}

void Engine::unpartition(DataHandle* handle) {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::lock_guard<std::mutex> mem(memory_mutex_);
  // Gather: the parent becomes host-resident (writes by simulated
  // accelerators updated host memory directly); every device replica —
  // of the parent and of the retired blocks — is dropped.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (static_cast<MemoryNodeId>(n) != kHostNode) {
      drop_replica_locked(handle, static_cast<MemoryNodeId>(n));
      for (DataHandle* block : handle->children_) {
        drop_replica_locked(block, static_cast<MemoryNodeId>(n));
      }
    }
  }
  handle->valid_ = DataHandle::node_bit(kHostNode);
  for (DataHandle* block : handle->children_) {
    block->parent_ = nullptr;  // detach; block handles must not be reused
  }
  handle->children_.clear();
}

void Engine::host_write(DataHandle* handle) {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::lock_guard<std::mutex> mem(memory_mutex_);
  const auto mark = [this](DataHandle* h) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (static_cast<MemoryNodeId>(n) != kHostNode) {
        drop_replica_locked(h, static_cast<MemoryNodeId>(n));
      }
    }
    h->valid_ |= DataHandle::node_bit(kHostNode);
  };
  mark(handle);
  for (DataHandle* block : handle->children_) mark(block);
}

// --- Submission --------------------------------------------------------------

void Engine::validate_desc(const TaskDesc& desc) const {
  if (desc.codelet == nullptr || desc.codelet->impls.empty()) {
    throw std::invalid_argument("task without codelet implementation");
  }
  bool any_capable = false;
  for (const auto& pc : classes_) {
    if (desc.codelet->supports(pc.kind)) any_capable = true;
  }
  if (!any_capable) {
    throw std::invalid_argument("no device can execute codelet '" +
                                desc.codelet->name + "'");
  }
  for (const auto& view : desc.buffers) {
    if (view.handle == nullptr) {
      throw std::invalid_argument("task references a null data handle");
    }
    if (view.handle->partitioned()) {
      throw std::invalid_argument("task references partitioned handle '" +
                                  view.handle->name() + "'; target its blocks");
    }
  }
}

detail::TaskNode& Engine::wire_task_locked(TaskDesc&& desc, double flops) {
  // Counted here — the one place both submit() and submit_batch() funnel
  // through — so a batch of N adds exactly N, never 1.
  ++tasks_submitted_;
  if (obs::metrics_enabled()) tasks_submitted_counter().inc();
  detail::TaskNode& task = tasks_.emplace_back();
  task.id = next_task_id_++;
  task.codelet = desc.codelet;
  task.buffers = std::move(desc.buffers);
  task.label = desc.label.empty() ? desc.codelet->name : std::move(desc.label);
  task.priority = desc.priority;
  task.flops = flops;
  auto [row_it, inserted] = model_rows_.try_emplace(task.codelet);
  if (inserted) {
    ModelRows& rows = row_it->second;
    rows.main = &perf_model_.row(task.codelet->name);
    for (std::size_t k = 0; k < task.codelet->calibration_alias.size(); ++k) {
      const std::string& alias = task.codelet->calibration_alias[k];
      if (!alias.empty()) rows.alias[k] = &perf_model_.row(alias);
    }
    // Seed fresh cells from the declared rates: warm (store-preloaded) and
    // cold starts then share one estimate path, and the first observation
    // blends with the declared prior instead of slamming the estimate.
    // Seeding with the device's own rate keeps pre-history estimates
    // byte-identical to the analytic fallback. seed_in no-ops on cells
    // that already have history, so preloaded entries are untouched.
    const int seedable = static_cast<int>(
        std::min<std::size_t>(devices_.size(),
                              static_cast<std::size_t>(PerfModel::kMaxDevices)));
    for (int d = 0; d < seedable; ++d) {
      const double rate =
          devices_[static_cast<std::size_t>(d)].spec.sustained_gflops;
      if (PerfModel::seed_in(*rows.main, d, rate)) ++perf_model_seeds_;
      for (PerfModel::Row* alias : rows.alias) {
        if (alias != nullptr) (void)PerfModel::seed_in(*alias, d, rate);
      }
    }
  }
  task.model_row = row_it->second.main;
  task.alias_rows = row_it->second.alias;
  if (first_submit_wall_.load(std::memory_order_relaxed) < 0.0) {
    first_submit_wall_.store(now_seconds(), std::memory_order_relaxed);
  }
  // Count the task before any edge exists: a predecessor that fails while
  // we are still wiring may cascade-cancel this task (decrementing
  // pending_), so the increment must already be visible.
  pending_.fetch_add(1);

  // Sequential consistency per handle (dependency.hpp), then the explicit
  // predecessors.
  bool poisoned = false;  // a dependency already failed or was cancelled
  const auto add_dep = [&](detail::TaskNode* dep) {
    if (dep == &task) return;
    std::lock_guard<std::mutex> edge(dep->edge_mutex);
    const detail::TaskState s = dep->state.load();
    if (s == detail::TaskState::kFailed) {
      poisoned = true;  // still wired as last writer below: poison spreads
      return;
    }
    if (dep->released) {
      // The dependency already finished; inherit its finish time (the
      // edge_mutex hand-off makes finish_vtime safe to read here).
      detail::vtime_raise(task.ready_vtime, dep->finish_vtime);
      return;
    }
    dep->successors.push_back(&task);
    task.deps_remaining.fetch_add(1, std::memory_order_relaxed);
  };

  for (const auto& view : task.buffers) {
    order_access(view.handle->tail_, &task, view.mode,
                 [&](detail::TaskNode* dep, DepKind) { add_dep(dep); });
  }

  // Explicit predecessors (tag dependencies). Ids are dense from 1.
  for (const TaskId dep_id : desc.depends_on) {
    if (dep_id == 0 || dep_id >= next_task_id_) continue;  // unknown: satisfied
    add_dep(&tasks_[static_cast<std::size_t>(dep_id - 1)]);
  }

  // Tasks that can never run are refused at submit time — without throwing,
  // so a long submission loop over a degraded platform drains cleanly and
  // wait_all() reports the aggregate.
  if (poisoned) {
    detail::TaskState expected = detail::TaskState::kWaiting;
    if (task.state.compare_exchange_strong(expected,
                                           detail::TaskState::kFailed)) {
      task.error = "cancelled: a dependency failed before submission";
      pending_.fetch_sub(1);
      {
        std::lock_guard<std::mutex> fault(fault_mutex_);
        ++cancelled_tasks_;
        record_fault_event_locked(FaultEvent::Kind::kCancelled,
                                  task.ready_vtime.load(), task.id, -1, 0,
                                  task.error);
      }
      notify_drain();
    }
    return task;
  }
  if (!has_live_capable_device(*task.codelet)) {
    std::lock_guard<std::mutex> fault(fault_mutex_);
    fail_task_locked(task, "no live device can execute codelet '" +
                               task.codelet->name + "'");
  }
  return task;
}

void Engine::publish_submission(detail::TaskNode* task) {
  // Drop the submission reference; dependencies released while we were
  // wiring have already decremented, so whoever takes it to zero dispatches.
  if (task->deps_remaining.fetch_sub(1) != 1) return;
  detail::TaskState expected = detail::TaskState::kWaiting;
  if (!task->state.compare_exchange_strong(expected,
                                           detail::TaskState::kReady)) {
    return;  // cancelled or failed during wiring
  }
  publish_ready({&task, 1});
}

void Engine::publish_ready(std::span<detail::TaskNode* const> ready) {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // A turn holds mutex_: leave the tasks for its next pop rather than
    // wait for it.
    for (std::size_t i = 1; i < ready.size(); ++i) {
      ready[i]->next_ready = ready[i - 1];
    }
    hand_over(ready.front(), ready.back());
    return;
  }
  for (detail::TaskNode* task : ready) dispatch_ready(task);
  const Listener listener = leave_work_locked();
  lock.unlock();
  notify(listener);
}

void Engine::hand_over(detail::TaskNode* oldest, detail::TaskNode* newest) {
  detail::TaskNode* head = inbox_.load(std::memory_order_relaxed);
  do {
    oldest->next_ready = head;
  } while (!inbox_.compare_exchange_weak(head, newest));
  // Every awake worker drains the inbox at its next turn, and a worker
  // re-checks it after registering as a sleeper. So wake a sleeper only
  // when every worker sleeps, or when kernels are long and the work
  // should not wait for a running one. No wake-up in the simulation modes.
  if (pollers_.load() > 0) return;
  const int sleeping = sleepers_.load();
  if (sleeping == 0 ||
      (sleeping < static_cast<int>(workers_.size()) &&
       short_kernels_.load(std::memory_order_relaxed))) {
    return;
  }
  // Taking mutex_ orders the notify after a sleeper's wait: it holds
  // mutex_ from its inbox re-check until it waits.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sleepers_ <= wakes_pending_) return;  // one is being woken already
    ++wakes_pending_;
  }
  wake_.notify_one();
}

void Engine::drain_inbox_locked() {
  detail::TaskNode* newest = inbox_.exchange(nullptr);
  detail::TaskNode* oldest = nullptr;  // reverse into submission order
  while (newest != nullptr) {
    detail::TaskNode* next = newest->next_ready;
    newest->next_ready = oldest;
    oldest = newest;
    newest = next;
  }
  while (oldest != nullptr) {
    detail::TaskNode* next = oldest->next_ready;
    dispatch_ready(oldest);
    oldest = next;
  }
}

void Engine::dispatch_ready(detail::TaskNode* task) {
  // Wiring checked for a live device without mutex_; a threaded worker
  // may have blacklisted the last one since.
  if (blacklists_ > 0 && !has_live_capable_device(*task->codelet)) {
    std::lock_guard<std::mutex> fault(fault_mutex_);
    fail_task_locked(*task, "no live device can execute codelet '" +
                                task->codelet->name + "'");
    return;
  }
  scheduler_->push(task);
  if (obs::metrics_enabled()) {
    ready_queue_gauge().set(static_cast<std::int64_t>(scheduler_->size()));
  }
}

TaskId Engine::submit(TaskDesc desc) {
  validate_desc(desc);
  double flops = 0.0;
  if (desc.codelet->flops) flops = desc.codelet->flops(desc.buffers);

  detail::TaskNode* task = nullptr;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    task = &wire_task_locked(std::move(desc), flops);
  }
  publish_submission(task);
  return task->id;
}

std::vector<TaskId> Engine::submit_batch(std::vector<TaskDesc> descs) {
  if (descs.empty()) return {};
  if (obs::metrics_enabled()) submit_batch_histogram().record(descs.size());
  for (const TaskDesc& desc : descs) validate_desc(desc);
  std::vector<double> flops(descs.size(), 0.0);
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (descs[i].codelet->flops) {
      flops[i] = descs[i].codelet->flops(descs[i].buffers);
    }
  }

  std::vector<detail::TaskNode*> nodes;
  nodes.reserve(descs.size());
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    tasks_.reserve_more(descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i) {
      nodes.push_back(&wire_task_locked(std::move(descs[i]), flops[i]));
    }
  }

  std::vector<TaskId> ids;
  ids.reserve(nodes.size());
  for (const detail::TaskNode* task : nodes) ids.push_back(task->id);

  // Publish the whole batch, then push every now-ready task under one
  // acquisition of mutex_.
  std::vector<detail::TaskNode*> ready;
  for (detail::TaskNode* task : nodes) {
    if (task->deps_remaining.fetch_sub(1) != 1) continue;
    detail::TaskState expected = detail::TaskState::kWaiting;
    if (task->state.compare_exchange_strong(expected,
                                            detail::TaskState::kReady)) {
      ready.push_back(task);
    }
  }
  if (!ready.empty()) publish_ready(ready);
  return ids;
}

pdl::util::Status Engine::wait_all() {
  if (!hybrid()) {
    // The simulation loop runs on the caller's thread and performs every
    // completion itself.
    std::unique_lock<std::mutex> lock(mutex_);
    run_turns(lock);
  } else {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return pending_.load() == 0; });
  }
  drain_wall_.store(now_seconds());
  pdl::util::Status status;
  {
    std::lock_guard<std::mutex> fault(fault_mutex_);
    status = drain_status_locked();
  }
  // Post-mortem on an aggregated failure, after fault_mutex_ is released
  // (the dump reads task labels under submit_mutex_ and writes files).
  if (!status.ok()) maybe_auto_dump("wait_all_failure");
  return status;
}

bool Engine::wait(TaskId id) {
  detail::TaskNode* task = nullptr;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    // Task ids are dense and start at 1; tasks_ preserves submission order.
    if (id == 0 || id >= next_task_id_) return false;
    task = &tasks_[static_cast<std::size_t>(id - 1)];
  }
  if (!hybrid()) {
    std::unique_lock<std::mutex> lock(mutex_);
    run_turns(lock);
    return task->state.load() == detail::TaskState::kDone;
  }
  // Register as a waiter first (sequentially consistent), so a finalizer
  // that misses us in waiters_ has necessarily published the state change
  // we are about to re-check under drain_mutex_.
  waiters_.fetch_add(1);
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [&] {
      const detail::TaskState s = task->state.load();
      return s == detail::TaskState::kDone ||
             s == detail::TaskState::kFailed || pending_.load() == 0;
    });
  }
  waiters_.fetch_sub(1);
  return task->state.load() == detail::TaskState::kDone;
}

pdl::util::Status Engine::drain_status_locked() const {
  if (failed_tasks_ == 0 && cancelled_tasks_ == 0) return {};
  std::string message = std::to_string(failed_tasks_) + " task(s) failed";
  if (cancelled_tasks_ > 0) {
    message += ", " + std::to_string(cancelled_tasks_) + " cancelled";
  }
  constexpr std::size_t kMaxQuoted = 3;
  for (std::size_t i = 0; i < task_errors_.size() && i < kMaxQuoted; ++i) {
    message += (i == 0 ? ": " : "; ") + task_errors_[i];
  }
  if (task_errors_.size() > kMaxQuoted) {
    message += "; ... (" + std::to_string(task_errors_.size() - kMaxQuoted) +
               " more, see EngineStats::errors)";
  }
  return pdl::util::Status::failure(std::move(message));
}

void Engine::notify_drain() {
  // Empty critical section: orders this notification against a waiter that
  // has passed its predicate re-check but not yet released drain_mutex_ in
  // cv.wait — without it the wakeup could be lost.
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
  }
  drain_cv_.notify_all();
}

Engine::Listener Engine::leave_work_locked() {
  if (pollers_ > 0) return Listener::kPoller;
  const bool needed =
      running_ == 0 || !short_kernels_.load(std::memory_order_relaxed);
  if (!needed || sleepers_ <= wakes_pending_) return Listener::kNone;
  ++wakes_pending_;
  return Listener::kSleeper;
}

void Engine::notify(Listener listener) {
  if (listener == Listener::kPoller) {
    work_epoch_.fetch_add(1, std::memory_order_relaxed);
  } else if (listener == Listener::kSleeper) {
    wake_.notify_one();
  }
}

bool Engine::poll_for_work(std::unique_lock<std::mutex>& lock) {
  ++pollers_;
  const std::uint32_t seen = work_epoch_.load(std::memory_order_relaxed);
  lock.unlock();
  bool signalled = false;
  for (int i = 0; i < kPollsBeforeSleep && !signalled; ++i) {
    std::this_thread::yield();
    signalled = work_epoch_.load(std::memory_order_relaxed) != seen ||
                inbox_.load(std::memory_order_relaxed) != nullptr;
  }
  lock.lock();
  --pollers_;
  return signalled;
}

void Engine::note_kernel_time_locked(double seconds) {
  kernel_ema_seconds_ += (seconds - kernel_ema_seconds_) * kKernelAverageWeight;
  if (kernel_ema_seconds_ < kShortKernelSeconds) {
    short_kernels_.store(true, std::memory_order_relaxed);
  } else if (kernel_ema_seconds_ > kLongKernelSeconds) {
    short_kernels_.store(false, std::memory_order_relaxed);
  }
}

void Engine::run_turns(std::unique_lock<std::mutex>& lock) {
  // Discrete-event loop: the free lane that becomes available earliest on
  // the virtual clock pops next — the virtual-time analogue of "the first
  // idle worker pops". The scheduler keeps an avail-ordered index
  // incrementally (pop_earliest / on_device_time_advanced), so one turn
  // costs O(log devices) instead of re-sorting every device.
  bool idle = false;  // polled since the last task and saw no work
  bool ran = false;   // the last turn ran a task
  for (;;) {
    if (inbox_.load(std::memory_order_relaxed) != nullptr) drain_inbox_locked();
    // After a short kernel a threaded worker stands aside while another
    // runs one: it would mostly wait for mutex_, and the other comes back
    // to pop.
    const bool surplus = ran && running_ > 0 &&
                         short_kernels_.load(std::memory_order_relaxed);
    DeviceId chosen = -1;
    detail::TaskNode* task = nullptr;
    if (pending_.load() > 0 && !surplus) {
      task = oracle_ != nullptr ? pop_via_oracle(&chosen)
                                : scheduler_->pop_earliest(&chosen);
    }
    if (task == nullptr) {
      // The simulation loop performs every completion itself: nothing
      // runnable means it drained, or a dependency cycle or a foreign bug
      // left tasks waiting; return rather than spin. An idle worker polls
      // once for a push, then sleeps until a push or a freed lane leaves
      // work for it.
      if (!hybrid() || stopping_) return;
      if (idle || surplus) {
        sleepers_.fetch_add(1);
        // A surplus worker leaves the inbox to the running one.
        if (surplus || inbox_.load() == nullptr) wake_.wait(lock);
        sleepers_.fetch_sub(1);
        if (wakes_pending_ > 0) --wakes_pending_;
        idle = false;
      } else {
        idle = !poll_for_work(lock);
      }
      ran = false;
      continue;
    }
    idle = false;
    ran = true;
    detail::DeviceState& device = devices_[static_cast<std::size_t>(chosen)];
    const FaultPlan::Injection injected = begin_attempt(*task, device);
    bool failed = injected.fail;
    std::string reason = injected.reason;
    // kPureSim models every kernel without running it.
    const Implementation* impl =
        failed || config_.mode == ExecutionMode::kPureSim
            ? nullptr
            : task->codelet->find_impl(device.spec.kind);
    const bool kernel = impl != nullptr && impl->fn;
    double exec = 0.0;
    const char* watchdog = "watchdog: modeled execution exceeded limit";
    if (hybrid()) {
      // The lane stays busy while its kernel runs without mutex_. Work this
      // pop left behind goes to a poller or a sleeper, which signals the
      // next in turn.
      device.busy = true;
      ++running_;
      const Listener listener =
          scheduler_->empty() ? Listener::kNone : leave_work_locked();
      lock.unlock();
      notify(listener);
      double measured = 0.0;  // a body-less codelet costs no measurable time
      if (kernel) {
        pdl::util::Stopwatch sw;
        failed = !run_attempt(*impl, *task, device, reason);
        measured = sw.elapsed_seconds();
      }
      // A CPU lane is charged its measured time. A simulated accelerator's
      // host run only produced the data: its lane is charged what the
      // declared rate takes.
      exec = device.spec.kind == DeviceKind::kAccelerator && task->flops > 0.0
                 ? task->flops / (device.spec.sustained_gflops * 1e9)
                 : measured;
      watchdog = "watchdog: execution exceeded limit";
      lock.lock();
      device.busy = false;
      --running_;
      note_kernel_time_locked(measured);
    } else {
      // The clock charges the model in both simulation modes; kDeterministic
      // also runs the kernel, single-threaded in virtual-clock order, so the
      // run replays identically while the numerics are genuine.
      exec = exec_estimate(*task, device);
      if (kernel) failed = !run_attempt(*impl, *task, device, reason);
    }
    end_attempt(*task, device, exec + injected.delay_seconds, failed, reason,
                watchdog);
    // Only the executing lane's clock moved this turn; re-key just it.
    scheduler_->on_device_time_advanced(device.id);
  }
}

FaultPlan::Injection Engine::begin_attempt(detail::TaskNode& task,
                                           detail::DeviceState& device) {
  task.state.store(detail::TaskState::kRunning);
  task.ran_on = device.id;
  ++task.attempts;
  // The ready-queue depth at pop, read only when the gauge or the flight
  // ring records it.
  const bool gauge = obs::metrics_enabled();
  const std::size_t queued = gauge || flight_ ? scheduler_->size() : 0;
  if (gauge) ready_queue_gauge().set(static_cast<std::int64_t>(queued));
  // Before acquire_buffers: candidate costs must see decision-time replica
  // placement.
  record_decision(task, device);
  task.start_vtime =
      std::max(device.avail_vtime.load(), task.ready_vtime.load()) +
      config_.task_overhead_us * 1e-6;
  task.transfer_seconds = acquire_buffers(task, device.node);
  if (flight_) {
    obs::FlightRing& ring = flight_->ring(static_cast<std::size_t>(device.id));
    ring.record(obs::FlightKind::kQueueDepth, 0, 0, device.id, task.start_vtime,
                0.0, static_cast<double>(queued));
    ring.record(obs::FlightKind::kTaskStart,
                static_cast<std::uint32_t>(task.attempts), task.id, device.id,
                task.start_vtime, 0.0, 0.0);
  }
  FaultPlan::Injection injected;
  if (config_.fault_plan) {
    injected = config_.fault_plan->decide(task.id, task.attempts, device.id,
                                          device.tasks_run);
  }
  if (injected.fail && oracle_ != nullptr) {
    // Forced transition: the plan is a pure function of (task, attempt,
    // device, history), so the firing carries no choice of its own — the
    // explorer varies it indirectly by varying the schedule around it.
    oracle_->note(ChoiceKind::kFault, task.id, device.id);
  }
  // An injected failure suppresses execution entirely: kernels run in
  // place on host memory, so a doomed attempt would corrupt the inputs of
  // its own retry. Both callers skip the kernel when injected.fail.
  return injected;
}

void Engine::end_attempt(detail::TaskNode& task, detail::DeviceState& device,
                         double exec, bool failed, const std::string& reason,
                         const char* watchdog_reason) {
  if (failed) {
    handle_task_failure(task, device, exec, reason, /*is_timeout=*/false);
    return;
  }
  const double limit = watchdog_limit(task, device);
  if (limit > 0.0 && exec > limit) {
    handle_task_failure(task, device, exec, watchdog_reason,
                        /*is_timeout=*/true);
    return;
  }
  finalize_task(task, device, exec);
}

detail::TaskNode* Engine::pop_via_oracle(DeviceId* chosen) {
  // Enumerate every (device, task) pair a pop could yield right now, in the
  // canonical (avail_vtime, id) order pop_earliest scans — alternative 0 is
  // exactly the fixed tie-break, so a CanonicalOracle replays the default
  // schedule bit-for-bit. O(devices log devices) per turn; the oracle path
  // only runs under a model checker on model-checking-sized platforms.
  std::vector<std::pair<double, DeviceId>> order;
  order.reserve(devices_.size());
  for (const auto& device : devices_) {
    order.emplace_back(device.avail_vtime.load(), device.id);
  }
  std::sort(order.begin(), order.end());
  ChoicePoint cp;
  cp.kind = ChoiceKind::kSchedule;
  for (const auto& [avail, d] : order) {
    if (detail::TaskNode* t = scheduler_->peek(d)) {
      cp.alts.push_back({t->id, d});
    }
  }
  if (cp.alts.empty()) return nullptr;
  std::size_t pick = 0;
  if (cp.alts.size() > 1) {
    pick = static_cast<std::size_t>(oracle_->choose(cp));
  } else {
    oracle_->note(ChoiceKind::kSchedule, cp.alts[0].task, cp.alts[0].device);
  }
  *chosen = cp.alts[pick].device;
  // Single-threaded under mutex_: nothing mutated a queue since the peek,
  // so pop returns the peeked task.
  return scheduler_->pop(*chosen);
}

void Engine::finalize_task(detail::TaskNode& task, detail::DeviceState& device,
                           double exec) {
  const double transfer = task.transfer_seconds;
  task.exec_seconds = exec;
  task.finish_vtime = task.start_vtime + transfer + exec;
  detail::vtime_raise(device.avail_vtime, task.finish_vtime);
  device.busy_seconds += exec;
  device.transfer_seconds += transfer;
  ++device.tasks_run;
  device.consecutive_failures = 0;  // blacklisting counts *consecutive* only
  PerfModel::observe_in(*task.model_row, device.id, exec, task.flops);
  // Variant alias (Codelet::calibration_alias): record the same sample
  // under the selected variant's name so the persisted store learns
  // per-variant rates. Every observation is made under mutex_, so each
  // cell keeps one writer at a time.
  if (PerfModel::Row* alias =
          task.alias_rows[static_cast<std::size_t>(device.spec.kind)]) {
    PerfModel::observe_in(*alias, device.id, exec, task.flops);
  }
  if (task.attempts > 1) {
    // Close the attempt chain: this task failed at least once before
    // succeeding. Cold path only — first-attempt successes never take
    // fault_mutex_ here.
    std::lock_guard<std::mutex> fault(fault_mutex_);
    record_attempt_locked(task.id, task.attempts, device.id,
                          TaskAttempt::Outcome::kCompleted, task.finish_vtime,
                          {});
  }
  if (flight_) {
    // Written under mutex_ only: one producer at a time.
    obs::FlightRing& ring = flight_->ring(static_cast<std::size_t>(device.id));
    ring.record(obs::FlightKind::kTaskEnd,
                static_cast<std::uint32_t>(task.attempts), task.id, device.id,
                task.start_vtime, task.finish_vtime, exec, transfer);
    if (transfer > 0.0) {
      ring.record(obs::FlightKind::kTransfer, 0, task.id, device.id,
                  task.start_vtime, task.start_vtime + transfer, transfer);
    }
  }
  if (obs::metrics_enabled()) {
    tasks_completed_counter().inc();
    task_exec_us_histogram().record(
        exec > 0.0 ? static_cast<std::uint64_t>(exec * 1e6) : 0);
  }

  // Release the dependency edges: late subscribers (add_dep) that take
  // edge_mutex after this see released == true and read finish_vtime.
  std::vector<detail::TaskNode*> successors;
  {
    std::lock_guard<std::mutex> edge(task.edge_mutex);
    task.released = true;
    successors.swap(task.successors);
  }
  task.state.store(detail::TaskState::kDone);
  std::vector<detail::TaskNode*> became_ready;
  for (detail::TaskNode* succ : successors) {
    // A successor cancelled by another (failed) dependency never runs; the
    // load is only an optimization — the CAS below is the real gate.
    if (succ->state.load() == detail::TaskState::kFailed) continue;
    detail::vtime_raise(succ->ready_vtime, task.finish_vtime);
    if (succ->deps_remaining.fetch_sub(1) == 1) {
      detail::TaskState expected = detail::TaskState::kWaiting;
      if (succ->state.compare_exchange_strong(expected,
                                              detail::TaskState::kReady)) {
        if (oracle_ != nullptr) {
          became_ready.push_back(succ);  // dispatch order is a choice point
        } else {
          dispatch_ready(succ);
        }
      }
    }
  }
  // Dependency-release order: when one finish unblocks several successors,
  // the order they enter the scheduler decides queue positions (and HEFT
  // backlog estimates). Canonical order (alternative 0 repeatedly) is the
  // wiring order the loop above produced.
  while (!became_ready.empty()) {
    std::size_t pick = 0;
    if (became_ready.size() > 1) {
      ChoicePoint cp;
      cp.kind = ChoiceKind::kRelease;
      for (const detail::TaskNode* succ : became_ready) {
        cp.alts.push_back({succ->id, -1});
      }
      pick = static_cast<std::size_t>(oracle_->choose(cp));
    } else {
      oracle_->note(ChoiceKind::kRelease, became_ready[0]->id, -1);
    }
    detail::TaskNode* succ = became_ready[pick];
    became_ready.erase(became_ready.begin() +
                       static_cast<std::ptrdiff_t>(pick));
    dispatch_ready(succ);
  }
  const std::size_t left = pending_.fetch_sub(1) - 1;
  if (hybrid() && (left == 0 || waiters_.load() > 0)) {
    // Only signal when someone can be listening: wait_all sleeps on
    // pending_ == 0, wait(TaskId) registers itself in waiters_.
    notify_drain();
  }
}

// --- Fault tolerance ----------------------------------------------------------

int Engine::retry_budget(const detail::DeviceState& device) const {
  return device.spec.max_retries >= 0 ? device.spec.max_retries
                                      : config_.fault_tolerance.max_retries;
}

double Engine::watchdog_limit(const detail::TaskNode& task,
                              const detail::DeviceState& device) const {
  const double slack = config_.fault_tolerance.watchdog_slack;
  if (slack <= 0.0) return 0.0;
  return std::max(config_.fault_tolerance.watchdog_min_seconds,
                  exec_estimate(task, device) * slack);
}

bool Engine::has_live_capable_device(const Codelet& codelet) const {
  // O(classes), not O(devices): live_members counts the non-blacklisted
  // members of each class.
  for (const auto& pc : classes_) {
    if (pc.live_members.load(std::memory_order_relaxed) > 0 &&
        codelet.supports(pc.kind)) {
      return true;
    }
  }
  return false;
}

void Engine::record_fault_event_locked(FaultEvent::Kind kind, double vtime,
                                       TaskId task, DeviceId device,
                                       int attempt, std::string detail) {
  if (obs::has_event_sink()) {
    obs::Event event("starvm.fault");
    event.str("kind", to_string(kind))
        .num("vtime", vtime)
        .num("task_id", static_cast<std::uint64_t>(task))
        .num("device", static_cast<double>(device))
        .num("attempt", static_cast<std::uint64_t>(attempt < 0 ? 0 : attempt))
        .str("detail", detail);
    obs::emit_event(event);
  }
  fault_events_.push_back(
      FaultEvent{kind, vtime, task, device, attempt, std::move(detail)});
  if (flight_) {
    // The dedicated fault ring: every caller holds fault_mutex_, so the
    // SPSC contract holds via mutex hand-off.
    flight_->ring(devices_.size())
        .record(kind,
                static_cast<std::uint32_t>(attempt < 0 ? 0 : attempt),
                static_cast<std::uint64_t>(task), device, vtime, 0.0, 0.0);
  }
}

void Engine::record_attempt_locked(TaskId task, int attempt, DeviceId device,
                                   TaskAttempt::Outcome outcome, double vtime,
                                   std::string cause) {
  attempts_.push_back(
      TaskAttempt{task, attempt, device, outcome, vtime, std::move(cause)});
}

std::string Engine::attempt_chain_locked(TaskId task) const {
  // Digest for aggregated error messages: without it, a task that both
  // retried and was re-routed off a blacklisted device reports only the
  // LAST failure reason, losing which devices the earlier attempts died on.
  std::string chain;
  for (const TaskAttempt& a : attempts_) {
    if (a.task != task) continue;
    chain += chain.empty() ? " [" : "; ";
    switch (a.outcome) {
      case TaskAttempt::Outcome::kRerouted:
        chain += "rerouted off device " + std::to_string(a.device);
        break;
      case TaskAttempt::Outcome::kCancelled:
        chain += "cancelled";
        break;
      default:
        chain += "attempt " + std::to_string(a.attempt) + " on device " +
                 std::to_string(a.device) + ": " + to_string(a.outcome);
        if (!a.cause.empty() && a.outcome != TaskAttempt::Outcome::kCompleted) {
          chain += " (" + a.cause + ")";
        }
        break;
    }
  }
  if (!chain.empty()) chain += "]";
  return chain;
}

void Engine::fail_task_locked(detail::TaskNode& task, const std::string& reason) {
  // CAS into kFailed: a concurrent cascade-cancel (kWaiting -> kFailed) may
  // have beaten us here, in which case all the bookkeeping already happened.
  detail::TaskState cur = task.state.load();
  do {
    if (cur == detail::TaskState::kFailed) return;
  } while (!task.state.compare_exchange_weak(cur, detail::TaskState::kFailed));

  task.error = reason;
  ++failed_tasks_;
  task_errors_.push_back("task " + std::to_string(task.id) + " '" + task.label +
                         "': " + reason + attempt_chain_locked(task.id));
  record_fault_event_locked(FaultEvent::Kind::kTaskFailed,
                            task.ready_vtime.load(), task.id, task.ran_on,
                            task.attempts, reason);
  pending_.fetch_sub(1);

  // Cascade: everything transitively waiting on this task can never become
  // ready (its deps_remaining never reaches zero), so cancel it now instead
  // of hanging wait_all() forever. The snapshot happens after the kFailed
  // store above, so late subscribers poison themselves instead of adding an
  // edge the cascade would miss.
  std::vector<detail::TaskNode*> stack;
  {
    std::lock_guard<std::mutex> edge(task.edge_mutex);
    stack = task.successors;
  }
  while (!stack.empty()) {
    detail::TaskNode* succ = stack.back();
    stack.pop_back();
    detail::TaskState expected = detail::TaskState::kWaiting;
    if (!succ->state.compare_exchange_strong(expected,
                                             detail::TaskState::kFailed)) {
      continue;  // already running, done, or cancelled by another cascade
    }
    succ->error = "cancelled: dependency task " + std::to_string(task.id) +
                  " failed";
    ++cancelled_tasks_;
    record_fault_event_locked(FaultEvent::Kind::kCancelled,
                              task.ready_vtime.load(), succ->id, -1, 0,
                              succ->error);
    record_attempt_locked(succ->id, 0, -1, TaskAttempt::Outcome::kCancelled,
                          task.ready_vtime.load(), succ->error);
    pending_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> edge(succ->edge_mutex);
      stack.insert(stack.end(), succ->successors.begin(),
                   succ->successors.end());
    }
  }
  notify_drain();
}

void Engine::blacklist_device_locked(detail::DeviceState& device) {
  device.blacklisted.store(true);
  classes_[class_of_[static_cast<std::size_t>(device.id)]]
      .live_members.fetch_sub(1, std::memory_order_relaxed);
  ++blacklists_;
  if (obs::metrics_enabled()) device_blacklists_counter().inc();
  record_fault_event_locked(
      FaultEvent::Kind::kBlacklist, device.avail_vtime.load(), 0, device.id, 0,
      device.spec.name + " blacklisted after " +
          std::to_string(device.consecutive_failures) +
          " consecutive failures");

  // Graceful degradation: queued work re-enters the scheduler against the
  // shrunken candidate set; work nothing can run fails right away. Note the
  // direct scheduler_->push (not dispatch_ready): fault_mutex_ is held here
  // and dispatch_ready would try to re-take it on a failure. The caller
  // holds mutex_, as every scheduler call requires.
  const std::vector<detail::TaskNode*> drained =
      scheduler_->drain_device(device.id);
  for (detail::TaskNode* task : drained) {
    if (has_live_capable_device(*task->codelet)) {
      ++reroutes_;
      record_fault_event_locked(FaultEvent::Kind::kReroute,
                                device.avail_vtime.load(), task->id, device.id,
                                task->attempts,
                                "requeued off blacklisted " + device.spec.name);
      record_attempt_locked(task->id, task->attempts, device.id,
                            TaskAttempt::Outcome::kRerouted,
                            device.avail_vtime.load(),
                            "requeued off blacklisted " + device.spec.name);
      if (oracle_ != nullptr) {
        oracle_->note(ChoiceKind::kReroute, task->id, device.id);
      }
      scheduler_->push(task);
    } else {
      fail_task_locked(*task, "no live device can execute codelet '" +
                                  task->codelet->name + "'");
    }
  }
}

void Engine::handle_task_failure(detail::TaskNode& task,
                                 detail::DeviceState& device, double exec,
                                 const std::string& reason, bool is_timeout) {
  // The attempt occupied the device on the virtual clock even though it
  // produced nothing; charging it keeps device timelines monotonic. It is
  // deliberately NOT added to busy_seconds or the trace — those describe
  // useful work — and not fed to the perf model (failures would poison the
  // estimates the watchdog itself relies on).
  const double transfer = task.transfer_seconds;
  const double attempt_finish = task.start_vtime + transfer + exec;
  detail::vtime_raise(device.avail_vtime, attempt_finish);
  device.transfer_seconds += transfer;
  ++device.failures;
  ++device.consecutive_failures;

  bool retry = false;
  {
    std::lock_guard<std::mutex> fault(fault_mutex_);
    ++task_failures_;
    if (is_timeout) ++timeouts_;
    if (obs::metrics_enabled()) {
      task_failures_counter().inc();
      if (is_timeout) task_timeouts_counter().inc();
    }
    record_fault_event_locked(
        is_timeout ? FaultEvent::Kind::kTimeout : FaultEvent::Kind::kFailure,
        attempt_finish, task.id, device.id, task.attempts, reason);
    record_attempt_locked(task.id, task.attempts, device.id,
                          is_timeout ? TaskAttempt::Outcome::kTimeout
                                     : TaskAttempt::Outcome::kFailed,
                          attempt_finish, reason);

    const int threshold = config_.fault_tolerance.blacklist_after;
    if (threshold > 0 && !device.blacklisted.load() &&
        device.consecutive_failures >= threshold) {
      blacklist_device_locked(device);
    }

    if (task.attempts <= retry_budget(device) &&
        has_live_capable_device(*task.codelet)) {
      ++retries_;
      if (obs::metrics_enabled()) task_retries_counter().inc();
      // Exponential backoff on the virtual clock: the retry may not start
      // before attempt_finish + base * multiplier^(attempt-1).
      const double backoff_seconds =
          config_.fault_tolerance.backoff_base_ms * 1e-3 *
          std::pow(config_.fault_tolerance.backoff_multiplier,
                   task.attempts - 1);
      detail::vtime_raise(task.ready_vtime, attempt_finish + backoff_seconds);
      task.ran_on = -1;
      record_fault_event_locked(FaultEvent::Kind::kRetry,
                                task.ready_vtime.load(), task.id, device.id,
                                task.attempts,
                                "retry " + std::to_string(task.attempts) + "/" +
                                    std::to_string(retry_budget(device)) +
                                    " after backoff");
      task.state.store(detail::TaskState::kReady);
      retry = true;
    } else {
      fail_task_locked(task, reason);
    }
  }
  // Re-dispatch outside fault_mutex_: dispatch_ready's failure path takes
  // it again. The caller holds mutex_, which scheduler_ pushes require.
  if (retry) dispatch_ready(&task);
  // A watchdog fire is the flight recorder's primary trigger: dump while
  // the evidence is still resident (also after fault_mutex_ is released).
  if (is_timeout) maybe_auto_dump("watchdog");
}

void Engine::record_decision(const detail::TaskNode& task,
                             const detail::DeviceState& chosen) {
  if (obs::metrics_enabled()) decision_counter_->inc();
  if (!config_.record_decisions && !obs::tracing_enabled() &&
      !obs::has_event_sink()) {
    return;  // hot path: no candidate vector, no lock
  }

  SchedulerDecision decision;
  decision.task = task.id;
  decision.label = task.label;
  decision.chosen = chosen.id;
  decision.decided_vtime =
      std::max(chosen.avail_vtime.load(), task.ready_vtime.load());
  // One candidate per placement class keeps the log exact without a
  // per-member walk: members share the cost estimate, and the entry for
  // the winner's class is computed on the winner itself, so the chosen
  // device always appears with its own numbers.
  const std::size_t chosen_class = class_of_[static_cast<std::size_t>(chosen.id)];
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const detail::PlacementClass& pc = classes_[c];
    if (!task.codelet->supports(pc.kind)) continue;
    const detail::DeviceState& device =
        c == chosen_class
            ? chosen
            : devices_[static_cast<std::size_t>(pc.representative)];
    DecisionCandidate candidate;
    candidate.device = device.id;
    candidate.device_name = device.spec.name;
    candidate.class_size = static_cast<int>(pc.members.size());
    candidate.est_finish_vtime =
        std::max(device.avail_vtime.load(), task.ready_vtime.load()) +
        estimated_cost(task, device);
    decision.candidates.push_back(std::move(candidate));
  }

  if (obs::has_event_sink()) {
    obs::Event event("starvm.decision");
    event.str("task", decision.label)
        .num("task_id", static_cast<std::uint64_t>(decision.task))
        .num("chosen", static_cast<double>(decision.chosen))
        .str("chosen_name", chosen.spec.name)
        .str("policy", to_string(config_.scheduler))
        .num("decided_vtime", decision.decided_vtime);
    std::string candidates = "[";
    for (std::size_t i = 0; i < decision.candidates.size(); ++i) {
      const DecisionCandidate& c = decision.candidates[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", c.est_finish_vtime);
      if (i > 0) candidates += ",";
      candidates += "{\"device\":" + std::to_string(c.device) + ",\"name\":\"" +
                    obs::json_escape(c.device_name) +
                    "\",\"devices\":" + std::to_string(c.class_size) +
                    ",\"est_finish_vtime\":" + buf + "}";
    }
    candidates += "]";
    event.raw("candidates", candidates);
    obs::emit_event(event);
  }

  decisions_.push_back(std::move(decision));
}

// --- Cost models ----------------------------------------------------------------

double Engine::link_transfer_seconds(std::size_t bytes, MemoryNodeId from,
                                     MemoryNodeId to) const {
  if (from == to) return 0.0;
  // Each accelerator node connects to the host with its own link; transfers
  // between two accelerators bounce through the host (PCIe peer-to-peer is
  // post-2011 and the paper's testbed routes via host RAM).
  double seconds = 0.0;
  if (from != kHostNode) seconds += hop_seconds(bytes, from);
  if (to != kHostNode) seconds += hop_seconds(bytes, to);
  return seconds;
}

double Engine::hop_seconds(std::size_t bytes, MemoryNodeId node) const {
  // Link parameters come from the node→spec index built at construction.
  const DeviceSpec* spec = node_link_spec(node);
  if (spec == nullptr) {
    // Every non-host node is created from a device at construction, so a
    // miss means the caller passed a node this engine never made. Flag it
    // (EngineStats::link_spec_misses; tests assert it stays zero) rather
    // than silently modeling the default link.
    assert(false && "memory node without an owning device spec");
    link_spec_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return transfer_seconds(bytes, spec ? spec->link_bandwidth_gbs : 5.0,
                          spec ? spec->link_latency_us : 10.0);
}

void Engine::charge_transfer_locked(const detail::TaskNode& task,
                                    std::size_t bytes, MemoryNodeId from,
                                    MemoryNodeId to, double& cost) {
  // The sum link_transfer_seconds forms, hop by hop, so the charged total
  // stays bit-identical to the estimate's.
  const double begin = task.start_vtime + cost;
  double seconds = 0.0;
  for (const MemoryNodeId hop : {from, to}) {
    if (hop == kHostNode) continue;
    const double leg = hop_seconds(bytes, hop);
    transfer_legs_.push_back(TransferLeg{task.id, hop, bytes, begin + seconds,
                                         begin + seconds + leg});
    seconds += leg;
  }
  cost += seconds;
}

void Engine::drop_replica_locked(DataHandle* handle, MemoryNodeId node) {
  const auto n = static_cast<std::size_t>(node);
  if (!handle->valid_on(node)) return;
  handle->valid_ &= ~DataHandle::node_bit(node);
  if (node != kHostNode && n < nodes_.size()) {
    NodeState& state = nodes_[n];
    state.used -= std::min(state.used, handle->bytes());
    if (state.capacity > 0) state.lru.remove(handle);
  }
}

void Engine::add_replica_locked(DataHandle* handle, MemoryNodeId node,
                                const detail::TaskNode& task, double& cost) {
  const auto n = static_cast<std::size_t>(node);
  NodeState* state =
      node != kHostNode && n < nodes_.size() ? &nodes_[n] : nullptr;
  const bool bounded = state != nullptr && state->capacity > 0;
  if (handle->valid_on(node)) {
    // Refresh recency on bounded nodes.
    if (bounded) {
      state->lru.remove(handle);
      state->lru.push_front(handle);
    }
    return;
  }

  if (bounded) {
    const auto is_pinned = [&](const DataHandle* candidate) {
      for (const auto& view : task.buffers) {
        if (view.handle == candidate) return true;
      }
      return false;
    };
    // Evict least-recently-used replicas until the new one fits. A handle
    // larger than the whole node is admitted anyway (it cannot be split;
    // the model degrades gracefully rather than deadlocking).
    while (state->used + handle->bytes() > state->capacity && !state->lru.empty()) {
      DataHandle* victim = nullptr;
      for (auto it = state->lru.rbegin(); it != state->lru.rend(); ++it) {
        if (!is_pinned(*it)) {
          victim = *it;
          break;
        }
      }
      if (victim == nullptr) break;  // everything pinned: over-commit
      // Sole-replica eviction must write the data back to the host first.
      const bool sole = (victim->valid_ & ~DataHandle::node_bit(node)) == 0;
      if (sole) {
        charge_transfer_locked(task, victim->bytes(), node, kHostNode, cost);
        writeback_bytes_ += victim->bytes();
        victim->valid_ |= DataHandle::node_bit(kHostNode);
      }
      drop_replica_locked(victim, node);
      ++evictions_;
      if (obs::metrics_enabled()) evictions_counter().inc();
    }
    state->lru.push_front(handle);
  }
  handle->valid_ |= DataHandle::node_bit(node);
  if (state != nullptr) {
    state->used += handle->bytes();
    if (state->used > state->peak) {
      state->peak = state->used;
      state->peak_vtime = task.start_vtime + cost;
    }
  }
}

double Engine::acquire_buffers(detail::TaskNode& task, MemoryNodeId node) {
  // Single-node platforms (CPU-only) never transfer: every handle stays
  // valid on the host and MSI bookkeeping is a no-op. Skip the lock.
  if (single_node_) return 0.0;
  double total = 0.0;
  std::lock_guard<std::mutex> lock(memory_mutex_);
  for (const auto& view : task.buffers) {
    DataHandle* h = view.handle;
    if (reads(view.mode)) {
      if (!h->valid_on(node)) {
        // Prefer pulling from the host; otherwise any valid replica.
        const MemoryNodeId source = h->first_valid_node();
        if (source >= 0) {
          charge_transfer_locked(task, h->bytes(), source, node, total);
          ++transfers_;
          transfer_bytes_ += h->bytes();
          if (obs::metrics_enabled()) transfers_counter().inc();
        }
      }
      // add_replica also refreshes LRU recency for already-valid replicas.
      add_replica_locked(h, node, task, total);
    }
    if (writes(view.mode)) {
      // MSI: writing invalidates every other replica. Simulated
      // accelerators actually write host memory, so the host copy is
      // physically current; keeping it marked invalid models the paper
      // testbed where the result sits in GPU memory until fetched.
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (static_cast<MemoryNodeId>(n) != node) {
          drop_replica_locked(h, static_cast<MemoryNodeId>(n));
        }
      }
      add_replica_locked(h, node, task, total);
    }
  }
  return total;
}

double Engine::exec_estimate(const detail::TaskNode& task,
                             const detail::DeviceState& device) const {
  return PerfModel::estimate_in(*task.model_row, device.id, task.flops,
                                device.spec.sustained_gflops);
}

double Engine::estimated_cost(const detail::TaskNode& task,
                              const detail::DeviceState& device) const {
  double transfer = 0.0;
  if (!single_node_) {
    std::lock_guard<std::mutex> lock(memory_mutex_);
    for (const auto& view : task.buffers) {
      const DataHandle* h = view.handle;
      if (reads(view.mode) && !h->valid_on(device.node)) {
        const MemoryNodeId source = h->first_valid_node();
        if (source >= 0) {
          transfer += link_transfer_seconds(h->bytes(), source, device.node);
        }
      }
    }
  }
  return transfer + exec_estimate(task, device);
}

void Engine::estimated_cost_class_row(const detail::TaskNode& task,
                                      double* out) const {
  const std::size_t nc = classes_.size();
  for (std::size_t c = 0; c < nc; ++c) {
    // The representative's calibration history stands in for every member:
    // members are spec-identical, so their analytic estimates match and
    // their measured histories converge on the same kernels.
    out[c] = PerfModel::estimate_in(*task.model_row, classes_[c].representative,
                                    task.flops, class_gflops_[c]);
  }
  if (single_node_) return;  // no replicas to move, nothing to add
  std::lock_guard<std::mutex> lock(memory_mutex_);
  for (std::size_t c = 0; c < nc; ++c) {
    const MemoryNodeId node = classes_[c].node;
    for (const auto& view : task.buffers) {
      const DataHandle* h = view.handle;
      if (!reads(view.mode) || h->valid_on(node)) continue;
      const MemoryNodeId source = h->first_valid_node();
      if (source >= 0) {
        out[c] += link_transfer_seconds(h->bytes(), source, node);
      }
    }
  }
}

// --- Flight recorder ------------------------------------------------------------

std::vector<obs::FlightEvent> Engine::flight_snapshot() const {
  if (!flight_) return {};
  return flight_->snapshot();
}

bool Engine::dump_flight_recorder(const std::string& prefix,
                                  const std::string& reason) const {
  if (!flight_ || prefix.empty()) return false;
  const std::vector<obs::FlightEvent> events = flight_->snapshot();
  // Resolve task labels up front: ids are dense from 1, and the label of a
  // wired task is immutable, so one pass under submit_mutex_ suffices.
  std::vector<std::string> labels;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    labels.resize(static_cast<std::size_t>(next_task_id_));
    for (TaskId id = 1; id < next_task_id_; ++id) {
      labels[static_cast<std::size_t>(id)] =
          tasks_[static_cast<std::size_t>(id - 1)].label;
    }
  }
  const obs::FlightLabelFn label = [&labels](std::uint64_t task) {
    return task < labels.size() ? labels[static_cast<std::size_t>(task)]
                                : std::string();
  };
  bool ok = true;
  {
    std::ofstream out(prefix + ".jsonl", std::ios::binary);
    out << obs::flight_events_jsonl(events, reason, flight_->produced(),
                                    flight_->overwritten(), label);
    ok = static_cast<bool>(out) && ok;
  }
  {
    std::ofstream out(prefix + ".trace.json", std::ios::binary);
    out << flight_chrome_trace(events, label);
    ok = static_cast<bool>(out) && ok;
  }
  return ok;
}

void Engine::maybe_auto_dump(const char* reason) const {
  if (!flight_ || flight_dump_prefix_.empty()) return;
  bool expected = false;
  if (!flight_dumped_.compare_exchange_strong(expected, true)) return;
  dump_flight_recorder(flight_dump_prefix_, reason);
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& device : devices_) {
      s.makespan_seconds = std::max(s.makespan_seconds, device.avail_vtime.load());
      DeviceStats ds;
      ds.name = device.spec.name;
      ds.kind = device.spec.kind;
      ds.tasks_run = device.tasks_run;
      ds.busy_seconds = device.busy_seconds;
      ds.transfer_seconds = device.transfer_seconds;
      ds.failures = device.failures;
      ds.blacklisted = device.blacklisted.load();
      ds.mtbf_hours = device.spec.mtbf_hours;
      ds.declared_gflops = device.spec.sustained_gflops;
      s.devices.push_back(std::move(ds));
      s.tasks_completed += device.tasks_run;
    }
    // The simulation views leave steals at 0.
    if (hybrid()) s.steals = scheduler_->steals();
    s.decisions = decisions_;
  }
  {
    std::lock_guard<std::mutex> mem(memory_mutex_);
    s.transfers = transfers_;
    s.transfer_bytes = transfer_bytes_;
    s.evictions = evictions_;
    s.writeback_bytes = writeback_bytes_;
    s.transfer_legs = transfer_legs_;
    for (const auto& device : devices_) {
      if (device.node == kHostNode) continue;
      const NodeState& node = nodes_[static_cast<std::size_t>(device.node)];
      s.node_peaks.push_back(NodePeak{device.node, device.id, node.peak,
                                      node.peak_vtime});
    }
  }
  s.link_spec_misses = link_spec_misses_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> fault(fault_mutex_);
    s.task_failures = task_failures_;
    s.retries = retries_;
    s.timeouts = timeouts_;
    s.reroutes = reroutes_;
    s.devices_blacklisted = blacklists_;
    s.failed_tasks = failed_tasks_;
    s.cancelled_tasks = cancelled_tasks_;
    s.errors = task_errors_;
    s.fault_events = fault_events_;
    s.attempts = attempts_;
  }
  s.scheduler = config_.scheduler;
  s.task_overhead_us = config_.task_overhead_us;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    s.tasks_submitted = tasks_submitted_;
    s.perf_model_seeds = perf_model_seeds_;
    // One row per finished task, read off its node: loading kDone orders
    // these reads after finalize_task's writes, a threaded worker's included.
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const detail::TaskNode& task = tasks_[i];
      if (task.state.load() != detail::TaskState::kDone) continue;
      s.trace.push_back(TaskTrace{task.id, task.label, task.ran_on,
                                  task.start_vtime, task.finish_vtime,
                                  task.transfer_seconds, task.exec_seconds,
                                  task.flops, task.ready_vtime.load()});
    }
  }
  // Virtual-clock order; ids are unique, so the order is total.
  std::sort(s.trace.begin(), s.trace.end(),
            [](const TaskTrace& a, const TaskTrace& b) {
              return a.start_vtime != b.start_vtime
                         ? a.start_vtime < b.start_vtime
                         : a.id < b.id;
            });
  // Immutable after construction; no lock needed.
  s.perf_store_entries = perf_store_entries_;
  s.perf_store_rejected = perf_store_rejected_;
  if (flight_) {
    s.flight_records = flight_->produced();
    s.flight_overwritten = flight_->overwritten();
  }
  const double first = first_submit_wall_.load();
  const double drained = drain_wall_.load();
  if (first >= 0.0 && drained > first) {
    s.wall_seconds = drained - first;
  }
  return s;
}

}  // namespace starvm
