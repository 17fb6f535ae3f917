#include "cascabel/rt.hpp"

#include <algorithm>
#include <mutex>

#include "cascabel/builtin_variants.hpp"
#include "obs/trace.hpp"
#include "pdl/parser.hpp"
#include "pdl/query.hpp"
#include "util/logging.hpp"

namespace cascabel::rt {

namespace {

starvm::Access to_starvm(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRead: return starvm::Access::kRead;
    case AccessMode::kWrite: return starvm::Access::kWrite;
    case AccessMode::kReadWrite: return starvm::Access::kReadWrite;
  }
  return starvm::Access::kRead;
}

/// The extent a BLOCK/CYCLIC argument is split along: rows of a matrix,
/// cols of a vector.
std::size_t split_extent(const Arg& a) { return a.rows > 1 ? a.rows : a.cols; }

/// Registration is one per pointer, so a buffer passed twice must be passed
/// the same way: a second distribution or shape would re-partition or
/// re-register the handle the first parameter already uses. Task b takes
/// block b of every distributed argument, so they must split one extent.
pdl::util::Status check_argument_pairs(const std::string& iface,
                                       const std::vector<ParamSpec>& params,
                                       const std::vector<Arg>& args) {
  const auto describe = [&](std::size_t i) {
    const Arg& a = args[i];
    const std::string name = i < params.size()
                                 ? "'" + params[i].name + "'"
                                 : std::string("#") + std::to_string(i + 1);
    return name + " (" + std::string(to_string(a.dist)) + ", " +
           std::to_string(a.rows) + "x" + std::to_string(a.cols) + ")";
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    for (std::size_t j = i + 1; j < args.size(); ++j) {
      const Arg& x = args[i];
      const Arg& y = args[j];
      if (x.ptr == y.ptr &&
          (x.dist != y.dist || x.rows != y.rows || x.cols != y.cols)) {
        return pdl::util::Status::failure(
            "call of '" + iface + "': parameters " + describe(i) + " and " +
            describe(j) +
            " pass the same buffer with different distributions or shapes");
      }
      if (x.dist != DistributionKind::kNone && y.dist != DistributionKind::kNone &&
          split_extent(x) != split_extent(y)) {
        return pdl::util::Status::failure(
            "call of '" + iface + "': distributed parameters " + describe(i) +
            " and " + describe(j) + " split different extents");
      }
    }
  }
  return {};
}

}  // namespace

Context::Context(const pdl::Platform& target, TaskRepository repository,
                 Options options)
    : repository_(std::move(repository)),
      options_(options),
      groups_(pdl::logic_groups(target)) {
  // Engine config first: the perf store is keyed by the hash of the device
  // descriptors the bridge derives, so pre-selection can only trust the
  // store after that hash has been checked.
  starvm::BridgeOptions bridge = options_.bridge;
  bridge.scheduler = options_.scheduler;
  bridge.mode = options_.mode;
  auto config = starvm::engine_config_from_platform(target, bridge);
  starvm::EngineConfig engine_config;
  if (!config) {
    // An engine is still required for the object to be usable; fall back to
    // a single CPU and record the problem.
    pdl::add_error(diags_, "engine construction: " + config.error().str());
    engine_config = starvm::EngineConfig::cpus(1);
  } else {
    engine_config = std::move(config).value();
  }
  // The front end of generated programs resolves the environment once;
  // the engine itself reads none.
  engine_config.fault_tolerance = options_.fault_tolerance;
  engine_config.fault_plan = options_.fault_plan
                                 ? options_.fault_plan
                                 : starvm::FaultPlan::from_env();
  engine_config.perf_store_path = options_.perf_store_path.empty()
                                      ? starvm::perf_store::env_store_path()
                                      : options_.perf_store_path;

  // Load the same store the engine will preload, so static pre-selection
  // ranks variants by measured rate (paper §IV-C step 2, but from learned
  // history instead of declared properties). Any rejection degrades to
  // declared-rate selection — the engine counts it in EngineStats too.
  const std::string& store_path = engine_config.perf_store_path;
  SelectionOptions sel_options;
  sel_options.min_samples = options_.perf_min_samples;
  sel_options.accuracy = options_.accuracy;
  if (!store_path.empty()) {
    auto loaded = starvm::perf_store::load(store_path);
    if (loaded.status == starvm::perf_store::LoadStatus::kLoaded) {
      if (loaded.store.descriptor_hash ==
          starvm::perf_store::descriptor_hash(engine_config.devices)) {
        perf_store_ = std::move(loaded.store);
        perf_store_loaded_ = true;
        sel_options.perf_store = &perf_store_;
      } else {
        pdl::add_info(diags_, "perf store '" + store_path +
                                  "' ignored: descriptor hash mismatch "
                                  "(stale store from another platform)");
      }
    } else if (loaded.status != starvm::perf_store::LoadStatus::kMissing) {
      pdl::add_info(diags_,
                    "perf store '" + store_path + "' ignored: " + loaded.detail);
    }
  }
  selection_ = preselect(repository_, target, diags_, sel_options);
  engine_ = std::make_unique<starvm::Engine>(std::move(engine_config));
}

Context::Registered& Context::find_or_register(const Arg& a) {
  auto it = registered_.find(a.ptr);
  if (it != registered_.end()) {
    Registered& reg = it->second;
    if (reg.handle->rows() == a.rows && reg.handle->cols() == a.cols) {
      return reg;
    }
    // The pointer is being reused with different geometry (e.g. the same
    // scratch buffer viewed as a different matrix). Drain in-flight tasks,
    // drop the old registration and fall through to a fresh one. Task
    // failures stay sticky in the engine; wait() reports them.
    (void)engine_->wait_all();
    if (reg.nblocks != 0) engine_->unpartition(reg.handle);
    registered_.erase(it);
  }
  Registered reg;
  reg.handle = a.rows <= 1
                   ? engine_->register_vector(a.ptr, a.cols)
                   : engine_->register_matrix(a.ptr, a.rows, a.cols);
  return registered_.emplace(a.ptr, std::move(reg)).first->second;
}

void Context::repartition(Registered& reg, const Arg& a, int nblocks) {
  if (reg.nblocks == nblocks) return;
  // In-flight tasks may reference the old blocks; drain before replacing.
  // Task failures stay sticky in the engine; wait() reports them.
  (void)engine_->wait_all();
  if (reg.nblocks != 0) {
    engine_->unpartition(reg.handle);
    reg.blocks.clear();
  }
  if (nblocks > 1) {
    reg.blocks = a.rows <= 1 ? engine_->partition_vector(reg.handle, nblocks)
                             : engine_->partition_rows(reg.handle, nblocks);
    reg.nblocks = static_cast<int>(reg.blocks.size());
  } else {
    reg.nblocks = 0;
  }
}

pdl::util::Status Context::execute(std::string_view interface_name,
                                   std::string_view group, std::vector<Arg> args) {
  const std::string iface(interface_name);
  obs::Span span("rt.execute", iface);
  const auto* candidates = selection_.candidates(iface);
  if (candidates == nullptr || candidates->empty()) {
    return pdl::util::Status::failure("no variant of task interface '" + iface +
                                      "' matches the target platform");
  }

  if (auto status = check_argument_pairs(
          iface, candidates->front().variant->pragma.params, args);
      !status.ok()) {
    return status;
  }

  // Which candidates may run this call: the execution group restricts them
  // to the variants mapped onto its PUs (paper §IV-B, LogicGroupAttribute).
  const std::string_view exec_group = execution_group(group, groups_, diags_);

  // Pick one bound implementation per device kind: among usable (group-
  // compatible, executable) candidates, a measured rate from the perf
  // store beats the declared order outright (and the faster learned rate
  // wins among measured candidates); without measurements, non-fallback
  // beats fallback and higher pattern specificity beats lower (ties:
  // later registration). The declared-only winner is tracked alongside so
  // a store-induced flip is visible in the diagnostics. Accuracy-vetoed
  // candidates (static error bound above Options::accuracy.tolerance) are
  // excluded outright — a measured-rate flip may not trade the program's
  // declared accuracy for speed — and only reconsidered when a device
  // class has nothing else to run.
  const BoundImpl* impl_per_kind[2] = {nullptr, nullptr};
  const SelectedVariant* chosen[2] = {nullptr, nullptr};
  const BoundImpl* declared_choice[2] = {nullptr, nullptr};
  const SelectedVariant* vetoed_fastest[2] = {nullptr, nullptr};
  std::function<double(const std::vector<starvm::BufferView>&)> flops_fn;
  for (int pass = 0; pass < 2; ++pass) {
    const bool allow_vetoed = pass == 1;
    int best_rank[2] = {-1, -1};
    int declared_rank[2] = {-1, -1};
    double best_measured[2] = {0.0, 0.0};
    for (const auto& candidate : *candidates) {
      if (!in_execution_group(candidate, exec_group)) continue;
      const BoundImpl* impl = repository_.bound(candidate.variant->pragma.variant_name);
      if (impl == nullptr || !impl->fn) continue;  // source-only variant
      const auto slot = static_cast<std::size_t>(impl->device_kind);
      if (candidate.accuracy_vetoed && !allow_vetoed) {
        // Remember the measured-fastest refusal so the veto is loggable.
        if (vetoed_fastest[slot] == nullptr ||
            candidate.measured_gflops > vetoed_fastest[slot]->measured_gflops) {
          vetoed_fastest[slot] = &candidate;
        }
        continue;
      }
      if (allow_vetoed && impl_per_kind[slot] != nullptr) continue;
      const int rank =
          (candidate.is_fallback ? 0 : 1000000) + candidate.specificity;
      if (rank >= declared_rank[slot]) {
        declared_rank[slot] = rank;
        declared_choice[slot] = impl;
      }
      const double measured = candidate.measured_gflops;
      const bool better =
          measured > 0.0
              ? best_measured[slot] == 0.0 || measured >= best_measured[slot]
              : best_measured[slot] == 0.0 && rank >= best_rank[slot];
      if (!better) continue;
      best_rank[slot] = rank;
      best_measured[slot] = measured;
      impl_per_kind[slot] = impl;
      chosen[slot] = &candidate;
      if (impl->flops) flops_fn = impl->flops;
    }
    // The second pass only fills device classes the veto left empty.
    if (impl_per_kind[0] != nullptr || impl_per_kind[1] != nullptr) break;
  }

  // Restrict to device kinds the engine actually has.
  bool engine_has_kind[2] = {false, false};
  for (const auto& spec : engine_->config().devices) {
    engine_has_kind[static_cast<std::size_t>(spec.kind)] = true;
  }

  const std::string codelet_key = iface + "@" + std::string(group);
  auto codelet_it = codelets_.find(codelet_key);
  if (codelet_it == codelets_.end()) {
    auto codelet = std::make_unique<starvm::Codelet>();
    codelet->name = codelet_key;
    bool model_known = true;
    for (std::size_t kind = 0; kind < 2; ++kind) {
      if (impl_per_kind[kind] != nullptr && engine_has_kind[kind]) {
        codelet->impls.push_back(starvm::Implementation{
            static_cast<starvm::DeviceKind>(kind), impl_per_kind[kind]->fn});
        // The engine records this codelet's observations additionally
        // under the chosen variant's name, so the persisted store learns
        // per-variant rates for the next run's pre-selection.
        codelet->calibration_alias[kind] = impl_per_kind[kind]->variant_name;
        if (declared_choice[kind] != nullptr &&
            impl_per_kind[kind] != declared_choice[kind]) {
          pdl::add_info(diags_,
                        "perf store: interface '" + iface +
                            "' selects measured-fastest variant '" +
                            impl_per_kind[kind]->variant_name + "' over '" +
                            declared_choice[kind]->variant_name +
                            "' (declared-rate choice)");
        }
        // Codelet metadata carries the loosest claim among the selected
        // implementations (any unspecified one makes the whole claim
        // unspecified) so downstream analyses judge the worst case.
        const starvm::ErrorModel& model = chosen[kind]->variant->error_model;
        if (!model.specified()) {
          model_known = false;
        } else if (model_known &&
                   (!codelet->error_model.specified() ||
                    model.coefficient * model.epsilon >
                        codelet->error_model.coefficient *
                            codelet->error_model.epsilon)) {
          codelet->error_model = model;
        }
        // The accuracy veto's visible trace: a vetoed candidate was on the
        // table for this device class and a tighter variant won instead.
        if (vetoed_fastest[kind] != nullptr &&
            chosen[kind] != vetoed_fastest[kind] &&
            !chosen[kind]->accuracy_vetoed) {
          pdl::add_info(
              diags_,
              "accuracy guard: veto variant '" +
                  vetoed_fastest[kind]->variant->pragma.variant_name +
                  "' of interface '" + iface + "' (static error bound " +
                  std::to_string(vetoed_fastest[kind]->static_error_bound) +
                  " > tolerance " + std::to_string(options_.accuracy.tolerance) +
                  "); keeping '" + chosen[kind]->variant->pragma.variant_name +
                  "'");
        } else if (chosen[kind]->accuracy_vetoed) {
          pdl::add_warning(
              diags_,
              "accuracy guard: no candidate of interface '" + iface +
                  "' meets the tolerance; using vetoed variant '" +
                  chosen[kind]->variant->pragma.variant_name + "'");
        }
      }
    }
    if (!model_known) codelet->error_model = starvm::ErrorModel{};
    if (codelet->impls.empty()) {
      return pdl::util::Status::failure(
          "no executable implementation of '" + iface +
          "' for the devices of this platform (group '" + std::string(group) + "')");
    }
    codelet->flops = flops_fn;
    codelet_it = codelets_.emplace(codelet_key, std::move(codelet)).first;
  }
  starvm::Codelet* codelet = codelet_it->second.get();

  // Data registration and decomposition. Every BLOCK/CYCLIC argument splits
  // the same extent (checked above) into only the blocks that hold data;
  // un-distributed arguments are passed whole to every task (e.g. the B
  // matrix of row-banded DGEMM).
  int nblocks = 1;
  const auto distributed = std::find_if(args.begin(), args.end(), [](const Arg& a) {
    return a.dist != DistributionKind::kNone;
  });
  if (distributed != args.end()) {
    const int target_blocks =
        options_.blocks_per_device * static_cast<int>(engine_->device_count());
    // An extent of 0 fills no block and still runs one whole-buffer task.
    nblocks = std::max(1, starvm::filled_blocks(split_extent(*distributed),
                                                std::max(1, target_blocks)));
  }

  std::vector<Registered*> regs;
  regs.reserve(args.size());
  for (const auto& a : args) {
    Registered& reg = find_or_register(a);
    if (a.dist != DistributionKind::kNone) {
      repartition(reg, a, nblocks);
    } else if (reg.nblocks != 0) {
      repartition(reg, a, 1);  // whole-buffer use after being partitioned
    }
    regs.push_back(&reg);
  }

  // CYCLIC distributions submit blocks in round-robin order over a stride;
  // with a dynamic scheduler this only changes issue order (the paper's
  // distributions hint placement, the runtime decides).
  std::vector<int> order(static_cast<std::size_t>(nblocks));
  for (int b = 0; b < nblocks; ++b) order[static_cast<std::size_t>(b)] = b;
  bool cyclic = false;
  for (const auto& a : args) {
    cyclic |= a.dist == DistributionKind::kCyclic ||
              a.dist == DistributionKind::kBlockCyclic;
  }
  if (cyclic && nblocks > 1) {
    const int stride = std::max(1, nblocks / std::max<int>(
                                        1, static_cast<int>(engine_->device_count())));
    std::vector<int> permuted;
    permuted.reserve(order.size());
    for (int offset = 0; offset < stride; ++offset) {
      for (int b = offset; b < nblocks; b += stride) permuted.push_back(b);
    }
    order = std::move(permuted);
  }

  // One batched submission for the whole block sweep: dependencies are
  // inferred once, task nodes are pre-reserved and the workers are woken
  // once per involved device instead of once per block.
  std::vector<starvm::TaskDesc> batch;
  batch.reserve(order.size());
  for (const int b : order) {
    starvm::TaskDesc desc;
    desc.codelet = codelet;
    desc.label = iface + "[" + std::to_string(b) + "]";
    for (std::size_t i = 0; i < args.size(); ++i) {
      starvm::DataHandle* handle =
          (args[i].dist != DistributionKind::kNone && regs[i]->nblocks > 0)
              ? regs[i]->blocks[static_cast<std::size_t>(b)]
              : regs[i]->handle;
      desc.buffers.push_back(starvm::BufferView{handle, to_starvm(args[i].mode)});
    }
    batch.push_back(std::move(desc));
  }
  engine_->submit_batch(std::move(batch));
  return {};
}

pdl::util::Status Context::wait() { return engine_->wait_all(); }

void Context::host_modified(double* ptr) {
  const auto it = registered_.find(ptr);
  if (it == registered_.end()) return;
  engine_->host_write(it->second.handle);
}

// --- Global context -----------------------------------------------------------

namespace {

struct PendingVariant {
  std::string interface_name;
  std::string variant_name;
  std::vector<std::string> target_platforms;
  starvm::DeviceKind kind;
  std::function<void(const starvm::ExecContext&)> fn;
  std::function<double(const std::vector<starvm::BufferView>&)> flops;
  starvm::ErrorModel error_model;
};

std::vector<PendingVariant>& pending_variants() {
  static std::vector<PendingVariant> pending;
  return pending;
}

std::unique_ptr<Context>& global_context() {
  static std::unique_ptr<Context> ctx;
  return ctx;
}

std::mutex g_mutex;

}  // namespace

bool register_variant(const std::string& interface_name,
                      const std::string& variant_name,
                      const std::vector<std::string>& target_platforms,
                      starvm::DeviceKind kind,
                      std::function<void(const starvm::ExecContext&)> fn,
                      std::function<double(const std::vector<starvm::BufferView>&)>
                          flops,
                      starvm::ErrorModel error_model) {
  std::lock_guard<std::mutex> lock(g_mutex);
  pending_variants().push_back(PendingVariant{interface_name, variant_name,
                                              target_platforms, kind, std::move(fn),
                                              std::move(flops), error_model});
  return true;
}

bool initialize(const char* pdl_xml, Options options) {
  std::lock_guard<std::mutex> lock(g_mutex);
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform(pdl_xml, diags);
  if (!platform || pdl::has_errors(diags)) {
    PDL_LOG_ERROR << "cascabel::rt::initialize: invalid PDL"
                  << (!platform ? ": " + platform.error().str() : "");
    for (const auto& d : diags) PDL_LOG_ERROR << d.str();
    return false;
  }

  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  for (const auto& pv : pending_variants()) {
    TaskVariant variant;
    variant.pragma.task_interface = pv.interface_name;
    variant.pragma.variant_name = pv.variant_name;
    variant.pragma.target_platforms = pv.target_platforms;
    variant.error_model = pv.error_model;
    repo.add_variant(std::move(variant));
    repo.bind(BoundImpl{pv.variant_name, pv.kind, pv.fn, pv.flops});
  }

  global_context() =
      std::make_unique<Context>(platform.value(), std::move(repo), options);
  return true;
}

bool initialized() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return global_context() != nullptr;
}

bool execute(const char* interface_name, const char* group, std::vector<Arg> args) {
  Context* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    ctx = global_context().get();
  }
  if (ctx == nullptr) {
    PDL_LOG_ERROR << "cascabel::rt::execute before initialize";
    return false;
  }
  auto status = ctx->execute(interface_name, group ? group : "", std::move(args));
  if (!status.ok()) {
    PDL_LOG_ERROR << "cascabel::rt::execute('" << interface_name
                  << "'): " << status.error().str();
    return false;
  }
  return true;
}

bool wait() {
  Context* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    ctx = global_context().get();
  }
  if (ctx == nullptr) return true;
  auto status = ctx->wait();
  if (!status.ok()) {
    PDL_LOG_ERROR << "cascabel::rt::wait: " << status.error().str();
    return false;
  }
  return true;
}

starvm::EngineStats stats() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return global_context() ? global_context()->stats() : starvm::EngineStats{};
}

void shutdown() {
  std::lock_guard<std::mutex> lock(g_mutex);
  global_context().reset();
}

}  // namespace cascabel::rt
