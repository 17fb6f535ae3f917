#include "starvm/bridge.hpp"

#include <algorithm>

#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "util/string_util.hpp"

namespace starvm {

namespace {

/// Optional `reliability` properties (MAX_RETRIES, MTBF_HOURS), inherited
/// upward like the rate properties so a controller can declare them once.
void apply_reliability(const pdl::ProcessingUnit& pu, DeviceSpec& spec) {
  if (const pdl::Property* p = pdl::resolve_property(pu, pdl::props::kMaxRetries)) {
    if (auto v = p->as_double(); v && *v >= 0.0) {
      spec.max_retries = static_cast<int>(*v);
    }
  }
  if (const pdl::Property* p = pdl::resolve_property(pu, pdl::props::kMtbfHours)) {
    if (auto v = p->as_double(); v && *v > 0.0) spec.mtbf_hours = *v;
  }
}

}  // namespace

pdl::util::Result<EngineConfig> engine_config_from_platform(
    const pdl::Platform& platform, const BridgeOptions& options,
    std::vector<const pdl::ProcessingUnit*>* origins) {
  if (platform.masters().empty()) {
    return pdl::util::Error{"platform has no Master PU"};
  }

  EngineConfig config;
  config.scheduler = options.scheduler;
  config.mode = options.mode;
  config.record_decisions = options.record_decisions;

  std::vector<DeviceSpec> cpus;
  std::vector<DeviceSpec> accelerators;
  std::vector<const pdl::ProcessingUnit*> cpu_pus;  // parallel to `cpus`
  std::vector<const pdl::ProcessingUnit*> accelerator_pus;

  // Workers execute tasks; Hybrid PUs "act as master and worker at the
  // same time" (paper §III-A), so they contribute execution capacity too.
  std::vector<const pdl::ProcessingUnit*> executing_pus =
      pdl::pus_of_kind(platform, pdl::PuKind::kWorker);
  for (const pdl::ProcessingUnit* hybrid :
       pdl::pus_of_kind(platform, pdl::PuKind::kHybrid)) {
    executing_pus.push_back(hybrid);
  }

  for (const pdl::ProcessingUnit* pu : executing_pus) {
    const std::string arch = pdl::resolved_value(*pu, pdl::props::kArchitecture);
    if (pdl::util::iequals(arch, "x86_core") || pdl::util::iequals(arch, "x86") ||
        pdl::util::iequals(arch, "cpu_core") || pdl::util::iequals(arch, "ppe") ||
        pdl::util::iequals(arch, "riscv") ||
        pdl::util::iequals(arch, "riscv_core") || arch.empty()) {
      DeviceSpec spec;
      spec.kind = DeviceKind::kCpu;
      spec.sustained_gflops = pdl::props::sustained_gflops(*pu, 0.9, options.default_cpu_gflops);
      apply_reliability(*pu, spec);
      // Same naming rule as accelerators below: `id` when the PU stands
      // for one device, `id#i` only for real quantity expansions (a
      // quantity="1" CPU used to be named `id#0`, which broke name parity
      // with accelerators and split profile instance pooling).
      for (int i = 0; i < pu->quantity(); ++i) {
        spec.name = pu->quantity() == 1 ? pu->id()
                                        : pu->id() + "#" + std::to_string(i);
        cpus.push_back(spec);
        cpu_pus.push_back(pu);
      }
    } else {
      // Everything non-CPU is a simulated accelerator (gpu, spe, ...).
      DeviceSpec spec;
      spec.kind = DeviceKind::kAccelerator;
      spec.sustained_gflops = pdl::props::sustained_gflops(*pu, 0.65, options.default_accel_gflops);
      apply_reliability(*pu, spec);

      // Device memory capacity from the worker's MemoryRegion (SIZE).
      if (auto bytes = pdl::props::memory_capacity_bytes(*pu)) {
        spec.memory_bytes = static_cast<std::size_t>(*bytes);
      }

      // Link parameters from the Interconnect reaching this worker.
      if (const pdl::ProcessingUnit* controller = pu->parent()) {
        if (const pdl::Interconnect* ic =
                pdl::find_interconnect(platform, controller->id(), pu->id())) {
          if (auto bw = pdl::props::link_bandwidth_gbs(*ic)) {
            spec.link_bandwidth_gbs = *bw;
          }
          if (auto lat = pdl::props::link_latency_us(*ic)) {
            spec.link_latency_us = *lat;
          }
        }
      }
      for (int i = 0; i < pu->quantity(); ++i) {
        spec.name = pu->quantity() == 1 ? pu->id()
                                        : pu->id() + "#" + std::to_string(i);
        accelerators.push_back(spec);
        accelerator_pus.push_back(pu);
      }
    }
  }

  if (cpus.empty() && accelerators.empty()) {
    // The "single" configuration: the Master executes the fall-back variant.
    const pdl::ProcessingUnit& master = *platform.masters().front();
    DeviceSpec spec;
    spec.kind = DeviceKind::kCpu;
    spec.name = "master:" + master.id();
    spec.sustained_gflops = pdl::props::sustained_gflops(master, 0.9, options.default_cpu_gflops);
    apply_reliability(master, spec);
    config.devices.push_back(std::move(spec));
    if (origins != nullptr) *origins = {&master};
    return config;
  }

  // StarPU-style driver cores: each accelerator consumes one CPU worker.
  std::size_t cpu_count = cpus.size();
  if (options.dedicate_driver_cores) {
    cpu_count -= std::min(cpu_count, accelerators.size());
  }
  config.devices.assign(cpus.begin(),
                        cpus.begin() + static_cast<std::ptrdiff_t>(cpu_count));
  config.devices.insert(config.devices.end(), accelerators.begin(),
                        accelerators.end());
  if (origins != nullptr) {
    origins->assign(cpu_pus.begin(),
                    cpu_pus.begin() + static_cast<std::ptrdiff_t>(cpu_count));
    origins->insert(origins->end(), accelerator_pus.begin(),
                    accelerator_pus.end());
  }
  return config;
}

}  // namespace starvm
