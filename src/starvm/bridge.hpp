// PDL -> starvm bridge: construct an engine configuration directly from a
// platform description.
//
// This is the paper's central claim made executable: "by varying the target
// PDL descriptor our compiler can generate code for different target
// architectures without the need to modify the source program" (§I). The
// generated programs differ only in which Platform they load; this bridge
// turns that Platform into the device set the runtime schedules on.
//
// Mapping rules:
//   * Worker PUs with ARCHITECTURE=x86_core become CPU devices (one per
//     `quantity`), their sustained rate from SUSTAINED_GFLOPS (upward-
//     inherited, so it may live on the Master).
//   * Worker PUs with any other architecture (gpu, spe, ...) become
//     simulated accelerator devices; link parameters come from the
//     Interconnect declared between their controller and them.
//   * A platform with no Worker PUs (the paper's "single" configuration)
//     yields one CPU device representing the Master itself.
//   * Like StarPU on the paper's testbed, each accelerator dedicates one
//     CPU core as its driver: one CPU device is removed per accelerator
//     (never below zero). Disable via BridgeOptions.
#pragma once

#include <vector>

#include "pdl/model.hpp"
#include "starvm/device.hpp"
#include "util/result.hpp"

namespace starvm {

struct BridgeOptions {
  SchedulerKind scheduler = SchedulerKind::kHeft;
  ExecutionMode mode = ExecutionMode::kHybrid;
  /// Remove one CPU device per accelerator (StarPU driver cores).
  bool dedicate_driver_cores = true;
  /// Sustained rate when a PU declares neither SUSTAINED_GFLOPS nor
  /// PEAK_GFLOPS.
  double default_cpu_gflops = 5.0;
  double default_accel_gflops = 50.0;
  /// Forwarded to EngineConfig::record_decisions (scheduler decision log).
  bool record_decisions = false;
};

/// Build an engine configuration from a platform description. When
/// `origins` is given it receives, parallel to EngineConfig::devices, the
/// PU each device was made from (the Master in the "single"
/// configuration). Fails when the platform has no Master.
pdl::util::Result<EngineConfig> engine_config_from_platform(
    const pdl::Platform& platform, const BridgeOptions& options = {},
    std::vector<const pdl::ProcessingUnit*>* origins = nullptr);

}  // namespace starvm
