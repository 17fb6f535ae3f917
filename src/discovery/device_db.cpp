#include "discovery/device_db.hpp"

namespace pdl::discovery {

const std::vector<SimDeviceSpec>& simulated_device_db() {
  // Datasheet parameters for the paper's testbed GPUs plus a few
  // contemporaries, so examples can target platforms the authors mention
  // (Cell-style accelerators are described in platforms/cell-be.pdl.xml).
  static const std::vector<SimDeviceSpec> db = {
      {
          // The paper's Listing 2 device and primary GPU (Fermi GF100).
          .name = "GeForce GTX 480",
          .compute_units = 15,
          .max_work_item_dims = 3,
          .global_mem_kb = 1572864,  // exactly the paper's Listing 2 value
          .local_mem_kb = 48,
          .clock_mhz = 1401,
          .compute_capability = "2.0",
          .multiprocessors = 15,
          .peak_dp_gflops = 168.0,  // GeForce Fermi: DP = 1/8 SP
          .dgemm_efficiency = 0.62,
          .pcie_bandwidth_gbs = 5.6,
          .pcie_latency_us = 12.0,
      },
      {
          // The paper's second GPU (GT200).
          .name = "GeForce GTX 285",
          .compute_units = 30,
          .max_work_item_dims = 3,
          .global_mem_kb = 1048576,
          .local_mem_kb = 16,
          .clock_mhz = 1476,
          .compute_capability = "1.3",
          .multiprocessors = 30,
          .peak_dp_gflops = 88.5,
          .dgemm_efficiency = 0.80,  // GT200 DGEMM runs close to its low DP peak
          .pcie_bandwidth_gbs = 5.2,
          .pcie_latency_us = 12.0,
      },
      {
          // A smaller contemporary for heterogeneity tests.
          .name = "Tesla C1060",
          .compute_units = 30,
          .max_work_item_dims = 3,
          .global_mem_kb = 4194304,
          .local_mem_kb = 16,
          .clock_mhz = 1296,
          .compute_capability = "1.3",
          .multiprocessors = 30,
          .peak_dp_gflops = 77.8,
          .dgemm_efficiency = 0.80,
          .pcie_bandwidth_gbs = 5.0,
          .pcie_latency_us = 12.0,
      },
  };
  return db;
}

const SimDeviceSpec* find_device(std::string_view name) {
  for (const auto& d : simulated_device_db()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

}  // namespace pdl::discovery
