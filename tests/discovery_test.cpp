#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "discovery/device_db.hpp"
#include "discovery/discovery.hpp"
#include "discovery/presets.hpp"
#include "pdl/diff.hpp"
#include "pdl/extension.hpp"
#include "pdl/parser.hpp"
#include "pdl/query.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "pdl/well_known.hpp"

namespace pdl::discovery {
namespace {

/// The paper testbed CPU: dual-socket 2.66 GHz Intel Xeon X5550 (quad-core).
HostCpuInfo paper_testbed_cpu() {
  HostCpuInfo cpu;
  cpu.model_name = "Intel Xeon X5550";
  cpu.vendor = "GenuineIntel";
  cpu.sockets = 2;
  cpu.physical_cores = 8;
  cpu.logical_cpus = 16;
  cpu.mhz = 2660.0;
  return cpu;
}

TEST(DeviceDb, ContainsPaperGpus) {
  const SimDeviceSpec* gtx480 = find_device("GeForce GTX 480");
  ASSERT_NE(gtx480, nullptr);
  // Exactly paper Listing 2's values.
  EXPECT_EQ(gtx480->compute_units, 15);
  EXPECT_EQ(gtx480->max_work_item_dims, 3);
  EXPECT_EQ(gtx480->global_mem_kb, 1572864);
  EXPECT_EQ(gtx480->local_mem_kb, 48);

  const SimDeviceSpec* gtx285 = find_device("GeForce GTX 285");
  ASSERT_NE(gtx285, nullptr);
  EXPECT_GT(gtx480->peak_dp_gflops, gtx285->peak_dp_gflops);
  EXPECT_EQ(find_device("GeForce 9999"), nullptr);
}

TEST(ParseCpuinfo, ExtractsTopology) {
  const char* kCpuinfo =
      "processor\t: 0\n"
      "vendor_id\t: GenuineIntel\n"
      "model name\t: Intel(R) Xeon(R) CPU X5550 @ 2.67GHz\n"
      "cpu MHz\t\t: 2660.000\n"
      "physical id\t: 0\n"
      "core id\t\t: 0\n"
      "\n"
      "processor\t: 1\n"
      "physical id\t: 0\n"
      "core id\t\t: 1\n"
      "\n"
      "processor\t: 2\n"
      "physical id\t: 1\n"
      "core id\t\t: 0\n"
      "\n"
      "processor\t: 3\n"
      "physical id\t: 1\n"
      "core id\t\t: 1\n";
  const HostCpuInfo info = parse_cpuinfo(kCpuinfo);
  EXPECT_EQ(info.vendor, "GenuineIntel");
  EXPECT_EQ(info.model_name, "Intel(R) Xeon(R) CPU X5550 @ 2.67GHz");
  EXPECT_EQ(info.logical_cpus, 4);
  EXPECT_EQ(info.sockets, 2);
  EXPECT_EQ(info.physical_cores, 4);  // 2 distinct (socket, core) per socket
  EXPECT_DOUBLE_EQ(info.mhz, 2660.0);
}

TEST(ParseCpuinfo, FallsBackGracefullyOnSparseInput) {
  const HostCpuInfo info = parse_cpuinfo("processor : 0\nprocessor : 1\n");
  EXPECT_EQ(info.logical_cpus, 2);
  EXPECT_EQ(info.physical_cores, 2);  // no core ids -> logical count
  EXPECT_EQ(info.sockets, 1);

  const HostCpuInfo empty = parse_cpuinfo("");
  EXPECT_EQ(empty.logical_cpus, 1);
}

TEST(ParseMeminfo, ReadsTotal) {
  EXPECT_EQ(parse_meminfo("MemTotal:       16384 kB\nMemFree: 1 kB\n").total_bytes,
            16384LL * 1024);
  EXPECT_EQ(parse_meminfo("nothing here").total_bytes, 0);
}

TEST(Discovery, HostPlatformIsValidPdl) {
  const Platform host = discover_host();
  Diagnostics diags;
  EXPECT_TRUE(validate(host, diags));
  EXPECT_TRUE(builtin_registry().validate_properties(host, diags));
  ASSERT_EQ(host.masters().size(), 1u);
  EXPECT_FALSE(host.masters()[0]->memory_regions().empty());
  // This test machine definitely has at least one core.
  EXPECT_GE(worker_count(host), 1);
}

TEST(Discovery, GpuWorkerCarriesListing2Properties) {
  const SimDeviceSpec* spec = find_device("GeForce GTX 480");
  auto worker = make_gpu_worker(*spec, "gpu0");
  const Descriptor& d = worker->descriptor();

  const Property* name = d.find(props::kOclDeviceName);
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->value, "GeForce GTX 480");
  EXPECT_EQ(name->xsi_type, props::kOclPropertyType);
  EXPECT_FALSE(name->fixed);  // generated at runtime -> unfixed, like the paper

  const Property* mem = d.find(props::kOclGlobalMemSize);
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->value, "1572864");
  EXPECT_EQ(mem->unit, "kB");

  EXPECT_NE(d.find(props::kCudaComputeCapability), nullptr);
  EXPECT_NE(d.find(props::kSustainedGflops), nullptr);
  ASSERT_EQ(worker->memory_regions().size(), 1u);
  EXPECT_TRUE(worker->in_group("gpu"));
}

TEST(Discovery, GpgpuPlatformWiresInterconnects) {
  const Platform p = make_gpgpu_platform(paper_testbed_cpu(), 8,
                                         {"GeForce GTX 480", "GeForce GTX 285"});
  Diagnostics diags;
  EXPECT_TRUE(validate(p, diags)) << diags.size();
  EXPECT_EQ(pus_with_property(p, props::kArchitecture, "gpu").size(), 2u);
  EXPECT_EQ(all_interconnects(p).size(), 2u);
  const Interconnect* ic = find_interconnect(p, "0", "gpu1");
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->type, "PCIe");
  EXPECT_TRUE(ic->descriptor.get_double(props::kIcBandwidthGBs).has_value());
}

TEST(Discovery, UnknownDevicesAreSkipped) {
  const Platform p = make_gpgpu_platform(paper_testbed_cpu(), 4, {"No Such GPU"});
  EXPECT_TRUE(pus_with_property(p, props::kArchitecture, "gpu").empty());
}

// Every preset platform must be structurally valid and schema-clean.
class PresetValidityTest : public testing::TestWithParam<int> {};

TEST_P(PresetValidityTest, PresetsAreValid) {
  Platform p = [&] {
    switch (GetParam()) {
      case 0: return paper_platform_single();
      case 1: return paper_platform_starpu_cpu();
      case 2: return paper_platform_starpu_2gpu();
      case 3: return cell_be_platform();
      default: return hierarchical_hybrid_platform();
    }
  }();
  Diagnostics diags;
  EXPECT_TRUE(validate(p, diags));
  EXPECT_TRUE(builtin_registry().validate_properties(p, diags));
  for (const auto& d : diags) {
    EXPECT_NE(d.severity, Severity::kError) << d.str();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetValidityTest, testing::Range(0, 5));

TEST(Presets, PaperTestbedShapes) {
  EXPECT_EQ(worker_count(paper_platform_single()), 0);
  EXPECT_EQ(worker_count(paper_platform_starpu_cpu()), 8);
  EXPECT_EQ(worker_count(paper_platform_starpu_2gpu()), 10);  // 8 cores + 2 gpus
  EXPECT_EQ(worker_count(cell_be_platform()), 8);

  const Platform gpu = paper_platform_starpu_2gpu();
  const ProcessingUnit* gpu1 = find_pu(gpu, "gpu1");
  ASSERT_NE(gpu1, nullptr);
  EXPECT_EQ(gpu1->descriptor().get(props::kModel), "GeForce GTX 480");
}

Platform shipped_file(const std::string& stem) {
  auto file = parse_platform_file(std::string(PDL_SOURCE_DIR) + "/platforms/" + stem +
                                  ".pdl.xml");
  EXPECT_TRUE(file.ok()) << stem << ": " << file.error().str();
  return file.ok() ? std::move(file).value() : Platform();
}

/// `serialize` with the namespace declarations in one order.
std::string serialize_sorted(Platform& platform) {
  std::sort(platform.namespaces().begin(), platform.namespaces().end());
  return serialize(platform);
}

// Each builder returns exactly the platform its file in platforms/ describes.
TEST(Presets, BuildersMatchTheShippedFiles) {
  std::vector<std::pair<std::string, Platform>> presets;
  presets.emplace_back("testbed-single", paper_platform_single());
  presets.emplace_back("testbed-starpu", paper_platform_starpu_cpu());
  presets.emplace_back("testbed-starpu-2gpu", paper_platform_starpu_2gpu());
  presets.emplace_back("cell-be", cell_be_platform());
  presets.emplace_back("manycore-1k", manycore_platform());
  presets.emplace_back("hierarchical", hierarchical_hybrid_platform());
  for (auto& [stem, built] : presets) {
    SCOPED_TRACE(stem);
    Platform file = shipped_file(stem);
    const std::vector<DiffEntry> entries = diff(file, built);
    EXPECT_TRUE(entries.empty()) << to_string(entries);
    EXPECT_EQ(serialize_sorted(built), serialize_sorted(file));
  }

  // The worker count is the one thing manycore_platform changes.
  const Platform seven = manycore_platform(7);
  const ProcessingUnit* minion = find_pu(seven, "minion");
  ASSERT_NE(minion, nullptr);
  EXPECT_EQ(minion->quantity(), 7);
  const std::vector<DiffEntry> entries = diff(shipped_file("manycore-1k"), seven);
  ASSERT_EQ(entries.size(), 1u) << to_string(entries);
  EXPECT_EQ(entries[0].kind, DiffKind::kQuantityChanged);
  EXPECT_EQ(entries[0].pu_path, minion->path());
  EXPECT_EQ(entries[0].before, "1088");
  EXPECT_EQ(entries[0].after, "7");
}

}  // namespace
}  // namespace pdl::discovery
