// Tests for the schedule-aware capacity & interference analysis (A5xx):
// the schedule plan read off the engine's pure-sim run (schedule_sim), the
// capacity rules (capacity), the SARIF 2.1.0 renderer (sarif), the
// task-graph fixture format (graph_io), and the rule-id suggestion helper —
// including the committed undersized-platform / oversubscribed-DAG pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/capacity.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/profile.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "analysis/sarif.hpp"
#include "analysis/schedule_sim.hpp"
#include "json_checker.hpp"
#include "pdl/parser.hpp"

namespace analysis {
namespace {

const pdl::Diagnostic* find_finding(const pdl::Diagnostics& diags,
                                    std::string_view rule,
                                    std::string_view message_part = "") {
  for (const auto& d : diags) {
    if (d.rule == rule &&
        (message_part.empty() ||
         d.message.find(message_part) != std::string::npos)) {
      return &d;
    }
  }
  return nullptr;
}

std::size_t count_rule(const pdl::Diagnostics& diags, std::string_view rule) {
  std::size_t n = 0;
  for (const auto& d : diags) n += d.rule == rule ? 1 : 0;
  return n;
}

pdl::Platform parse(std::string_view xml) {
  auto platform = pdl::parse_platform(xml);
  EXPECT_TRUE(platform.ok()) << (platform.ok() ? "" : platform.error().str());
  return std::move(platform).value();
}

/// One CPU worker (2 cores at 10 GFLOPS) — everything runs on the host.
constexpr const char* kCpuOnlyPlatform = R"(<?xml version="1.0"?>
<Platform name="cpu-only" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
      <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>10</value></Property>
    </PUDescriptor>
    <MemoryRegion id="mr_host">
      <MRDescriptor>
        <Property fixed="true"><name>SIZE</name><value unit="MB">64</value></Property>
      </MRDescriptor>
    </MemoryRegion>
    <Worker id="cores" quantity="2">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>x86_core</value></Property>
      </PUDescriptor>
    </Worker>
  </Master>
</Platform>)";

/// One fast accelerator (1 MB local memory) behind a slow declared link.
constexpr const char* kAccelPlatform = R"(<?xml version="1.0"?>
<Platform name="accel" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
      <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>8</value></Property>
    </PUDescriptor>
    <MemoryRegion id="mr_host">
      <MRDescriptor>
        <Property fixed="true"><name>SIZE</name><value unit="MB">64</value></Property>
      </MRDescriptor>
    </MemoryRegion>
    <Worker id="acc" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
        <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>500</value></Property>
      </PUDescriptor>
      <MemoryRegion id="mr_acc">
        <MRDescriptor>
          <Property fixed="true"><name>SIZE</name><value unit="MB">1</value></Property>
        </MRDescriptor>
      </MemoryRegion>
    </Worker>
    <Interconnect type="PCIe" from="m" to="acc" scheme="rDMA">
      <ICDescriptor>
        <Property fixed="true"><name>BANDWIDTH_GB_S</name><value>0.1</value></Property>
        <Property fixed="true"><name>LATENCY_US</name><value>5</value></Property>
      </ICDescriptor>
    </Interconnect>
  </Master>
</Platform>)";

/// Like kAccelPlatform but the Interconnect is missing (A502 territory).
constexpr const char* kAccelNoLinkPlatform = R"(<?xml version="1.0"?>
<Platform name="accel-nolink" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
    <Worker id="acc" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
        <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>500</value></Property>
      </PUDescriptor>
    </Worker>
  </Master>
</Platform>)";

// --- Schedule simulation ------------------------------------------------------

TEST(ScheduleSim, EmptyGraphYieldsEmptyPlan) {
  const pdl::Platform platform = parse(kCpuOnlyPlatform);
  starvm::TaskGraph graph;
  const SchedulePlan plan = simulate_schedule(graph, platform);
  EXPECT_EQ(plan.devices.size(), 2u);
  EXPECT_EQ(plan.makespan_seconds, 0.0);
  EXPECT_TRUE(plan.placements.empty());
  EXPECT_TRUE(plan.critical_path.empty());
}

TEST(ScheduleSim, IndependentTasksSpreadAcrossDevices) {
  const pdl::Platform platform = parse(kCpuOnlyPlatform);
  starvm::TaskGraph graph;
  const int b0 = graph.add_buffer("b0", 1024);
  const int b1 = graph.add_buffer("b1", 1024);
  graph.add_task("t0", {{b0, starvm::Access::kReadWrite}});
  graph.add_task("t1", {{b1, starvm::Access::kReadWrite}});
  const SchedulePlan plan = simulate_schedule(graph, platform);
  ASSERT_EQ(plan.placements.size(), 2u);
  // Two independent tasks on two idle CPUs: one each, starting at zero.
  EXPECT_NE(plan.placements[0].device, plan.placements[1].device);
  EXPECT_EQ(plan.placements[0].start_seconds, 0.0);
  EXPECT_EQ(plan.placements[1].start_seconds, 0.0);
  // No transfers on the host: CPUs share the host space.
  EXPECT_EQ(plan.placements[0].transfer_bytes, 0u);
  EXPECT_EQ(plan.placements[1].transfer_bytes, 0u);
}

TEST(ScheduleSim, DependencyChainSerializesAndSetsCriticalPath) {
  const pdl::Platform platform = parse(kCpuOnlyPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 1024);
  const int t0 = graph.add_task("t0", {{b, starvm::Access::kWrite}});
  graph.add_task("t1", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t0, 1e9);  // 1 GFLOP at the declared 10 GFLOPS
  const SchedulePlan plan = simulate_schedule(graph, platform);
  ASSERT_EQ(plan.placements.size(), 2u);
  EXPECT_GE(plan.placements[1].start_seconds, plan.placements[0].finish_seconds);
  ASSERT_EQ(plan.critical_path.size(), 2u);
  EXPECT_EQ(plan.critical_path[0], 0);
  EXPECT_EQ(plan.critical_path[1], 1);
  EXPECT_GT(plan.critical_path_seconds, 0.0);
  EXPECT_LE(plan.critical_path_seconds, plan.makespan_seconds + 1e-12);
}

TEST(ScheduleSim, TransfersChargedOntoAcceleratorLink) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("big", 2 * 1000 * 1000);
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e6);  // cheap compute, so the accelerator wins
  const SchedulePlan plan = simulate_schedule(graph, platform);
  ASSERT_EQ(plan.placements.size(), 1u);
  const TaskPlacement& p = plan.placements[0];
  ASSERT_GE(p.device, 0);
  EXPECT_FALSE(plan.devices[p.device].is_cpu);
  EXPECT_EQ(p.transfer_bytes, 2u * 1000 * 1000);
  // 2 MB at 0.1 GB/s + 5 us latency = 20.005 ms.
  EXPECT_NEAR(p.transfer_seconds, 0.020005, 1e-9);
  ASSERT_EQ(plan.interconnects.size(), 1u);
  EXPECT_EQ(plan.interconnects[0].transfers, 1);
  // Peak footprint lands in the accelerator's space.
  bool found = false;
  for (const SimMemorySpace& space : plan.spaces) {
    if (space.label.find("mr_acc") != std::string::npos) {
      EXPECT_EQ(space.peak_bytes, 2u * 1000 * 1000);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScheduleSim, ResidentBufferIsNotTransferredTwice) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("big", 2 * 1000 * 1000);
  const int t0 = graph.add_task("t0", {{b, starvm::Access::kReadWrite}});
  const int t1 = graph.add_task("t1", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t0, 1e6);
  graph.set_task_flops(t1, 1e6);
  const SchedulePlan plan = simulate_schedule(graph, platform);
  ASSERT_EQ(plan.placements.size(), 2u);
  // t1 runs where the data already is: no second transfer.
  EXPECT_EQ(plan.placements[1].device, plan.placements[0].device);
  EXPECT_EQ(plan.placements[1].transfer_bytes, 0u);
}

TEST(ScheduleSim, MasterFallbackWhenNoWorkers) {
  const pdl::Platform platform = parse(R"(<?xml version="1.0"?>
<Platform name="single" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
  </Master>
</Platform>)");
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 64);
  graph.add_task("t", {{b, starvm::Access::kRead}});
  const SchedulePlan plan = simulate_schedule(graph, platform);
  ASSERT_EQ(plan.devices.size(), 1u);
  EXPECT_EQ(plan.devices[0].name, "master:m");
  EXPECT_EQ(plan.placements[0].device, 0);
}

TEST(ScheduleSim, DeterministicAcrossRuns) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b0 = graph.add_buffer("b0", 500 * 1000);
  const int b1 = graph.add_buffer("b1", 500 * 1000);
  const int t0 = graph.add_task("t0", {{b0, starvm::Access::kReadWrite}});
  const int t1 =
      graph.add_task("t1", {{b1, starvm::Access::kReadWrite}}, {t0});
  graph.set_task_flops(t0, 1e8);
  graph.set_task_flops(t1, 1e8);
  const SchedulePlan a = simulate_schedule(graph, platform);
  const SchedulePlan b = simulate_schedule(graph, platform);
  EXPECT_EQ(render_plan_text(a, graph), render_plan_text(b, graph));
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
}

TEST(ScheduleSim, PlanIsTheEngineRunOnEveryFixturePair) {
  // One schedule model: on every committed graph x platform pair the plan
  // reports exactly the makespan and the placements of the runtime's own
  // pure-sim run.
  const std::string root = PDL_SOURCE_DIR;
  std::vector<std::string> graphs;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/tests/fixtures")) {
    if (entry.path().extension() == ".graph") {
      graphs.push_back(entry.path().string());
    }
  }
  std::sort(graphs.begin(), graphs.end());
  ASSERT_GE(graphs.size(), 6u);
  const std::vector<std::string> platforms = {
      root + "/tests/fixtures/undersized.pdl.xml",
      root + "/tests/fixtures/fp32-testbed.pdl.xml",
      root + "/platforms/testbed-starpu-2gpu.pdl.xml",
      root + "/platforms/cell-be.pdl.xml",
      root + "/platforms/hierarchical.pdl.xml"};
  for (const std::string& platform_path : platforms) {
    pdl::Diagnostics parse_diags;
    auto platform = pdl::parse_platform_file(platform_path, parse_diags);
    ASSERT_TRUE(platform.ok()) << platform_path;
    for (const std::string& graph_path : graphs) {
      SCOPED_TRACE(graph_path + " on " + platform_path);
      auto graph = load_graph_file(graph_path);
      ASSERT_TRUE(graph.ok()) << graph.error().str();
      const SchedulePlan plan =
          simulate_schedule(graph.value(), platform.value());
      auto run = run_graph_on_platform(graph.value(), platform.value());
      ASSERT_TRUE(run.ok()) << run.error().str();
      EXPECT_EQ(plan.makespan_seconds, run.value().makespan_seconds);
      ASSERT_EQ(run.value().trace.size(), graph.value().tasks().size());
      for (const starvm::TaskTrace& t : run.value().trace) {
        EXPECT_EQ(plan.placements[static_cast<std::size_t>(t.id - 1)].device,
                  t.device)
            << t.label;
      }
    }
  }
}

/// `n` GPU instances behind one declared link.
std::string gpu_farm_platform(int n) {
  return R"(<?xml version="1.0"?>
<Platform name="gpu-farm" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
    <Worker id="gpu" quantity=")" +
         std::to_string(n) + R"(">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
      </PUDescriptor>
    </Worker>
    <Interconnect type="PCIe" from="m" to="gpu" scheme="rDMA"/>
  </Master>
</Platform>)";
}

TEST(ScheduleSim, PlatformTheRuntimeRefusesYieldsADiagnostic) {
  // One memory node per accelerator plus the host's must fit the engine's
  // 64-bit replica mask: 64 GPU instances are one too many.
  const pdl::Platform platform = parse(gpu_farm_platform(64));
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 1024);
  graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  pdl::Diagnostics diags;
  const SchedulePlan plan = analyze_schedule(graph, platform, {}, diags);
  EXPECT_NE(plan.failure.find("63 accelerator memory nodes"),
            std::string::npos)
      << plan.failure;
  EXPECT_TRUE(plan.devices.empty());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, pdl::Severity::kError);
  EXPECT_NE(diags[0].message.find("63 accelerator memory nodes"),
            std::string::npos)
      << diags[0].message;
  EXPECT_NE(render_plan_text(plan, graph).find("63 accelerator"),
            std::string::npos);

  // One fewer fits.
  pdl::Diagnostics fits;
  const SchedulePlan ok = analyze_schedule(graph, parse(gpu_farm_platform(63)),
                                           {}, fits);
  EXPECT_TRUE(ok.failure.empty()) << ok.failure;
  EXPECT_EQ(ok.devices.size(), 63u);
}

// --- A5xx rules ---------------------------------------------------------------

TEST(AnalyzeSchedule, A501_FiresWhenWorkingSetExceedsCapacity) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("big", 2 * 1000 * 1000);  // 2 MB into 1 MB
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e6);
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  const pdl::Diagnostic* d =
      find_finding(diags, kMemoryCapacityExceeded, "mr_acc");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
  EXPECT_NE(d->message.find("2000000 B"), std::string::npos);
}

TEST(AnalyzeSchedule, A501_SilentWhenWorkingSetFits) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("small", 100 * 1000);  // 100 kB into 1 MB
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e12);  // compute-heavy: accelerator wins
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  EXPECT_EQ(count_rule(diags, kMemoryCapacityExceeded), 0u);
}

TEST(AnalyzeSchedule, A502_FiresOnTransfersWithoutDeclaredLink) {
  const pdl::Platform platform = parse(kAccelNoLinkPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 1000 * 1000);
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e12);  // lands on the (fast) linkless accelerator
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kNoTransferPath, "acc");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
}

TEST(AnalyzeSchedule, A503_FiresWhenTransferDominatesCompute) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("big", 2 * 1000 * 1000);
  const int t = graph.add_task("stream", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e6);
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kTransferBoundTask, "stream");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("transfers dominate"), std::string::npos);
}

TEST(AnalyzeSchedule, A503_SilentForComputeBoundTask) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("small", 1000);
  const int t = graph.add_task("crunch", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e12);  // 2 s of compute vs ~15 us of transfer
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  EXPECT_EQ(count_rule(diags, kTransferBoundTask), 0u);
}

TEST(AnalyzeSchedule, A504_FiresWhenDeviceStarvedBySerialChain) {
  // A serial chain that lives entirely on the fast accelerator (once the
  // data is there) while a deliberately slow CPU worker never receives a
  // task: the CPU idles through a makespan inflated far over the
  // critical-path bound by the slow link.
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 2 * 1000 * 1000);
  int prev = -1;
  for (int i = 0; i < 8; ++i) {
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    prev = graph.add_task("t" + std::to_string(i),
                          {{b, starvm::Access::kReadWrite}}, deps);
    graph.set_task_flops(prev, 1e6);
  }
  const pdl::Platform both = parse(R"(<?xml version="1.0"?>
<Platform name="cpu-plus-accel" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
    <Worker id="cpu" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>x86_core</value></Property>
        <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>0.001</value></Property>
      </PUDescriptor>
    </Worker>
    <Worker id="acc" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
        <Property fixed="true"><name>SUSTAINED_GFLOPS</name><value>500</value></Property>
      </PUDescriptor>
      <MemoryRegion id="mr_acc">
        <MRDescriptor>
          <Property fixed="true"><name>SIZE</name><value unit="MB">64</value></Property>
        </MRDescriptor>
      </MemoryRegion>
    </Worker>
    <Interconnect type="PCIe" from="m" to="acc" scheme="rDMA">
      <ICDescriptor>
        <Property fixed="true"><name>BANDWIDTH_GB_S</name><value>0.01</value></Property>
        <Property fixed="true"><name>LATENCY_US</name><value>5</value></Property>
      </ICDescriptor>
    </Interconnect>
  </Master>
</Platform>)");
  pdl::Diagnostics diags2;
  analyze_schedule(graph, both, {}, diags2);
  const pdl::Diagnostic* d = find_finding(diags2, kLoadImbalance, "cpu");
  ASSERT_NE(d, nullptr) << render_text(diags2);
  EXPECT_NE(d->message.find("idle"), std::string::npos);
}

TEST(AnalyzeSchedule, A504_SilentWhenScheduleIsBalanced) {
  const pdl::Platform platform = parse(kCpuOnlyPlatform);
  starvm::TaskGraph graph;
  for (int i = 0; i < 8; ++i) {
    const int b = graph.add_buffer("b" + std::to_string(i), 1024);
    graph.add_task("t" + std::to_string(i), {{b, starvm::Access::kReadWrite}});
  }
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  EXPECT_EQ(count_rule(diags, kLoadImbalance), 0u);
}

TEST(AnalyzeSchedule, A505_FiresOnSharedLinkContention) {
  pdl::Diagnostics parse_diags;
  auto platform = pdl::parse_platform_file(
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/undersized.pdl.xml",
      parse_diags);
  ASSERT_TRUE(platform.ok());
  auto graph = load_graph_file(std::string(PDL_SOURCE_DIR) +
                               "/tests/fixtures/oversubscribed.graph");
  ASSERT_TRUE(graph.ok()) << graph.error().str();
  pdl::Diagnostics diags;
  analyze_schedule(graph.value(), platform.value(), {}, diags);
  pdl::normalize(diags);
  // The committed fixture pair fires all three headline rules.
  EXPECT_EQ(count_rule(diags, kMemoryCapacityExceeded), 2u)
      << render_text(diags);
  EXPECT_EQ(count_rule(diags, kTransferBoundTask), 4u) << render_text(diags);
  EXPECT_EQ(count_rule(diags, kInterconnectOversubscribed), 1u)
      << render_text(diags);
  const pdl::Diagnostic* d = find_finding(diags, kInterconnectOversubscribed);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("overlapping transfers"), std::string::npos);
}

TEST(AnalyzeSchedule, A505_SilentWithoutOverlap) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("b", 1000 * 1000);
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e6);
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, {}, diags);
  EXPECT_EQ(count_rule(diags, kInterconnectOversubscribed), 0u);
}

TEST(AnalyzeSchedule, RespectsRuleOptionsLikeOtherFamilies) {
  const pdl::Platform platform = parse(kAccelPlatform);
  starvm::TaskGraph graph;
  const int b = graph.add_buffer("big", 2 * 1000 * 1000);
  const int t = graph.add_task("t", {{b, starvm::Access::kReadWrite}});
  graph.set_task_flops(t, 1e6);

  AnalysisOptions off;
  off.disabled.insert(kMemoryCapacityExceeded);
  off.disabled.insert(kTransferBoundTask);
  pdl::Diagnostics diags;
  analyze_schedule(graph, platform, off, diags);
  EXPECT_EQ(count_rule(diags, kMemoryCapacityExceeded), 0u);
  EXPECT_EQ(count_rule(diags, kTransferBoundTask), 0u);

  AnalysisOptions demote;
  demote.severity_overrides[kMemoryCapacityExceeded] = pdl::Severity::kInfo;
  pdl::Diagnostics diags2;
  analyze_schedule(graph, platform, demote, diags2);
  const pdl::Diagnostic* d = find_finding(diags2, kMemoryCapacityExceeded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kInfo);
}

// --- Rule catalog additions ---------------------------------------------------

TEST(RuleCatalogA5xx, CatalogAndSuggestions) {
  ASSERT_NE(find_rule("A501"), nullptr);
  ASSERT_NE(find_rule("A505-interconnect-oversubscribed"), nullptr);
  EXPECT_EQ(find_rule("A501")->default_severity, pdl::Severity::kError);
  EXPECT_EQ(find_rule("A503")->default_severity, pdl::Severity::kWarning);

  // Bare-number typo suggests the bare number; full-id typo the full id.
  EXPECT_EQ(suggest_rule("A510"), "A501");
  EXPECT_EQ(suggest_rule("A403-partiton-aliasing"), "A403-partition-aliasing");
  // Nothing plausibly close: stay silent rather than mislead.
  EXPECT_EQ(suggest_rule("completely-unrelated-rule-name-xyz"), "");
}

// --- SARIF renderer -----------------------------------------------------------

TEST(Sarif, ValidJsonWithRulesAndLocations) {
  pdl::Diagnostics diags;
  pdl::add_finding(diags, pdl::Severity::kError, kMemoryCapacityExceeded,
                   "peak 2 MB over 1 MB", pdl::SourceLoc{"p.xml", 46, 7},
                   "0/acc");
  pdl::add_finding(diags, pdl::Severity::kWarning, kTransferBoundTask,
                   "quote \" newline \n non-ascii \xc3\xa9",
                   pdl::SourceLoc{"g.graph", 11, 1}, "t0");
  const std::string sarif = render_sarif(diags);
  const testjson::ParseResult parsed = testjson::parse(sarif);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "2.1.0"));
  EXPECT_TRUE(testjson::contains_string(parsed, kMemoryCapacityExceeded));
  EXPECT_TRUE(testjson::contains_string(parsed, "pdlcheck"));
  EXPECT_TRUE(
      testjson::contains_string(parsed, "quote \" newline \n non-ascii \xc3\xa9"));
  // Severity mapping: error -> error, warning -> warning.
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":46"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\":7"), std::string::npos);
}

TEST(Sarif, EmptyFindingsStillValid) {
  const pdl::Diagnostics diags;
  const testjson::ParseResult parsed = testjson::parse(render_sarif(diags));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(render_sarif(diags).find("\"results\":[]"), std::string::npos);
}

TEST(Sarif, InfoMapsToNoteAndAdHocDiagnosticsKeepNoRuleId) {
  pdl::Diagnostics diags;
  pdl::add_info(diags, "just a note");
  const std::string sarif = render_sarif(diags);
  const testjson::ParseResult parsed = testjson::parse(sarif);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(sarif.find("\"level\":\"note\""), std::string::npos);
  EXPECT_EQ(sarif.find("ruleId"), std::string::npos);
}

// --- Task-graph fixture format ------------------------------------------------

TEST(GraphIo, ParsesBuffersTasksAndOptions) {
  auto graph = parse_graph_text(R"(# comment
buffer a 2MB
buffer b 64kB 0   # placed at an explicit base
task t0 write=a flops=1e6
task t1 read=a rw=b after=t0
)");
  ASSERT_TRUE(graph.ok()) << graph.error().str();
  const starvm::TaskGraph& g = graph.value();
  ASSERT_EQ(g.buffers().size(), 2u);
  EXPECT_EQ(g.buffers()[0].bytes, 2u * 1000 * 1000);
  EXPECT_EQ(g.buffers()[1].bytes, 64u * 1000);
  EXPECT_EQ(g.buffers()[1].base, 0u);
  ASSERT_EQ(g.tasks().size(), 2u);
  EXPECT_EQ(g.tasks()[0].flops, 1e6);
  ASSERT_EQ(g.tasks()[1].accesses.size(), 2u);
  EXPECT_EQ(g.tasks()[1].accesses[0].mode, starvm::Access::kRead);
  EXPECT_EQ(g.tasks()[1].accesses[1].mode, starvm::Access::kReadWrite);
  ASSERT_EQ(g.tasks()[1].declared_deps.size(), 1u);
  EXPECT_EQ(g.tasks()[1].declared_deps[0], 0);
  // SourceLocs carry file:line for diagnostics.
  EXPECT_EQ(g.tasks()[0].loc.line, 4);
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_FALSE(parse_graph_text("buffer x\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer x nan\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer x 1\nbuffer x 1\n").ok());
  EXPECT_FALSE(parse_graph_text("task t read=missing\n").ok());
  EXPECT_FALSE(parse_graph_text("task t after=missing\n").ok());
  EXPECT_FALSE(parse_graph_text("task t bogus=1\n").ok());
  EXPECT_FALSE(parse_graph_text("task t flops=-1\n").ok());
  EXPECT_FALSE(parse_graph_text("frobnicate\n").ok());
  // Error messages carry file:line.
  const auto bad = parse_graph_text("buffer ok 1\nbuffer ok 1\n", "f.graph");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().where, "f.graph:2");
}

TEST(GraphIo, RejectsWrappingExplicitBase) {
  const auto wrapped =
      parse_graph_text("buffer x 2 18446744073709551615\n");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.error().message.find("wraps"), std::string::npos);
}

}  // namespace
}  // namespace analysis
