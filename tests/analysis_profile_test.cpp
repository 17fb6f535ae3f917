// Critical-path profiler tests: span attribution from a hand-built trace,
// the backward critical-path walk (dependency vs device edges), rate-drift
// aggregation across "name[i]" instances, and the end-to-end fixture run
// (dgemm_pipeline.graph on undersized.pdl.xml) through
// run_graph_on_platform, whose makespan the schedule plan reports too.
#include <gtest/gtest.h>

#include <string>

#include "analysis/graph_io.hpp"
#include "analysis/profile.hpp"
#include "analysis/schedule_sim.hpp"
#include "pdl/parser.hpp"
#include "starvm/stats.hpp"

namespace analysis {
namespace {

/// Two devices, three tasks: t1 and t2 race on separate devices, t3 waits
/// for t2 (dependency edge) and then runs on device 0 behind t1 (device
/// edge would apply if it were queued earlier). 10 us per-task overhead.
starvm::EngineStats sample_stats() {
  starvm::EngineStats stats;
  stats.task_overhead_us = 10.0;  // 1e-5 s

  starvm::DeviceStats d0;
  d0.name = "cpu0";
  d0.declared_gflops = 10.0;
  starvm::DeviceStats d1;
  d1.name = "acc1";
  d1.declared_gflops = 100.0;
  stats.devices = {d0, d1};

  // TaskTrace: {id, label, device, start, finish, transfer, exec, flops,
  //             ready}.
  // t1: cpu0, ready 0, start 1e-5, finish 1e-3 (exec fills the span).
  stats.trace.push_back({1, "gemm[0]", 0, 1e-5, 1e-3, 0.0, 0.99e-3, 9.9e3, 0.0});
  // t2: acc1, ready 0, start 1e-5, finish 2e-3 — the longer branch.
  stats.trace.push_back(
      {2, "gemm[1]", 1, 1e-5, 2e-3, 0.49e-3, 1.5e-3, 1.5e5, 0.0});
  // t3: cpu0, ready when t2 finished (2e-3), dispatched immediately.
  stats.trace.push_back(
      {3, "reduce", 0, 2e-3 + 1e-5, 3e-3, 0.0, 0.99e-3, 9.9e3, 2e-3});
  stats.makespan_seconds = 3e-3;
  stats.tasks_completed = 3;
  return stats;
}

TEST(Profile, AttributesSpansAndFindsCriticalPath) {
  const RunProfile profile = profile_run(sample_stats());
  ASSERT_EQ(profile.tasks.size(), 3u);
  EXPECT_DOUBLE_EQ(profile.makespan_seconds, 3e-3);

  const TaskProfile& t3 = profile.tasks[2];
  EXPECT_EQ(t3.label, "reduce");
  EXPECT_NEAR(t3.overhead_seconds, 1e-5, 1e-12);
  EXPECT_NEAR(t3.queue_wait_seconds, 0.0, 1e-9);
  EXPECT_NEAR(t3.compute_seconds, 0.99e-3, 1e-12);
  // Attribution invariant: the span decomposes without residue.
  for (const TaskProfile& t : profile.tasks) {
    EXPECT_NEAR(t.finish_seconds - t.ready_seconds,
                t.queue_wait_seconds + t.overhead_seconds +
                    t.transfer_seconds + t.compute_seconds,
                1e-9)
        << t.label;
  }

  // Measured critical path: t2 (start) -> t3 (dependency edge).
  ASSERT_EQ(profile.critical_path.size(), 2u);
  EXPECT_EQ(profile.critical_path[0].edge, CriticalEdge::kStart);
  EXPECT_EQ(profile.tasks[profile.critical_path[0].task].id, 2u);
  EXPECT_EQ(profile.critical_path[1].edge, CriticalEdge::kDependency);
  EXPECT_EQ(profile.tasks[profile.critical_path[1].task].id, 3u);
  EXPECT_TRUE(profile.tasks[1].on_critical_path);
  EXPECT_TRUE(profile.tasks[2].on_critical_path);
  EXPECT_FALSE(profile.tasks[0].on_critical_path);
}

TEST(Profile, DeviceEdgeWhenPredecessorHoldsTheDevice) {
  starvm::EngineStats stats;
  stats.task_overhead_us = 0.0;
  starvm::DeviceStats d0;
  d0.name = "cpu0";
  stats.devices = {d0};
  // Both ready at 0 on one device; the second waits for the first.
  stats.trace.push_back({1, "a", 0, 0.0, 1e-3, 0.0, 1e-3, 0.0, 0.0});
  stats.trace.push_back({2, "b", 0, 1e-3, 2e-3, 0.0, 1e-3, 0.0, 0.0});
  stats.makespan_seconds = 2e-3;

  const RunProfile profile = profile_run(stats);
  ASSERT_EQ(profile.critical_path.size(), 2u);
  EXPECT_EQ(profile.critical_path[1].edge, CriticalEdge::kDevice);
  EXPECT_NEAR(profile.tasks[1].queue_wait_seconds, 1e-3, 1e-9);
  EXPECT_NEAR(profile.critical_queue_wait_seconds, 1e-3, 1e-9);
  EXPECT_NEAR(profile.critical_compute_seconds, 2e-3, 1e-9);
}

TEST(Profile, DriftAggregatesInstancesPerCodeletAndDevice) {
  const RunProfile profile = profile_run(sample_stats());
  // gemm[0] and gemm[1] collapse to one "gemm" codelet, split by device.
  ASSERT_EQ(profile.drift.size(), 3u);
  EXPECT_EQ(profile.drift[0].label, "gemm");
  EXPECT_EQ(profile.drift[0].device, 0);
  EXPECT_NEAR(profile.drift[0].measured_gflops, 9.9e3 / 0.99e-3 / 1e9, 1e-9);
  EXPECT_NEAR(profile.drift[0].drift_ratio, 1e-3, 1e-9);  // vs declared 10
  EXPECT_EQ(profile.drift[1].label, "gemm");
  EXPECT_EQ(profile.drift[1].device, 1);
  EXPECT_EQ(profile.drift[2].label, "reduce");
  EXPECT_EQ(profile.drift[2].tasks, 1u);

  const std::string text = render_profile_text(profile);
  EXPECT_NE(text.find("measured critical path"), std::string::npos);
  EXPECT_NE(text.find("rate drift"), std::string::npos);
  EXPECT_NE(text.find("gemm @ cpu0"), std::string::npos);
}

TEST(Profile, StoreRatesAnnotateMatchingDriftRows) {
  starvm::EngineStats stats = sample_stats();
  stats.devices[0].class_key = 0xa;
  stats.devices[1].class_key = 0xb;
  RunProfile profile = profile_run(stats);
  starvm::perf_store::Store store;
  // Matches the "gemm @ device 0" row only, by device 0's class; "gemm @
  // device 1" and "reduce" have no learned cell and must stay unannotated.
  store.entries = {{"gemm", 0xa, 1e-3, 6, 5.0}};
  apply_store_rates(profile, stats, store);

  ASSERT_EQ(profile.drift.size(), 3u);
  EXPECT_NEAR(profile.drift[0].store_gflops, 5.0, 1e-12);
  EXPECT_NEAR(profile.drift[0].store_drift_ratio,
              profile.drift[0].measured_gflops / 5.0, 1e-9);
  EXPECT_EQ(profile.drift[1].store_gflops, 0.0);
  EXPECT_EQ(profile.drift[2].store_gflops, 0.0);

  const std::string text = render_profile_text(profile);
  EXPECT_NE(text.find("store 5.00 GFLOPS"), std::string::npos);
}

TEST(Profile, RunsFixtureGraphOnFixturePlatform) {
  const std::string root = PDL_SOURCE_DIR;
  auto graph = load_graph_file(root + "/tests/fixtures/dgemm_pipeline.graph");
  ASSERT_TRUE(graph.ok()) << graph.error().str();
  auto platform = pdl::parse_platform_file(
      root + "/tests/fixtures/undersized.pdl.xml");
  ASSERT_TRUE(platform.ok()) << platform.error().str();

  auto stats = run_graph_on_platform(graph.value(), platform.value());
  ASSERT_TRUE(stats.ok()) << stats.error().str();
  EXPECT_EQ(stats.value().tasks_completed, 5u);
  EXPECT_EQ(stats.value().failed_tasks, 0u);
  EXPECT_GT(stats.value().makespan_seconds, 0.0);
  EXPECT_GT(stats.value().flight_records, 0u);

  const RunProfile profile = profile_run(stats.value());
  ASSERT_EQ(profile.tasks.size(), 5u);
  ASSERT_FALSE(profile.critical_path.empty());
  // The reduce task depends on every tile, so the measured critical path
  // must end on it.
  const TaskProfile& last =
      profile.tasks[static_cast<std::size_t>(profile.critical_path.back().task)];
  EXPECT_EQ(last.label, "reduce");

  // One schedule model: the A5xx plan is read off this very run.
  const SchedulePlan plan = simulate_schedule(graph.value(), platform.value());
  EXPECT_EQ(plan.makespan_seconds, profile.makespan_seconds);
}

}  // namespace
}  // namespace analysis
