#include <gtest/gtest.h>

#include "starvm/engine.hpp"
#include "starvm/perf_model.hpp"

namespace starvm {
namespace {

TEST(PerfModel, AnalyticFallbackUsesFlopsAndRate) {
  PerfModel model({1});
  // 1e9 flops at 10 GFLOPS -> 0.1 s.
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 10.0), 0.1);
}

TEST(PerfModel, DefaultEstimateWithoutAnyInformation) {
  PerfModel model({1});
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, std::nullopt, 10.0), 1e-3);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 0.0), 1e-3);
}

TEST(PerfModel, KnownZeroWorkTakesNoTime) {
  PerfModel model({1});
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 0.0, 0.0), 0.0);
  // Not even after the cell has learned a time.
  PerfModel::observe_in(model.row("k"), 0, 0.5);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 0.0, 10.0), 0.0);
}

TEST(PerfModel, HistoryOverridesAnalytic) {
  PerfModel model({1});
  PerfModel::observe_in(model.row("k"), 0, 0.5);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 10.0), 0.5);
  EXPECT_EQ(model.samples("k", 0), 1u);
}

TEST(PerfModel, MeasuredRatePricesATaskByItsWork) {
  PerfModel model({1});
  PerfModel::Cell* row = model.row("k");
  // 2e9 flops in 0.2 s: 10 GFLOPS measured.
  PerfModel::observe_in(row, 0, 0.2, 2e9);
  // A task a hundred times smaller takes a hundredth of the time, not the
  // last task's 0.2 s.
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 2e7, 99.0), 2e-3);
  // Work no flops model describes still reads the smoothed time.
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, std::nullopt, 99.0), 0.2);
}

TEST(PerfModel, EmaConvergesTowardRecentObservations) {
  PerfModel model({1});
  PerfModel::Cell* row = model.row("k");
  PerfModel::observe_in(row, 0, 1.0);
  for (int i = 0; i < 50; ++i) PerfModel::observe_in(row, 0, 0.1);
  EXPECT_NEAR(model.estimate("k", 0, std::nullopt, 0), 0.1, 0.01);
  EXPECT_EQ(model.samples("k", 0), 51u);
}

TEST(PerfModel, HistoriesAreKeyedPerCodeletAndDevice) {
  // One cell per (codelet, device class); the classes here are 0 and 1.
  PerfModel model({7, 8});
  PerfModel::observe_in(model.row("a"), 0, 0.1);
  PerfModel::observe_in(model.row("a"), 1, 0.2);
  PerfModel::observe_in(model.row("b"), 0, 0.3);
  EXPECT_DOUBLE_EQ(model.estimate("a", 0, std::nullopt, 0), 0.1);
  EXPECT_DOUBLE_EQ(model.estimate("a", 1, std::nullopt, 0), 0.2);
  EXPECT_DOUBLE_EQ(model.estimate("b", 0, std::nullopt, 0), 0.3);
  EXPECT_EQ(model.samples("b", 1), 0u);
  // The snapshot names each cell by its class's store key.
  const std::vector<PerfModel::Sample> cells = model.snapshot();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].class_key, 7u);
  EXPECT_EQ(cells[1].class_key, 8u);
}

TEST(DeviceClasses, EqualSpecsButForTheNameShareAClass) {
  std::vector<DeviceSpec> devices = EngineConfig::cpus(3, 5.0).devices;
  devices[1].name = "renamed";
  DeviceSpec faster = devices[0];
  faster.sustained_gflops = 6.0;
  devices.push_back(faster);
  DeviceSpec gpu = devices[0];
  gpu.kind = DeviceKind::kAccelerator;
  devices.push_back(gpu);
  const DeviceClasses classes = device_classes(devices);
  EXPECT_EQ(classes.of, (std::vector<std::size_t>{0, 0, 0, 1, 2}));
  ASSERT_EQ(classes.keys.size(), 3u);
  EXPECT_EQ(classes.keys[0], class_key(devices[1]));
  EXPECT_NE(classes.keys[0], classes.keys[1]);
  EXPECT_NE(classes.keys[0], classes.keys[2]);
  // Every field but the name moves the key.
  const DeviceSpec base = devices[0];
  const auto moved = [&](auto edit) {
    DeviceSpec spec = base;
    edit(spec);
    return class_key(spec) != class_key(base);
  };
  EXPECT_TRUE(moved([](DeviceSpec& s) { s.link_bandwidth_gbs += 1.0; }));
  EXPECT_TRUE(moved([](DeviceSpec& s) { s.link_latency_us += 1.0; }));
  EXPECT_TRUE(moved([](DeviceSpec& s) { s.memory_bytes += 1; }));
  EXPECT_TRUE(moved([](DeviceSpec& s) { s.max_retries += 1; }));
  EXPECT_TRUE(moved([](DeviceSpec& s) { s.mtbf_hours += 1.0; }));
  EXPECT_FALSE(moved([](DeviceSpec& s) { s.name = "other"; }));
}

TEST(TransferSeconds, LatencyPlusBandwidth) {
  // 1 GB over 1 GB/s with 0 latency: 1 s.
  EXPECT_NEAR(transfer_seconds(1'000'000'000, 1.0, 0.0), 1.0, 1e-9);
  // Latency dominates tiny messages.
  EXPECT_NEAR(transfer_seconds(8, 10.0, 100.0), 1e-4, 1e-6);
  // Degenerate bandwidth: only latency.
  EXPECT_DOUBLE_EQ(transfer_seconds(1024, 0.0, 5.0), 5e-6);
}

}  // namespace
}  // namespace starvm
