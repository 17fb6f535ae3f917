#include <gtest/gtest.h>

#include "starvm/perf_model.hpp"

namespace starvm {
namespace {

TEST(PerfModel, AnalyticFallbackUsesFlopsAndRate) {
  PerfModel model;
  // 1e9 flops at 10 GFLOPS -> 0.1 s.
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 10.0), 0.1);
}

TEST(PerfModel, DefaultEstimateWithoutAnyInformation) {
  PerfModel model;
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 0.0, 10.0), 1e-3);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 0.0), 1e-3);
}

TEST(PerfModel, HistoryOverridesAnalytic) {
  PerfModel model;
  model.observe("k", 0, 0.5);
  EXPECT_DOUBLE_EQ(model.estimate("k", 0, 1e9, 10.0), 0.5);
  EXPECT_EQ(model.samples("k", 0), 1u);
}

TEST(PerfModel, EmaConvergesTowardRecentObservations) {
  PerfModel model;
  model.observe("k", 0, 1.0);
  for (int i = 0; i < 50; ++i) model.observe("k", 0, 0.1);
  EXPECT_NEAR(model.estimate("k", 0, 0, 0), 0.1, 0.01);
  EXPECT_EQ(model.samples("k", 0), 51u);
}

TEST(PerfModel, HistoriesAreKeyedPerCodeletAndDevice) {
  PerfModel model;
  model.observe("a", 0, 0.1);
  model.observe("a", 1, 0.2);
  model.observe("b", 0, 0.3);
  EXPECT_DOUBLE_EQ(model.estimate("a", 0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(model.estimate("a", 1, 0, 0), 0.2);
  EXPECT_DOUBLE_EQ(model.estimate("b", 0, 0, 0), 0.3);
  EXPECT_EQ(model.samples("b", 1), 0u);
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
