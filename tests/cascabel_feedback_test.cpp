#include <gtest/gtest.h>

#include "cascabel/feedback.hpp"
#include "discovery/presets.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "starvm/bridge.hpp"

namespace cascabel {
namespace {

/// The class key of the devices the bridge derives from PU `pu_id`.
std::uint64_t class_of_pu(const pdl::Platform& platform, const std::string& pu_id) {
  starvm::BridgeOptions every_pu;
  every_pu.dedicate_driver_cores = false;
  std::vector<const pdl::ProcessingUnit*> origins;
  auto config = starvm::engine_config_from_platform(platform, every_pu, &origins);
  EXPECT_TRUE(config.ok());
  for (std::size_t d = 0; config.ok() && d < origins.size(); ++d) {
    if (origins[d]->id() == pu_id) return starvm::class_key(config.value().devices[d]);
  }
  ADD_FAILURE() << "no device of PU " << pu_id;
  return 0;
}

/// A store of (class, ema seconds, GFLOPS) entries, one sample each.
starvm::perf_store::Store store_of(
    std::initializer_list<std::tuple<std::uint64_t, double, double>> rates) {
  starvm::perf_store::Store store;
  for (const auto& [key, seconds, gflops] : rates) {
    store.entries.push_back({"k" + std::to_string(store.entries.size()), key,
                             seconds, 1, gflops});
  }
  return store;
}

TEST(Feedback, AnnotatesMeasuredGflops) {
  // A store's class rate lands on a quantity="N" PU.
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  // cpu_cores has quantity="8": one class. Two entries of it, 3 and 6
  // GFLOPS over 1 s and 2 s: (3 + 12) / 3 = 5 GFLOPS.
  const std::uint64_t cores = class_of_pu(target, "cpu_cores");
  RefineReport report;
  pdl::Platform refined =
      refine_platform(target, store_of({{cores, 1.0, 3.0}, {cores, 2.0, 6.0}}),
                      &report);
  EXPECT_EQ(report.pus_updated, 1);

  const pdl::ProcessingUnit* pu = pdl::find_pu(refined, "cpu_cores");
  ASSERT_NE(pu, nullptr);
  const pdl::Property* measured =
      pu->descriptor().find(pdl::props::kMeasuredGflops);
  ASSERT_NE(measured, nullptr);
  EXPECT_FALSE(measured->fixed);  // runtime-instantiated => unfixed
  EXPECT_NEAR(measured->as_double().value(), 5.0, 1e-6);
}

TEST(Feedback, OriginalPlatformUntouched) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  refine_platform(target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 5.0}}));
  EXPECT_EQ(pdl::find_pu(target, "cpu_cores")
                ->descriptor()
                .find(pdl::props::kMeasuredGflops),
            nullptr);
}

TEST(Feedback, FixedSustainedIsNotOverwritten) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();  // fixed=true
  RefineReport report;
  pdl::Platform refined = refine_platform(
      target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 2.0}}), &report);
  EXPECT_EQ(report.sustained_updated, 0);
  EXPECT_EQ(pdl::find_pu(refined, "cpu_cores")
                ->descriptor()
                .get(pdl::props::kSustainedGflops),
            "9.8");
}

TEST(Feedback, UnfixedSustainedIsReinstantiated) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  auto* cores =
      const_cast<pdl::ProcessingUnit*>(pdl::find_pu(target, "cpu_cores"));
  cores->descriptor().find(pdl::props::kSustainedGflops)->fixed = false;

  RefineReport report;
  pdl::Platform refined = refine_platform(
      target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 2.0}}), &report);
  EXPECT_EQ(report.sustained_updated, 1);
  EXPECT_NEAR(pdl::find_pu(refined, "cpu_cores")
                  ->descriptor()
                  .get_double(pdl::props::kSustainedGflops)
                  .value(),
              2.0, 1e-6);
}

TEST(Feedback, MasterPuGetsItsClassRate) {
  // A platform without workers runs on its Master, as one CPU device.
  pdl::Platform target = pdl::discovery::paper_platform_single();
  RefineReport report;
  pdl::Platform refined =
      refine_platform(target, store_of({{class_of_pu(target, "0"), 1.0, 3.0}}),
                      &report);
  EXPECT_EQ(report.pus_updated, 1);
  EXPECT_NE(pdl::find_pu(refined, "0")->descriptor().find(
                pdl::props::kMeasuredGflops),
            nullptr);
}

TEST(Feedback, DevicesWithoutFlopsAreSkipped) {
  // Work without a flops model leaves its entry without a rate.
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  RefineReport report;
  refine_platform(target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 0.0}}),
                  &report);
  EXPECT_EQ(report.pus_updated, 0);
}

TEST(Feedback, EntriesOfForeignClassesAreIgnored) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  RefineReport report;
  refine_platform(target,
                  store_of({{class_of_pu(target, "cpu_cores") ^ 1, 1.0, 1.0}}),
                  &report);
  EXPECT_EQ(report.pus_updated, 0);
}

TEST(Feedback, RepeatedRefinementUpdatesInPlace) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  pdl::Platform once = refine_platform(
      target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 4.0}}));
  // The refined PU is a new class: a store learned on it refines it again.
  pdl::Platform twice = refine_platform(
      once, store_of({{class_of_pu(once, "cpu_cores"), 1.0, 8.0}}));
  const pdl::ProcessingUnit* cores = pdl::find_pu(twice, "cpu_cores");
  // Only one MEASURED_GFLOPS property, holding the latest value.
  int count = 0;
  for (const auto& p : cores->descriptor().properties()) {
    count += p.name == pdl::props::kMeasuredGflops;
  }
  EXPECT_EQ(count, 1);
  EXPECT_NEAR(cores->descriptor().get_double(pdl::props::kMeasuredGflops).value(),
              8.0, 1e-6);
}

TEST(Feedback, BridgePrefersMeasuredRate) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_cpu();
  pdl::Platform refined = refine_platform(
      target, store_of({{class_of_pu(target, "cpu_cores"), 1.0, 3.0}}));
  auto config = starvm::engine_config_from_platform(refined);
  ASSERT_TRUE(config.ok());
  // All 8 CPU devices now carry the measured 3.0 instead of 9.8.
  for (const auto& d : config.value().devices) {
    EXPECT_NEAR(d.sustained_gflops, 3.0, 1e-6) << d.name;
  }
}

}  // namespace
}  // namespace cascabel
