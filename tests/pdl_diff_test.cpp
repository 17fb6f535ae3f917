#include <gtest/gtest.h>

#include "cascabel/feedback.hpp"
#include "discovery/presets.hpp"
#include "pdl/diff.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "starvm/bridge.hpp"

namespace pdl {
namespace {

bool has_entry(const std::vector<DiffEntry>& entries, DiffKind kind,
               std::string_view subject = {}) {
  for (const auto& e : entries) {
    if (e.kind == kind && (subject.empty() || e.subject == subject)) return true;
  }
  return false;
}

TEST(Diff, IdenticalPlatformsHaveNoDifferences) {
  const Platform a = discovery::paper_platform_starpu_2gpu();
  const Platform b = a.clone();
  EXPECT_TRUE(diff(a, b).empty());
  EXPECT_EQ(to_string(diff(a, b)), "(no differences)\n");
}

TEST(Diff, DetectsAddedAndRemovedPus) {
  const Platform a = discovery::paper_platform_starpu_cpu();
  const Platform b = discovery::paper_platform_starpu_2gpu();
  const auto forward = diff(a, b);
  EXPECT_TRUE(has_entry(forward, DiffKind::kPuAdded));
  EXPECT_FALSE(has_entry(forward, DiffKind::kPuRemoved));
  const auto backward = diff(b, a);
  EXPECT_TRUE(has_entry(backward, DiffKind::kPuRemoved));
}

TEST(Diff, DetectsPropertyChanges) {
  Platform a = discovery::paper_platform_starpu_cpu();
  Platform b = a.clone();
  auto* cores = const_cast<ProcessingUnit*>(find_pu(b, "cpu_cores"));
  cores->descriptor().set(props::kSustainedGflops, "5.0");
  cores->descriptor().add("NEW_PROP", "x");
  cores->descriptor().remove(props::kFrequencyMhz);

  const auto entries = diff(a, b);
  EXPECT_TRUE(has_entry(entries, DiffKind::kPropertyChanged, props::kSustainedGflops));
  EXPECT_TRUE(has_entry(entries, DiffKind::kPropertyAdded, "NEW_PROP"));
  EXPECT_TRUE(has_entry(entries, DiffKind::kPropertyRemoved, props::kFrequencyMhz));
  // Exactly those three.
  EXPECT_EQ(entries.size(), 3u);
}

TEST(Diff, FixednessChangeIsAChange) {
  Platform a = discovery::paper_platform_starpu_cpu();
  Platform b = a.clone();
  const_cast<ProcessingUnit*>(find_pu(b, "cpu_cores"))
      ->descriptor()
      .find(props::kSustainedGflops)
      ->fixed = false;
  const auto entries = diff(a, b);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, DiffKind::kPropertyChanged);
  EXPECT_NE(entries[0].after.find("unfixed"), std::string::npos);
}

TEST(Diff, DetectsQuantityKindGroupsAndWiring) {
  Platform a = discovery::paper_platform_starpu_2gpu();
  Platform b = a.clone();
  auto* cores = const_cast<ProcessingUnit*>(find_pu(b, "cpu_cores"));
  cores->set_quantity(4);
  cores->logic_groups().push_back("extra");
  auto* master = const_cast<ProcessingUnit*>(find_pu(b, "0"));
  master->interconnects().pop_back();
  master->memory_regions().clear();

  const auto entries = diff(a, b);
  EXPECT_TRUE(has_entry(entries, DiffKind::kQuantityChanged));
  EXPECT_TRUE(has_entry(entries, DiffKind::kGroupsChanged));
  EXPECT_TRUE(has_entry(entries, DiffKind::kInterconnectsChanged));
  EXPECT_TRUE(has_entry(entries, DiffKind::kMemoryRegionsChanged));
}

TEST(Diff, RendersHumanReadableLines) {
  Platform a = discovery::paper_platform_single();
  Platform b = a.clone();
  const_cast<ProcessingUnit*>(find_pu(b, "0"))
      ->descriptor()
      .set(props::kCompiler, "clang");
  const std::string text = to_string(diff(a, b));
  EXPECT_NE(text.find("property-changed @ 0 [COMPILER]: 'gcc' -> 'clang'"),
            std::string::npos);
}

TEST(Diff, FeedbackRefinementIsVisibleInDiff) {
  // The intended workflow: refine_platform + diff shows exactly what the
  // runtime learned.
  Platform target = discovery::paper_platform_starpu_cpu();
  auto config = starvm::engine_config_from_platform(target);
  ASSERT_TRUE(config.ok());
  starvm::perf_store::Store store;
  store.entries.push_back(
      {"t", starvm::class_key(config.value().devices[0]), 1.0, 1, 5.0});
  const Platform refined = cascabel::refine_platform(target, store);

  const auto entries = diff(target, refined);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, DiffKind::kPropertyAdded);
  EXPECT_EQ(entries[0].subject, props::kMeasuredGflops);
}

}  // namespace
}  // namespace pdl
