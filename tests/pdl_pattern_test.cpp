#include <gtest/gtest.h>

#include "discovery/presets.hpp"
#include "pdl/pattern.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"

namespace pdl {
namespace {

TEST(PatternParse, MinimalMaster) {
  auto p = parse_pattern("M");
  ASSERT_TRUE(p.ok()) << p.error().str();
  ASSERT_EQ(p.value().masters().size(), 1u);
  EXPECT_EQ(p.value().masters()[0]->kind(), PuKind::kMaster);
}

TEST(PatternParse, PropertiesQuantityChildren) {
  auto p = parse_pattern("M(ARCHITECTURE=x86)[W(ARCHITECTURE=gpu)x2,Hx1[Wx8]]");
  ASSERT_TRUE(p.ok()) << p.error().str();
  const ProcessingUnit& m = *p.value().masters()[0];
  EXPECT_EQ(m.descriptor().get("ARCHITECTURE"), "x86");
  ASSERT_EQ(m.children().size(), 2u);
  EXPECT_EQ(m.children()[0]->kind(), PuKind::kWorker);
  EXPECT_EQ(m.children()[0]->quantity(), 2);
  EXPECT_EQ(m.children()[1]->kind(), PuKind::kHybrid);
  ASSERT_EQ(m.children()[1]->children().size(), 1u);
  EXPECT_EQ(m.children()[1]->children()[0]->quantity(), 8);
}

TEST(PatternParse, BarePropertyNameIsExistenceConstraint) {
  auto p = parse_pattern("M(PEAK_GFLOPS)");
  ASSERT_TRUE(p.ok());
  const Property& prop = p.value().masters()[0]->descriptor().properties()[0];
  EXPECT_EQ(prop.name, "PEAK_GFLOPS");
  EXPECT_FALSE(prop.fixed);  // existence only
}

TEST(PatternParse, RejectsMalformedPatterns) {
  EXPECT_FALSE(parse_pattern("").ok());
  EXPECT_FALSE(parse_pattern("X").ok());
  EXPECT_FALSE(parse_pattern("W").ok());           // root must be Master
  EXPECT_FALSE(parse_pattern("M[").ok());
  EXPECT_FALSE(parse_pattern("M(=x)").ok());
  EXPECT_FALSE(parse_pattern("Mx0").ok());
  EXPECT_FALSE(parse_pattern("M trailing").ok());
}

TEST(PatternParse, RejectsCountsAboveIntMax) {
  // A count that does not fit the quantity's int used to wrap: x4294967296
  // became 0 and x3000000000 became -1294967296, and either matched a
  // platform without a single GPU.
  for (const char* pattern :
       {"M[W(ARCHITECTURE=gpu)x4294967296]", "M[W(ARCHITECTURE=gpu)x3000000000]"}) {
    auto p = parse_pattern(pattern);
    ASSERT_FALSE(p.ok()) << pattern;
    EXPECT_EQ(p.error().message, "expected positive integer after 'x'") << pattern;
  }
  auto largest = parse_pattern("M[Wx2147483647]");
  ASSERT_TRUE(largest.ok());
  EXPECT_EQ(largest.value().masters()[0]->children()[0]->quantity(), 2147483647);
}

TEST(PatternToString, RoundTripsCompactSyntax) {
  const char* kPattern = "M(ARCHITECTURE=x86)[W(ARCHITECTURE=gpu)x2]";
  auto p = parse_pattern(kPattern);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(pattern_to_string(p.value()), kPattern);
}

TEST(PatternMatch, KindMustAgree) {
  Platform concrete("c");
  concrete.add_master("m");
  EXPECT_TRUE(match("M", concrete));

  auto pattern = parse_pattern("M[W]");
  ASSERT_TRUE(pattern.ok());
  auto result = match(pattern.value(), concrete);
  EXPECT_FALSE(result.matched);
  EXPECT_FALSE(result.reason.empty());
}

TEST(PatternMatch, FixedPropertyValueComparesCaseInsensitively) {
  Platform concrete("c");
  concrete.add_master("m")->descriptor().add(props::kArchitecture, "X86");
  EXPECT_TRUE(match("M(ARCHITECTURE=x86)", concrete));
  EXPECT_FALSE(match("M(ARCHITECTURE=arm)", concrete));
}

TEST(PatternMatch, ExistenceConstraintNeedsPresenceOnly) {
  Platform concrete("c");
  concrete.add_master("m")->descriptor().add(props::kPeakGflops, "10.6");
  EXPECT_TRUE(match("M(PEAK_GFLOPS)", concrete));
  EXPECT_FALSE(match("M(MISSING_PROP)", concrete));
}

TEST(PatternMatch, PropertyResolutionInheritsFromAncestors) {
  // ARCHITECTURE declared on the Master satisfies a Worker constraint.
  Platform concrete("c");
  ProcessingUnit* m = concrete.add_master("m");
  m->descriptor().add(props::kArchitecture, "x86");
  m->add_child(PuKind::kWorker, "w");
  EXPECT_TRUE(match("M[W(ARCHITECTURE=x86)]", concrete));
}

TEST(PatternMatch, QuantityAccumulatesOverConcreteChildren) {
  Platform concrete("c");
  ProcessingUnit* m = concrete.add_master("m");
  ProcessingUnit* w = m->add_child(PuKind::kWorker, "w", 8);
  w->descriptor().add(props::kArchitecture, "gpu");

  EXPECT_TRUE(match("M[W(ARCHITECTURE=gpu)x8]", concrete));
  EXPECT_TRUE(match("M[W(ARCHITECTURE=gpu)x2]", concrete));  // >= semantics
  EXPECT_FALSE(match("M[W(ARCHITECTURE=gpu)x9]", concrete));
}

TEST(PatternMatch, DisjointChildrenForDistinctPatternChildren) {
  Platform concrete("c");
  ProcessingUnit* m = concrete.add_master("m");
  m->add_child(PuKind::kWorker, "w1")->descriptor().add(props::kArchitecture, "gpu");
  m->add_child(PuKind::kWorker, "w2")->descriptor().add(props::kArchitecture, "gpu");

  // Two single-unit gpu workers satisfy Wx2 or two separate W entries...
  EXPECT_TRUE(match("M[W(ARCHITECTURE=gpu)x2]", concrete));
  EXPECT_TRUE(match("M[W(ARCHITECTURE=gpu),W(ARCHITECTURE=gpu)]", concrete));
  // ...but not three.
  EXPECT_FALSE(match("M[W(ARCHITECTURE=gpu)x3]", concrete));
}

TEST(PatternMatch, ExtraConcreteChildrenAreAllowed) {
  // Patterns are minimum requirements (paper: pre-selection keeps variants
  // whose requirements the platform *covers*).
  Platform concrete = discovery::paper_platform_starpu_2gpu();
  EXPECT_TRUE(match("M[W(ARCHITECTURE=gpu)]", concrete));
  EXPECT_TRUE(match("M[W(ARCHITECTURE=x86_core)x8]", concrete));
  EXPECT_TRUE(match("M", concrete));
}

TEST(PatternMatch, NestedHybridPatterns) {
  Platform concrete = discovery::hierarchical_hybrid_platform();
  EXPECT_TRUE(match("M[H[W(ARCHITECTURE=x86_core)x4]]", concrete));
  EXPECT_TRUE(match("M[H[W(ARCHITECTURE=gpu)],W(ARCHITECTURE=gpu)]", concrete));
  EXPECT_FALSE(match("M[H[H[W]]]", concrete));
}

TEST(PatternMatch, BindingsExposeMappedPus) {
  Platform concrete = discovery::paper_platform_starpu_2gpu();
  auto pattern = parse_pattern("M[W(ARCHITECTURE=gpu)x2]");
  ASSERT_TRUE(pattern.ok());
  auto result = match(pattern.value(), concrete);
  ASSERT_TRUE(result.matched);
  // Bindings contain the matched workers and the master.
  int workers = 0, masters = 0;
  for (const auto& b : result.bindings) {
    if (b.concrete_pu->kind() == PuKind::kWorker) ++workers;
    if (b.concrete_pu->kind() == PuKind::kMaster) ++masters;
  }
  EXPECT_EQ(workers, 2);
  EXPECT_EQ(masters, 1);
}

TEST(PatternMatch, MultiMasterPatternsNeedDistinctMasters) {
  Platform concrete("c");
  concrete.add_master("a")->descriptor().add(props::kArchitecture, "x86");
  concrete.add_master("b")->descriptor().add(props::kArchitecture, "ppe");

  Platform pattern;
  pattern.add_master("p0")->descriptor().add(
      Property{.name = "ARCHITECTURE", .value = "x86", .fixed = true});
  pattern.add_master("p1")->descriptor().add(
      Property{.name = "ARCHITECTURE", .value = "ppe", .fixed = true});
  EXPECT_TRUE(match(pattern, concrete).matched);

  // Requiring two x86 masters fails: only one exists.
  Platform pattern2;
  pattern2.add_master("p0")->descriptor().add(
      Property{.name = "ARCHITECTURE", .value = "x86", .fixed = true});
  pattern2.add_master("p1")->descriptor().add(
      Property{.name = "ARCHITECTURE", .value = "x86", .fixed = true});
  EXPECT_FALSE(match(pattern2, concrete).matched);
}

TEST(PatternMatch, SyntaxErrorsReportedThroughMatch) {
  Platform concrete("c");
  concrete.add_master("m");
  auto result = match("M[[", concrete);
  EXPECT_FALSE(result.matched);
  EXPECT_NE(result.reason.find("syntax error"), std::string::npos);
}

// The paper's platform requirements as patterns against all presets.
struct RequirementCase {
  const char* pattern;
  bool single, cpu, gpu, cell;
};

// Names each case by its pattern. Without this gtest prints the raw bytes
// of the struct, i.e. the string literal's address, which ASLR changes on
// every run, and the discovered CTest names change with it.
void PrintTo(const RequirementCase& c, std::ostream* os) { *os << c.pattern; }

class RequirementMatrixTest : public testing::TestWithParam<RequirementCase> {};

TEST_P(RequirementMatrixTest, MatchesExpectedPlatforms) {
  const RequirementCase& c = GetParam();
  EXPECT_EQ(match(c.pattern, discovery::paper_platform_single()).matched, c.single)
      << c.pattern << " vs single";
  EXPECT_EQ(match(c.pattern, discovery::paper_platform_starpu_cpu()).matched, c.cpu)
      << c.pattern << " vs starpu";
  EXPECT_EQ(match(c.pattern, discovery::paper_platform_starpu_2gpu()).matched, c.gpu)
      << c.pattern << " vs starpu+2gpu";
  EXPECT_EQ(match(c.pattern, discovery::cell_be_platform()).matched, c.cell)
      << c.pattern << " vs cell";
}

INSTANTIATE_TEST_SUITE_P(
    PaperPlatforms, RequirementMatrixTest,
    testing::Values(
        RequirementCase{"M", true, true, true, true},
        RequirementCase{"M(ARCHITECTURE=x86)", true, true, true, false},
        RequirementCase{"M[W(ARCHITECTURE=x86_core)x8]", false, true, true, false},
        RequirementCase{"M[W(ARCHITECTURE=gpu)]", false, false, true, false},
        RequirementCase{"M[W(ARCHITECTURE=gpu)x2]", false, false, true, false},
        RequirementCase{"M[W(ARCHITECTURE=spe)x8]", false, false, false, true}));

}  // namespace
}  // namespace pdl
