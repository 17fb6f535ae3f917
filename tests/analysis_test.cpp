// Tests for the cross-layer static analyzer (src/analysis): the rule
// catalog, the A1xx platform lint, the A3xx program-platform matching, the
// A4xx task-graph hazards, and the text/JSON reports — including one golden
// pass over every shipped platform description.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "annot/annotated_program.hpp"
#include "cascabel/repository.hpp"
#include "discovery/presets.hpp"
#include "json_checker.hpp"
#include "pdl/extension.hpp"
#include "pdl/parser.hpp"
#include "pdl/validate.hpp"
#include "pdl/well_known.hpp"

namespace analysis {
namespace {

const pdl::Diagnostic* find_finding(const pdl::Diagnostics& diags,
                                    std::string_view rule,
                                    std::string_view message_part = "") {
  for (const auto& d : diags) {
    if (d.rule == rule &&
        (message_part.empty() || d.message.find(message_part) != std::string::npos)) {
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

pdl::Diagnostics lint_platform(const pdl::Platform& platform,
                               const AnalysisOptions& options = {}) {
  pdl::Diagnostics diags;
  analyze_platform(platform, options, diags);
  return diags;
}

// --- Rule catalog ------------------------------------------------------------

TEST(RuleCatalog, ListsEveryRuleInIdOrder) {
  const auto& catalog = rule_catalog();
  ASSERT_GE(catalog.size(), 17u);
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string_view(catalog[i - 1].id), std::string_view(catalog[i].id));
  }
  for (const RuleInfo& info : catalog) {
    EXPECT_NE(info.summary, nullptr);
    EXPECT_NE(std::string_view(info.summary), "");
  }
}

TEST(RuleCatalog, FindRuleAcceptsFullIdAndBareNumber) {
  const RuleInfo* full = find_rule(kDeadVariant);
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(std::string_view(full->id), kDeadVariant);
  EXPECT_EQ(find_rule("A301"), full);
  EXPECT_EQ(find_rule("A999"), nullptr);
  EXPECT_EQ(find_rule(""), nullptr);
}

TEST(RuleCatalog, OptionsControlEnablementAndSeverity) {
  AnalysisOptions options;
  EXPECT_TRUE(rule_enabled(options, kDeadVariant));
  options.disabled.insert(kDeadVariant);
  EXPECT_FALSE(rule_enabled(options, kDeadVariant));

  EXPECT_EQ(effective_severity(options, kArityMismatch, pdl::Severity::kError),
            pdl::Severity::kError);
  options.severity_overrides[kArityMismatch] = pdl::Severity::kInfo;
  EXPECT_EQ(effective_severity(options, kArityMismatch, pdl::Severity::kError),
            pdl::Severity::kInfo);
}

// --- Layer (a): platform lint ------------------------------------------------

TEST(AnalyzePlatform, A101_FlagsWorkerMemoryWithoutInterconnectPath) {
  pdl::Platform p("island");
  pdl::ProcessingUnit* m = p.add_master("m0");
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "w0");
  pdl::MemoryRegion mr;
  mr.id = "mr_w0";
  w->memory_regions().push_back(mr);

  const pdl::Diagnostics diags = lint_platform(p);
  const pdl::Diagnostic* d = find_finding(diags, kUnreachableWorkerMemory, "mr_w0");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);

  // Declaring the link (either direction) resolves the finding.
  pdl::Interconnect ic;
  ic.type = "PCIe";
  ic.from = "m0";
  ic.to = "w0";
  m->interconnects().push_back(ic);
  EXPECT_EQ(find_finding(lint_platform(p), kUnreachableWorkerMemory), nullptr);
}

TEST(AnalyzePlatform, A101_FollowsMultiHopInterconnects) {
  pdl::Platform p("hops");
  pdl::ProcessingUnit* m = p.add_master("m0");
  pdl::ProcessingUnit* h = m->add_child(pdl::PuKind::kHybrid, "h0");
  pdl::ProcessingUnit* w = h->add_child(pdl::PuKind::kWorker, "w0");
  pdl::MemoryRegion mr;
  mr.id = "mr_w0";
  w->memory_regions().push_back(mr);
  // m0 <-> h0 <-> w0: reachable through two hops.
  pdl::Interconnect a;
  a.type = "QPI";
  a.from = "m0";
  a.to = "h0";
  m->interconnects().push_back(a);
  pdl::Interconnect b;
  b.type = "PCIe";
  b.from = "h0";
  b.to = "w0";
  h->interconnects().push_back(b);
  EXPECT_EQ(find_finding(lint_platform(p), kUnreachableWorkerMemory), nullptr);
}

TEST(AnalyzePlatform, A102_FlagsIdLessAndTrailingWorkerRegions) {
  pdl::Platform p("regions");
  pdl::ProcessingUnit* m = p.add_master("m0");
  pdl::MemoryRegion anonymous;  // no id: nothing can reference it
  m->memory_regions().push_back(anonymous);

  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "w0");
  pdl::MemoryRegion first;
  first.id = "mr_a";
  pdl::MemoryRegion second;
  second.id = "mr_b";
  w->memory_regions().push_back(first);
  w->memory_regions().push_back(second);

  const pdl::Diagnostics diags = lint_platform(p);
  ASSERT_NE(find_finding(diags, kUnreferencedMemoryRegion, "without id"), nullptr);
  // Only the worker's second region is ignored by the bridge.
  ASSERT_NE(find_finding(diags, kUnreferencedMemoryRegion, "mr_b"), nullptr);
  EXPECT_EQ(find_finding(diags, kUnreferencedMemoryRegion, "mr_a"), nullptr);
}

TEST(AnalyzePlatform, A103_FlagsNonsenseWellKnownValues) {
  pdl::Platform p("values");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->descriptor().add(pdl::props::kCores, "-3");
  m->descriptor().add(pdl::props::kFrequencyMhz, "fast");
  // Unfixed empty values are legitimate placeholders.
  pdl::Property pending;
  pending.name = pdl::props::kPeakGflops;
  m->descriptor().add(pending);

  const pdl::Diagnostics diags = lint_platform(p);
  EXPECT_NE(find_finding(diags, kPropertySanity, "'CORES'"), nullptr);
  EXPECT_NE(find_finding(diags, kPropertySanity, "'FREQUENCY_MHZ'"), nullptr);
  EXPECT_EQ(count_rule(diags, kPropertySanity), 2u);
}

TEST(AnalyzePlatform, A103_AcceptsSaneValues) {
  pdl::Platform p("sane");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->descriptor().add(pdl::props::kCores, "8");
  m->descriptor().add(pdl::props::kFrequencyMhz, "2660");
  pdl::MemoryRegion mr;
  mr.id = "mr";
  pdl::Property size;
  size.name = pdl::props::kSize;
  size.value = "1024";
  size.unit = "kB";
  mr.descriptor.add(size);
  m->memory_regions().push_back(mr);
  EXPECT_EQ(find_finding(lint_platform(p), kPropertySanity), nullptr);
}

TEST(AnalyzePlatform, A104_FlagsConflictingDuplicateProperties) {
  pdl::Platform p("conflict");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->descriptor().add(pdl::props::kArchitecture, "x86");
  m->descriptor().add(pdl::props::kArchitecture, "arm");

  const pdl::Diagnostics diags = lint_platform(p);
  const pdl::Diagnostic* d =
      find_finding(diags, kDescriptorConsistency, "conflicting values");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
}

TEST(AnalyzePlatform, A104_MixedFixedUnfixedIsOnlyAWarning) {
  pdl::Platform p("fixedness");
  pdl::ProcessingUnit* m = p.add_master("m0");
  pdl::Property fixed;
  fixed.name = "MODEL";
  fixed.value = "X";
  fixed.fixed = true;
  m->descriptor().add(fixed);
  pdl::Property unfixed;
  unfixed.name = "MODEL";
  unfixed.value = "X";
  unfixed.fixed = false;
  m->descriptor().add(unfixed);

  const pdl::Diagnostics diags = lint_platform(p);
  const pdl::Diagnostic* d =
      find_finding(diags, kDescriptorConsistency, "fixed and unfixed");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
}

TEST(AnalyzePlatform, A105_RequiresDeclaredExtensionNamespaces) {
  pdl::Platform p("ext");
  pdl::ProcessingUnit* m = p.add_master("m0");
  pdl::Property ext;
  ext.name = "DEVICE_NAME";
  ext.value = "Imaginary 9000";
  ext.xsi_type = "ghost:devicePropertyType";
  m->descriptor().add(ext);

  const pdl::Diagnostics diags = lint_platform(p);
  const pdl::Diagnostic* d =
      find_finding(diags, kUndeclaredExtensionNamespace, "'ghost'");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);

  p.declare_namespace("ghost", "urn:pdl:ext:ghost");
  EXPECT_EQ(find_finding(lint_platform(p), kUndeclaredExtensionNamespace), nullptr);
}

TEST(AnalyzePlatform, A106_FlagsQuantitiesAboveSanityThreshold) {
  pdl::Platform p("huge");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->add_child(pdl::PuKind::kWorker, "fleet", 1088);   // manycore-scale: fine
  m->add_child(pdl::PuKind::kWorker, "typo", 70000);   // above 65536

  const pdl::Diagnostics diags = lint_platform(p);
  const pdl::Diagnostic* d = find_finding(diags, kQuantitySanity, "'typo'");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
  EXPECT_EQ(count_rule(diags, kQuantitySanity), 1u);
}

TEST(AnalyzePlatform, DisabledRulesAndOverridesApply) {
  pdl::Platform p("opts");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->descriptor().add(pdl::props::kCores, "zero");

  AnalysisOptions off;
  off.disabled.insert(kPropertySanity);
  EXPECT_TRUE(lint_platform(p, off).empty());

  AnalysisOptions promote;
  promote.severity_overrides[kPropertySanity] = pdl::Severity::kError;
  const pdl::Diagnostics diags = lint_platform(p, promote);
  const pdl::Diagnostic* d = find_finding(diags, kPropertySanity);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
}

// --- Layer (b): program-platform matching ------------------------------------

struct ParsedProgram {
  cascabel::AnnotatedProgram program;
  cascabel::TaskRepository repository = cascabel::TaskRepository::with_defaults();
};

ParsedProgram parse_program(std::string_view source) {
  pdl::Diagnostics diags;
  auto result = cascabel::parse_annotated_source(source, "prog.cpp", diags);
  EXPECT_TRUE(result.ok()) << (diags.empty() ? "" : diags.front().str());
  ParsedProgram out;
  out.program = std::move(result).value();
  EXPECT_TRUE(out.repository.register_program(out.program));
  return out;
}

pdl::Diagnostics analyze_against(const ParsedProgram& parsed,
                                 const pdl::Platform& target,
                                 const AnalysisOptions& options = {}) {
  pdl::Diagnostics diags;
  analyze_program(parsed.program, parsed.repository, target, options, diags);
  return diags;
}

constexpr const char* kTwoVariantProgram = R"(
#pragma cascabel task : x86 : Ivecadd : vecadd_cpu : ( A: readwrite, B: read )
void vecadd_cpu_impl(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}
#pragma cascabel task : cell : Ivecadd : vecadd_spe : ( A: readwrite, B: read )
void vecadd_spe_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
int main() {
  const int N = 64;
  double A[64] = {0};
  double B[64] = {0};
#pragma cascabel execute Ivecadd : cpu (A:BLOCK:N, B:BLOCK:N)
  vecadd_cpu_impl(A, B, N);
  return 0;
}
)";

TEST(AnalyzeProgram, A301_FlagsVariantsNoTargetCanSelect) {
  const ParsedProgram parsed = parse_program(kTwoVariantProgram);
  // The testbed has x86 masters and gpu workers but no SPEs: the cell
  // variant is dead there.
  const pdl::Platform target = pdl::discovery::paper_platform_starpu_2gpu();
  const pdl::Diagnostics diags = analyze_against(parsed, target);

  const pdl::Diagnostic* dead = find_finding(diags, kDeadVariant, "vecadd_spe");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->where, "Ivecadd");
  EXPECT_EQ(dead->loc.file, "prog.cpp");
  EXPECT_GT(dead->loc.line, 0);  // points at the pragma line
  EXPECT_EQ(find_finding(diags, kDeadVariant, "vecadd_cpu"), nullptr);

  // On the Cell platform both variants are live ("x86" matches any Master).
  const pdl::Diagnostics on_cell =
      analyze_against(parsed, pdl::discovery::cell_be_platform());
  EXPECT_EQ(find_finding(on_cell, kDeadVariant), nullptr);
}

TEST(AnalyzeProgram, A302_FlagsExecuteSitesWithNoUsableVariant) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : cell : Ispe : spe_only : ( A: readwrite )
void spe_only_impl(double *A, int n) { (void)A; (void)n; }
int main() {
  const int N = 8;
  double A[8] = {0};
#pragma cascabel execute Ispe : spe (A:BLOCK:N)
  spe_only_impl(A, N);
  return 0;
}
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kNoExecutableVariant, "Ispe");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
  EXPECT_GT(d->loc.line, 0);
}

TEST(AnalyzeProgram, A303_FlagsCallArityAgainstFunctionSignature) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite, B: read )
void v1_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
int main() {
  double A[8] = {0};
#pragma cascabel execute Iv : cpu (A:BLOCK:8)
  v1_impl(A, A);
  return 0;
}
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kArityMismatch);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("2 argument(s)"), std::string::npos);
  EXPECT_NE(d->message.find("declares 3"), std::string::npos);
}

TEST(AnalyzeProgram, A304_FlagsVariantsWithConflictingSignatures) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite, B: read )
void v1_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
#pragma cascabel task : cuda : Iv : v2 : ( A: read, B: read )
void v2_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
int main() { return 0; }
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kVariantSignatureConflict, "v2");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
}

TEST(AnalyzeProgram, A305_FlagsDistributionsNamingUnknownParameters) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite )
void v1_impl(double *A, int n) { (void)A; (void)n; }
int main() {
  const int N = 8;
  double A[8] = {0};
#pragma cascabel execute Iv : cpu (Z:BLOCK:N)
  v1_impl(A, N);
  return 0;
}
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kUnknownDistributionParam, "'Z'");
  ASSERT_NE(d, nullptr);
  // The size expression N is not a parameter reference and must not trip it.
  EXPECT_EQ(count_rule(diags, kUnknownDistributionParam), 1u);
}

TEST(AnalyzeProgram, A306_FlagsExecutionGroupsAbsentFromTarget) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite )
void v1_impl(double *A, int n) { (void)A; (void)n; }
int main() {
  const int N = 8;
  double A[8] = {0};
#pragma cascabel execute Iv : warp9 (A:BLOCK:N)
  v1_impl(A, N);
  return 0;
}
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kUnknownExecutionGroup, "'warp9'");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
}

TEST(AnalyzeProgram, A406_FlagsInterfacesNothingSubmits) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iorphan : orphan1 : ( A: readwrite )
void orphan_impl(double *A, int n) { (void)A; (void)n; }
int main() { return 0; }
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kNeverSubmittedTask, "Iorphan");
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->loc.line, 0);  // the variant's pragma line
}

TEST(AnalyzeProgram, WellFormedProgramIsCleanOnMatchingTarget) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite, B: read )
void v1_impl(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}
int main() {
  const int N = 8;
  double A[8] = {0};
  double B[8] = {0};
#pragma cascabel execute Iv : cpu (A:BLOCK:N, B:BLOCK:N)
  v1_impl(A, B, N);
  return 0;
}
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  EXPECT_TRUE(diags.empty()) << diags.front().str();
}

// --- Layer (c): task-graph extraction and hazards ----------------------------

TEST(GraphFromProgram, MapsCallSitesToTasksAndArgumentsToBuffers) {
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : x86 : Iv : v1 : ( A: readwrite, B: read )
void v1_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
int main() {
  const int N = 8;
  double A[8] = {0};
  double B[8] = {0};
#pragma cascabel execute Iv : cpu (A:BLOCK:N, B:BLOCK:N)
  v1_impl(A, B, N);
#pragma cascabel execute Iv : cpu (B:BLOCK:N, A:BLOCK:N)
  v1_impl(B, A, N);
  return 0;
}
)");
  const starvm::TaskGraph graph =
      graph_from_program(parsed.program, parsed.repository);
  ASSERT_EQ(graph.tasks().size(), 2u);
  // Distinct argument expressions: A, B, N.
  EXPECT_EQ(graph.buffers().size(), 3u);

  // Task 0 read-writes A and reads B; the scalar N is a read.
  const starvm::GraphTask& t0 = graph.tasks()[0];
  ASSERT_EQ(t0.accesses.size(), 3u);
  EXPECT_EQ(t0.accesses[0].mode, starvm::Access::kReadWrite);
  EXPECT_EQ(t0.accesses[1].mode, starvm::Access::kRead);
  EXPECT_EQ(t0.accesses[2].mode, starvm::Access::kRead);
  // Task 1 swaps the operands: it writes B and reads A, sharing buffers.
  const starvm::GraphTask& t1 = graph.tasks()[1];
  EXPECT_EQ(t1.accesses[0].buffer, t0.accesses[1].buffer);
  EXPECT_EQ(t1.accesses[0].mode, starvm::Access::kReadWrite);

  // The engine would order the pair through A (WAR) and B (WAR): under the
  // default model there is no hazard to report.
  pdl::Diagnostics diags;
  analyze_task_graph(graph, {}, diags);
  EXPECT_TRUE(diags.empty());
}

starvm::TaskGraph two_writer_graph() {
  starvm::TaskGraph g;
  const int buf = g.add_buffer("A", 1024);
  g.add_task("w0", {{buf, starvm::Access::kWrite}});
  g.add_task("w1", {{buf, starvm::Access::kWrite}});
  return g;
}

TEST(AnalyzeTaskGraph, A401_SameBufferWriteWriteOnlyUnderRelaxed) {
  const starvm::TaskGraph g = two_writer_graph();

  // Default model: the engine infers the WAW edge itself — no finding.
  pdl::Diagnostics strict;
  analyze_task_graph(g, {}, strict);
  EXPECT_EQ(find_finding(strict, kUnorderedWriteWrite), nullptr);

  AnalysisOptions options;
  options.relaxed = true;
  pdl::Diagnostics diags;
  analyze_task_graph(g, options, diags);
  const pdl::Diagnostic* d = find_finding(diags, kUnorderedWriteWrite, "'A'");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
  EXPECT_EQ(d->where, "w0 <-> w1");
}

TEST(AnalyzeTaskGraph, A401_SilencedByDeclaredOrdering) {
  starvm::TaskGraph g;
  const int buf = g.add_buffer("A", 1024);
  const int w0 = g.add_task("w0", {{buf, starvm::Access::kWrite}});
  g.add_task("w1", {{buf, starvm::Access::kWrite}}, {w0});
  AnalysisOptions options;
  options.relaxed = true;
  pdl::Diagnostics diags;
  analyze_task_graph(g, options, diags);
  EXPECT_EQ(find_finding(diags, kUnorderedWriteWrite), nullptr);
}

TEST(AnalyzeTaskGraph, A402_SameBufferReadWriteOnlyUnderRelaxed) {
  starvm::TaskGraph g;
  const int buf = g.add_buffer("A", 1024);
  g.add_task("w", {{buf, starvm::Access::kWrite}});
  g.add_task("r", {{buf, starvm::Access::kRead}});

  pdl::Diagnostics strict;
  analyze_task_graph(g, {}, strict);
  EXPECT_EQ(find_finding(strict, kUnorderedReadWrite), nullptr);

  AnalysisOptions options;
  options.relaxed = true;
  pdl::Diagnostics diags;
  analyze_task_graph(g, options, diags);
  const pdl::Diagnostic* d = find_finding(diags, kUnorderedReadWrite);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'w' writes"), std::string::npos);
}

TEST(AnalyzeTaskGraph, A403_OnlyOverlappingRegistrationsAreReported) {
  // A second registration over the first half of V's allocation.
  starvm::TaskGraph g;
  const int whole = g.add_buffer("V", 1024);
  const int half = g.add_buffer_at("V[0]", g.buffers()[whole].base, 512);
  g.add_task("whole", {{whole, starvm::Access::kWrite}});
  g.add_task("half", {{half, starvm::Access::kWrite}});

  // Reported even under the default model: the engine's per-handle
  // inference cannot see the overlap.
  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kPartitionAliasing);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);

  // Registrations over disjoint halves of one allocation are fine.
  starvm::TaskGraph ok;
  const int left = ok.add_buffer("V[0]", 512);
  const int right = ok.add_buffer_at("V[1]", ok.buffers()[left].base + 512, 512);
  ok.add_task("left", {{left, starvm::Access::kWrite}});
  ok.add_task("right", {{right, starvm::Access::kWrite}});
  pdl::Diagnostics clean;
  analyze_task_graph(ok, {}, clean);
  EXPECT_TRUE(clean.empty());
}

TEST(AnalyzeTaskGraph, A403_DoubleRegistrationOverOneAllocation) {
  starvm::TaskGraph g;
  const int h1 = g.add_buffer("data (handle 1)", 4096);
  const int h2 = g.add_buffer_at("data (handle 2)", g.buffers()[h1].base, 4096);
  g.add_task("fill_a", {{h1, starvm::Access::kWrite}});
  g.add_task("fill_b", {{h2, starvm::Access::kWrite}});

  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kPartitionAliasing);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("overlap the same memory"), std::string::npos);
}

TEST(AnalyzeTaskGraph, A403_OrderedOverlapIsNotReported) {
  starvm::TaskGraph g;
  const int v = g.add_buffer("V", 1024);
  const int half = g.add_buffer_at("V[0]", g.buffers()[v].base, 512);
  const int whole = g.add_task("whole", {{v, starvm::Access::kWrite}});
  g.add_task("half", {{half, starvm::Access::kWrite}}, {whole});
  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeTaskGraph, A404_ReportsDeclaredDependencyCycles) {
  starvm::TaskGraph g;
  g.add_task("t0", {}, {1});
  g.add_task("t1", {}, {0});
  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kDependencyCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
  EXPECT_NE(d->message.find("t0 -> t1 -> t0"), std::string::npos);
}

TEST(AnalyzeTaskGraph, A405_ReportsForwardAndUnknownDependencies) {
  starvm::TaskGraph g;
  g.add_task("t0", {}, {2});   // forward: engine treats as satisfied
  g.add_task("t1", {}, {99});  // out of range entirely
  g.add_task("t2", {}, {0});   // backward: fine
  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  EXPECT_NE(find_finding(diags, kUnknownDependency, "submitted later"), nullptr);
  EXPECT_NE(find_finding(diags, kUnknownDependency, "unknown task index 99"), nullptr);
  EXPECT_EQ(count_rule(diags, kUnknownDependency), 2u);
}

// --- Reports -----------------------------------------------------------------

pdl::Diagnostics sample_findings() {
  pdl::Diagnostics diags;
  pdl::add_finding(diags, pdl::Severity::kError, kDeadVariant, "variant 'x' is dead",
                   pdl::SourceLoc{"prog.cpp", 4, 0}, "Iv");
  pdl::add_finding(diags, pdl::Severity::kWarning, kUnknownExecutionGroup,
                   "group 'g' unknown", pdl::SourceLoc{"prog.cpp", 9, 0}, "Iv");
  pdl::normalize(diags);
  return diags;
}

TEST(Report, SummarizeAndTextRendering) {
  const pdl::Diagnostics diags = sample_findings();
  const ReportSummary summary = summarize(diags);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.warnings, 1u);
  EXPECT_EQ(summary.infos, 0u);

  const std::string text = render_text(diags);
  EXPECT_NE(text.find("prog.cpp:4: error: variant 'x' is dead"), std::string::npos);
  EXPECT_NE(text.find("[A301-dead-variant]"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
}

TEST(Report, JsonIsWellFormedAndCarriesFindings) {
  const std::string json = render_json(sample_findings());
  const testjson::ParseResult parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "findings"));
  EXPECT_TRUE(testjson::contains_string(parsed, "summary"));
  EXPECT_TRUE(testjson::contains_string(parsed, kDeadVariant));
  EXPECT_TRUE(testjson::contains_string(parsed, "variant 'x' is dead"));
  EXPECT_TRUE(testjson::contains_string(parsed, "prog.cpp"));
}

TEST(Report, JsonEscapesHostileStrings) {
  pdl::Diagnostics diags;
  pdl::add_finding(diags, pdl::Severity::kWarning, "A999-test",
                   "quote \" backslash \\ newline \n done",
                   pdl::SourceLoc{"we\"ird.xml", 1, 1});
  const testjson::ParseResult parsed = testjson::parse(render_json(diags));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(
      testjson::contains_string(parsed, "quote \" backslash \\ newline \n done"));
}

TEST(Report, JsonEscapesNonAsciiAndControlCharacters) {
  pdl::Diagnostics diags;
  // UTF-8 bytes pass through verbatim (JSON is UTF-8); C0 controls must be
  // \u-escaped or the document is invalid.
  pdl::add_finding(diags, pdl::Severity::kWarning, "A999-test",
                   "caf\xc3\xa9 \xe2\x86\x92 ctrl\x01tab\tdone",
                   pdl::SourceLoc{"caf\xc3\xa9.xml", 3, 1});
  const std::string json = render_json(diags);
  const testjson::ParseResult parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(
      parsed, "caf\xc3\xa9 \xe2\x86\x92 ctrl\x01tab\tdone"));
  EXPECT_TRUE(testjson::contains_string(parsed, "caf\xc3\xa9.xml"));
  // The raw byte stream itself may not contain unescaped controls.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(Report, RenderersPropagateLineAndColumn) {
  pdl::Diagnostics diags;
  pdl::add_finding(diags, pdl::Severity::kError, kPartitionAliasing,
                   "aliased ranges", pdl::SourceLoc{"prog.cpp", 12, 34}, "m");
  const std::string text = render_text(diags);
  EXPECT_NE(text.find("prog.cpp:12:34: error: aliased ranges"),
            std::string::npos);
  const std::string json = render_json(diags);
  const testjson::ParseResult parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\"col\":34"), std::string::npos);
}

TEST(Report, ParsedProgramLocReachesRenderedA3xxFindings) {
  // End-to-end: the pragma's line in the parsed source must surface in the
  // rendered report, not just in the Diagnostic struct.
  const ParsedProgram parsed = parse_program(R"(
#pragma cascabel task : cell : If : f_spe : ( A: readwrite )
void f_spe_impl(double *A, int n) { (void)A; (void)n; }
)");
  const pdl::Diagnostics diags =
      analyze_against(parsed, pdl::discovery::paper_platform_starpu_2gpu());
  const pdl::Diagnostic* d = find_finding(diags, kDeadVariant);
  ASSERT_NE(d, nullptr) << render_text(diags);
  ASSERT_GT(d->loc.line, 0);
  const std::string text = render_text(diags);
  EXPECT_NE(text.find("prog.cpp:" + std::to_string(d->loc.line)),
            std::string::npos);
}

TEST(Report, TaskGraphLocReachesRenderedA4xxFindings) {
  starvm::TaskGraph g;
  const int m = g.add_buffer("m", 100, pdl::SourceLoc{"prog.cpp", 7, 3});
  const int half = g.add_buffer_at("m[0]", g.buffers()[m].base, 50,
                                   pdl::SourceLoc{"prog.cpp", 8, 3});
  g.add_task("whole", {{m, starvm::Access::kWrite}},
             {}, pdl::SourceLoc{"prog.cpp", 20, 1});
  g.add_task("half", {{half, starvm::Access::kWrite}},
             {}, pdl::SourceLoc{"prog.cpp", 21, 1});
  pdl::Diagnostics diags;
  analyze_task_graph(g, {}, diags);
  const pdl::Diagnostic* d = find_finding(diags, kPartitionAliasing);
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->loc.file, "prog.cpp");
  EXPECT_GT(d->loc.line, 0);
  EXPECT_NE(render_text(diags).find("prog.cpp:"), std::string::npos);
}

TEST(Report, ExitCodeContract) {
  pdl::Diagnostics clean;
  EXPECT_EQ(exit_code(clean, false), 0);
  EXPECT_EQ(exit_code(clean, true), 0);

  pdl::Diagnostics warn;
  pdl::add_warning(warn, "w");
  EXPECT_EQ(exit_code(warn, false), 0);
  EXPECT_EQ(exit_code(warn, true), 1);  // --werror promotes

  pdl::Diagnostics err;
  pdl::add_error(err, "e");
  EXPECT_EQ(exit_code(err, false), 1);
}

// --- Golden lint over everything the repo ships ------------------------------

TEST(GoldenLint, ShippedPlatformsPassStructureSchemasAndAnalysis) {
  for (const char* name :
       {"cell-be", "hierarchical", "testbed-single", "testbed-starpu",
        "testbed-starpu-2gpu"}) {
    const std::string path =
        std::string(PDL_SOURCE_DIR) + "/platforms/" + name + ".pdl.xml";
    pdl::Diagnostics diags;
    auto platform = pdl::parse_platform_file(path, diags);
    ASSERT_TRUE(platform.ok()) << path;
    pdl::validate(platform.value(), diags);
    pdl::builtin_registry().validate_properties(platform.value(), diags);
    analyze_platform(platform.value(), {}, diags);
    pdl::normalize(diags);
    EXPECT_FALSE(pdl::has_errors(diags))
        << path << ":\n" << render_text(diags);
  }
}

TEST(GoldenLint, BuiltInPresetsPassAnalysis) {
  for (const pdl::Platform& platform :
       {pdl::discovery::paper_platform_single(),
        pdl::discovery::paper_platform_starpu_cpu(),
        pdl::discovery::paper_platform_starpu_2gpu(),
        pdl::discovery::cell_be_platform(),
        pdl::discovery::hierarchical_hybrid_platform()}) {
    pdl::Diagnostics diags;
    analyze_platform(platform, {}, diags);
    EXPECT_FALSE(pdl::has_errors(diags))
        << platform.name() << ":\n" << render_text(diags);
  }
}

}  // namespace
}  // namespace analysis
