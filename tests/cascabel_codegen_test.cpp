#include <gtest/gtest.h>

#include "cascabel/translator.hpp"
#include "discovery/presets.hpp"
#include "pdl/serializer.hpp"
#include "util/string_util.hpp"

namespace cascabel {
namespace {

using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

constexpr const char* kVecaddProgram = R"(
#pragma cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B: read )
void vectoradd(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}

int main() {
  const int N = 512;
  double A[512] = {0};
  double B[512] = {0};
#pragma cascabel execute Ivecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)
  vectoradd(A, B, N);
  return 0;
}
)";

TEST(Translate, ProducesAllFourStepOutputs) {
  auto result = translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu());
  ASSERT_TRUE(result.ok()) << result.error().str();
  const TranslationResult& t = result.value();
  EXPECT_EQ(t.program.variants.size(), 1u);
  EXPECT_NE(t.selection.candidates("Ivecadd"), nullptr);
  EXPECT_FALSE(t.output_source.empty());
  EXPECT_FALSE(t.compile_plan.steps.empty());
}

TEST(Translate, GeneratedSourceReplacesCallSite) {
  auto result = translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu());
  ASSERT_TRUE(result.ok());
  const std::string& src = result.value().output_source;

  // The original direct call is gone; the rt veneer call appears.
  EXPECT_EQ(src.find("vectoradd(A, B, N);"), std::string::npos);
  EXPECT_NE(src.find("::cascabel::rt::execute(\"Ivecadd\", \"executionset01\""),
            std::string::npos);
  EXPECT_NE(src.find("::cascabel::rt::arg(A, static_cast<std::size_t>(N)"),
            std::string::npos);
  EXPECT_NE(src.find("::cascabel::rt::wait();"), std::string::npos);
  // The task function itself survives as the fall-back implementation.
  EXPECT_NE(src.find("void vectoradd(double *A, double *B, int n)"),
            std::string::npos);
  // Pragmas are commented out.
  EXPECT_EQ(src.find("\n#pragma cascabel"), std::string::npos);
}

TEST(Translate, GeneratedSourceRegistersVariantAndInitializes) {
  auto result = translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu());
  ASSERT_TRUE(result.ok());
  const std::string& src = result.value().output_source;
  EXPECT_NE(src.find("register_variant(\n    \"Ivecadd\", \"vecadd01\""),
            std::string::npos);
  // The adapter passes buffers in paramlist order plus the block extent.
  EXPECT_NE(src.find("vectoradd(ctx.buffer(0), ctx.buffer(1), "
                     "static_cast<int>(ctx.handle(0).cols()));"),
            std::string::npos);
  // The target PDL is embedded and the runtime initialized from it.
  EXPECT_NE(src.find("cascabel_target_pdl"), std::string::npos);
  EXPECT_NE(src.find("::cascabel::rt::initialize(cascabel_target_pdl)"),
            std::string::npos);
  EXPECT_NE(src.find("ARCHITECTURE"), std::string::npos);  // PDL content
}

TEST(Translate, SwappingPdlChangesOnlyEmbeddedDescriptor) {
  // The paper's headline property: same input, different PDL, no source edit.
  auto cpu = translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu());
  auto gpu = translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_2gpu());
  ASSERT_TRUE(cpu.ok());
  ASSERT_TRUE(gpu.ok());
  EXPECT_NE(cpu.value().output_source, gpu.value().output_source);
  EXPECT_EQ(gpu.value().output_source.find("testbed-starpu\""), std::string::npos);
  EXPECT_NE(gpu.value().output_source.find("testbed-starpu-2gpu"), std::string::npos);
  // The program part (before the epilogue) is identical.
  const auto cut = [](const std::string& s) {
    return s.substr(0, s.find("cascabel epilogue"));
  };
  // Prologue differs only in the target comment line; compare from main().
  const auto from_main = [&](const std::string& s) {
    const std::string body = cut(s);
    return body.substr(body.find("int main"));
  };
  EXPECT_EQ(from_main(cpu.value().output_source),
            from_main(gpu.value().output_source));
}

TEST(Translate, CallWithoutSizesIsKeptWithWarning) {
  const char* kNoSizes = R"(
#pragma cascabel task : x86 : I : v : ( A: readwrite )
void f(double *A, int n) { (void)A; (void)n; }
int main() {
  double A[8];
#pragma cascabel execute I : g (A:BLOCK)
  f(A, 8);
}
)";
  auto result = translate(kNoSizes, "nosizes.cpp", paper_platform_single());
  ASSERT_TRUE(result.ok()) << result.error().str();
  // Original call preserved.
  EXPECT_NE(result.value().output_source.find("f(A, 8);"), std::string::npos);
  EXPECT_GE(pdl::count_severity(result.value().diagnostics, pdl::Severity::kWarning),
            1u);
}

TEST(Translate, MatrixDistributionsGenerateArgMatrix) {
  const char* kDgemm = R"(
#pragma cascabel task : x86 : Idgemm2 : my_dgemm : ( C: readwrite, A: read, B: read )
void dgemm_serial(double *C, double *A, double *B, int n) {
  (void)C; (void)A; (void)B; (void)n;
}
int main() {
  const int n = 64;
  double *C = nullptr, *A = nullptr, *B = nullptr;
#pragma cascabel execute Idgemm2 : all (C:BLOCK:n:n, A:BLOCK:n:n, B:WHOLE:n:n)
  dgemm_serial(C, A, B, n);
}
)";
  auto result = translate(kDgemm, "dgemm.cpp", paper_platform_starpu_cpu());
  ASSERT_TRUE(result.ok()) << result.error().str();
  const std::string& src = result.value().output_source;
  EXPECT_NE(src.find("::cascabel::rt::arg_matrix(C, static_cast<std::size_t>(n), "
                     "static_cast<std::size_t>(n)"),
            std::string::npos);
  EXPECT_NE(src.find("DistributionKind::kNone"), std::string::npos);  // B:WHOLE
}

TEST(Translate, FailsWhenFallbackMissing) {
  const char* kGpuOnly = R"(
#pragma cascabel task : cuda : Ionly : gpu_only : ( A: readwrite )
void f(double *A) { (void)A; }
)";
  auto result = translate(kGpuOnly, "gpuonly.cpp", paper_platform_starpu_2gpu());
  EXPECT_FALSE(result.ok());
}

TEST(Translate, VariantSourcesJoinTheRepository) {
  // An expert variant file contributes a CUDA implementation of the main
  // program's interface (paper Figure 1).
  const char* kVariantFile = R"(
#pragma cascabel task : cuda : Ivecadd : vecadd_gpu_expert : ( A: readwrite, B: read )
void vecadd_gpu(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
)";
  TranslationOptions options;
  options.variant_sources.emplace_back("expert_variants.cpp", kVariantFile);
  auto result = translate(kVecaddProgram, "vecadd.cpp",
                          paper_platform_starpu_2gpu(), options);
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_NE(result.value().repository.find_variant("vecadd_gpu_expert"), nullptr);
  const auto* candidates = result.value().selection.candidates("Ivecadd");
  ASSERT_NE(candidates, nullptr);
  bool found = false;
  for (const auto& c : *candidates) {
    found |= c.variant->pragma.variant_name == "vecadd_gpu_expert";
  }
  EXPECT_TRUE(found);
}

TEST(Translate, DuplicateVariantAcrossSourcesFails) {
  const char* kDuplicate = R"(
#pragma cascabel task : cuda : Ivecadd : vecadd01 : ( A: readwrite, B: read )
void other(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
)";
  TranslationOptions options;
  options.variant_sources.emplace_back("dup.cpp", kDuplicate);
  auto result =
      translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu(), options);
  EXPECT_FALSE(result.ok());
}

TEST(Translate, SyncEachCallCanBeDisabled) {
  TranslationOptions options;
  options.codegen.sync_each_call = false;
  auto result =
      translate(kVecaddProgram, "vecadd.cpp", paper_platform_starpu_cpu(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().output_source.find("::cascabel::rt::wait();"),
            std::string::npos);
}

/// The contents of the raw string literal that embeds the target
/// description in `src`, read up to its delimiter's first closing sequence.
std::string embedded_description(const std::string& src) {
  const std::string open = "cascabel_target_pdl[] = R\"";
  const std::size_t delimiter = src.find(open) + open.size();
  const std::size_t paren = src.find('(', delimiter);
  const std::string close = ")" + src.substr(delimiter, paren - delimiter) + "\"";
  const std::size_t begin = paren + 2;  // after "(\n"
  return src.substr(begin, src.find(close, begin) - begin);
}

/// The CPU testbed with one more master property holding `note`.
pdl::Platform testbed_with_note(const std::string& note) {
  pdl::Platform target = paper_platform_starpu_cpu();
  target.masters().front()->descriptor().add("NOTE", note);
  return target;
}

pdl::util::Result<TranslationResult> translate_vecadd(const pdl::Platform& target) {
  const TranslationOptions options;
  return translate(kVecaddProgram, "vecadd.cpp", target, options);
}

TEST(Translate, DescriptionCannotCloseTheEmbeddedLiteral) {
  // Text escaping leaves quotes and parentheses alone, so this value holds
  // the closing sequence of the default delimiter.
  const pdl::Platform target = testbed_with_note(
      ")CASCABEL_PDL\"; int injected = 42; const char tail[] = R\"CASCABEL_PDL(");
  auto result = translate_vecadd(target);
  ASSERT_TRUE(result.ok()) << result.error().str();
  const std::string& src = result.value().output_source;
  EXPECT_EQ(embedded_description(src), pdl::serialize(target));
  EXPECT_NE(src.find("cascabel_target_pdl[] = R\"CASCABEL_PDL0(\n"), std::string::npos);
}

TEST(Translate, DelimiterIsTheFirstWhoseClosingSequenceIsAbsent) {
  // CASCABEL_PDL and CASCABEL_PDL0 are taken; "01" and "10000" (17
  // characters) spell no delimiter of the sequence and "1x" is not followed
  // by a quote.
  const pdl::Platform target = testbed_with_note(
      ")CASCABEL_PDL\" )CASCABEL_PDL0\" )CASCABEL_PDL01\" )CASCABEL_PDL10000\" "
      ")CASCABEL_PDL1x\"");
  auto result = translate_vecadd(target);
  ASSERT_TRUE(result.ok()) << result.error().str();
  const std::string& src = result.value().output_source;
  EXPECT_NE(src.find("R\"CASCABEL_PDL1(\n"), std::string::npos);
  EXPECT_EQ(embedded_description(src), pdl::serialize(target));
}

TEST(Translate, FailsWhenEveryDelimiterIsTaken) {
  // Delimiters are at most 16 characters: CASCABEL_PDL, then 0 to 9999.
  std::string note = ")CASCABEL_PDL\"";
  for (int n = 0; n <= 9999; ++n) note += ")CASCABEL_PDL" + std::to_string(n) + "\"";
  auto result = translate_vecadd(testbed_with_note(note));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().str().find("no raw-string delimiter"), std::string::npos);
}

TEST(Translate, NamesWithLineBreaksStayInsideThePrologueComments) {
  pdl::Platform target = paper_platform_starpu_cpu();
  target.set_name("t\nint injected_by_name = 42;");
  const TranslationOptions options;
  auto result = translate(kVecaddProgram, "v.cpp\r\nint injected_by_source = 1;",
                          target, options);
  ASSERT_TRUE(result.ok()) << result.error().str();
  const std::string& src = result.value().output_source;
  const std::size_t includes = src.find("\n#include <cstddef>\n");
  ASSERT_NE(includes, std::string::npos);
  for (const auto& line : pdl::util::split(src.substr(0, includes), '\n')) {
    EXPECT_EQ(line.substr(0, 2), "//") << line;
  }
  for (const auto& line : pdl::util::split(src, '\n')) {
    EXPECT_NE(line.rfind("int injected_by_", 0), 0u) << line;
  }
  EXPECT_NE(src.find("// input:  v.cpp\\r\\nint injected_by_source = 1;\n"),
            std::string::npos);
  EXPECT_NE(src.find("// target: t\\nint injected_by_name = 42;\n"),
            std::string::npos);
}

}  // namespace
}  // namespace cascabel
