// End-to-end integration tests covering the paper's case study (§IV):
// one annotated serial program, translated against different PDL
// descriptors, executed (a) in-process through cascabel::rt and (b) as a
// really-compiled generated source file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "cascabel/translator.hpp"
#include "discovery/presets.hpp"
#include "kernels/dgemm.hpp"
#include "kernels/matrix.hpp"
#include "util/string_util.hpp"

namespace cascabel {
namespace {

using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

// The case study input: a serial DGEMM call annotated for offloading.
constexpr const char* kDgemmProgram = R"(
#pragma cascabel task : x86 : Idgemm : dgemm_input : ( C: readwrite, A: read, B: read )
void dgemm_serial(double *C, double *A, double *B, int n) {
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) sum += A[i*n+k] * B[k*n+j];
      C[i*n+j] += sum;
    }
}

int run_case_study(double* C, double* A, double* B, int n) {
#pragma cascabel execute Idgemm : all (C:BLOCK:n:n, A:BLOCK:n:n, B:WHOLE:n:n)
  dgemm_serial(C, A, B, n);
  return 0;
}
)";

/// Translate the case study against a target, run it in-process, return
/// modeled makespan. Results are verified against a naive reference.
double run_case_study_inprocess(const pdl::Platform& target, std::size_t n) {
  auto translation = translate(kDgemmProgram, "dgemm_case.cpp", target);
  EXPECT_TRUE(translation.ok()) << translation.error().str();

  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  repo.register_program(translation.value().program);
  rt::Context ctx(target, std::move(repo));

  kernels::Matrix a(n, n), b(n, n), c(n, n), ref(n, n);
  a.fill_random(11);
  b.fill_random(12);

  auto status = ctx.execute(
      "Idgemm", "all",
      {rt::arg_matrix(c.data(), n, n, AccessMode::kReadWrite,
                      DistributionKind::kBlock),
       rt::arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
       rt::arg_matrix(b.data(), n, n, AccessMode::kRead, DistributionKind::kNone)});
  EXPECT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());

  kernels::dgemm_naive(n, n, n, a.data(), b.data(), ref.data());
  EXPECT_LT(kernels::max_abs_diff(c.data(), ref.data(), n * n), 1e-9);
  return ctx.stats().makespan_seconds;
}

TEST(CaseStudy, SameInputThreePlatformsAllCorrect) {
  const std::size_t n = 128;
  const double t_single = run_case_study_inprocess(paper_platform_single(), n);
  const double t_cpu = run_case_study_inprocess(paper_platform_starpu_cpu(), n);
  const double t_gpu = run_case_study_inprocess(paper_platform_starpu_2gpu(), n);
  EXPECT_GT(t_single, 0.0);
  EXPECT_GT(t_cpu, 0.0);
  EXPECT_GT(t_gpu, 0.0);
}

TEST(CaseStudy, Figure5ShapeInPureSim) {
  // The paper's Figure 5 at reduced scale (pure simulation, N=2048):
  // single < starpu < starpu+2gpu in speedup terms.
  const std::size_t n = 2048;
  rt::Options options;
  options.mode = starvm::ExecutionMode::kPureSim;

  const auto makespan = [&](const pdl::Platform& target) {
    TaskRepository repo = TaskRepository::with_defaults();
    register_builtin_variants(repo);
    rt::Context ctx(target, std::move(repo), options);
    kernels::Matrix a(n, n), b(n, n), c(n, n);  // never touched in pure sim
    auto status = ctx.execute(
        "Idgemm", "all",
        {rt::arg_matrix(c.data(), n, n, AccessMode::kReadWrite,
                        DistributionKind::kBlock),
         rt::arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
         rt::arg_matrix(b.data(), n, n, AccessMode::kRead,
                        DistributionKind::kNone)});
    EXPECT_TRUE(status.ok()) << status.error().str();
    EXPECT_TRUE(ctx.wait().ok());
    return ctx.stats().makespan_seconds;
  };

  const double t_single = makespan(paper_platform_single());
  const double t_cpu = makespan(paper_platform_starpu_cpu());
  const double t_gpu = makespan(paper_platform_starpu_2gpu());

  const double speedup_cpu = t_single / t_cpu;
  const double speedup_gpu = t_single / t_gpu;

  // Shape of Figure 5: the 8-core version speeds up several-fold; the
  // 2-GPU version clearly beats the CPU-only version.
  EXPECT_GT(speedup_cpu, 3.0);
  EXPECT_LT(speedup_cpu, 9.0);  // cannot exceed 8 cores
  EXPECT_GT(speedup_gpu, speedup_cpu);
}

/// Writes `source` to the test temp dir as `<stem>.cpp`, compiles it with
/// the system compiler and this build's flags against this repository's
/// libraries, runs it and returns its output. Fails the test (and returns
/// nullopt) when compiling fails or the program exits non-zero.
std::optional<std::string> compile_and_run(const std::string& source, const std::string& stem) {
  const std::string dir = testing::TempDir();
  const std::string source_path = dir + "/" + stem + ".cpp";
  const std::string binary_path = dir + "/" + stem + "_bin";
  const std::string errors_path = dir + "/" + stem + "_compile_errors.txt";
  const std::string output_path = dir + "/" + stem + "_output.txt";
  if (!pdl::util::write_file(source_path, source)) {
    ADD_FAILURE() << "cannot write " << source_path;
    return std::nullopt;
  }
  std::string compile_cmd = std::string("g++ -std=c++20 -O1 ") + PDL_CXX_FLAGS + " -I " +
                            PDL_SOURCE_DIR + "/src " + source_path;
  for (const char* library :
       {"cascabel/libcascabel.a", "annot/libcascabel_annot.a",
        "discovery/libpdl_discovery.a", "starvm/libstarvm.a", "kernels/libpdl_kernels.a",
        "pdl/libpdl_core.a", "xml/libpdl_xml.a", "util/libpdl_util.a", "obs/libpdl_obs.a"}) {
    compile_cmd += std::string(" ") + PDL_BINARY_DIR + "/src/" + library;
  }
  compile_cmd += " -lpthread -o " + binary_path + " 2> " + errors_path;
  if (std::system(compile_cmd.c_str()) != 0) {
    ADD_FAILURE() << compile_cmd << "\n"
                  << pdl::util::read_file(errors_path).value_or("(no stderr captured)");
    return std::nullopt;
  }
  const std::string run_cmd = binary_path + " > " + output_path + " 2>&1";
  const int run_rc = std::system(run_cmd.c_str());
  auto output = pdl::util::read_file(output_path);
  EXPECT_EQ(run_rc, 0) << output.value_or("(no output captured)");
  return output;
}

TEST(GeneratedSource, DgemmCaseStudyCompilesAndVerifies) {
  // The §IV-D case study as a really-compiled generated program: the
  // translated DGEMM must produce the same matrix as an inline reference.
  constexpr const char* kProgram = R"(
#include <cstdio>

#pragma cascabel task : x86 : Idgemm : dgemm_input : ( C: readwrite, A: read, B: read )
void dgemm_serial(double *C, double *A, double *B, int n) {
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) sum += A[i*n+k] * B[k*n+j];
      C[i*n+j] += sum;
    }
}

int main() {
  const int n = 48;
  static double A[48*48], B[48*48], C[48*48], R[48*48];
  for (int i = 0; i < n*n; ++i) { A[i] = (i % 7) * 0.25; B[i] = (i % 5) - 2.0; }
#pragma cascabel execute Idgemm : all (C:BLOCK:n:n, A:BLOCK:n:n, B:WHOLE:n:n)
  dgemm_serial(C, A, B, n);
  // Inline reference on R.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) sum += A[i*n+k] * B[k*n+j];
      R[i*n+j] += sum;
    }
  for (int i = 0; i < n*n; ++i) {
    const double d = C[i] - R[i];
    if (d > 1e-9 || d < -1e-9) { std::printf("DGEMM_BAD at %d\n", i); return 1; }
  }
  std::printf("DGEMM_OK\n");
  return 0;
}
)";
  auto translation =
      translate(kProgram, "dgemm_main.cpp", paper_platform_starpu_2gpu());
  ASSERT_TRUE(translation.ok()) << translation.error().str();
  const auto output = compile_and_run(translation.value().output_source, "cascabel_dgemm");
  ASSERT_TRUE(output.has_value());
  EXPECT_NE(output->find("DGEMM_OK"), std::string::npos) << *output;
}

TEST(GeneratedSource, CompilesAndRuns) {
  // Translate the paper's vecadd listing, write the generated file to disk,
  // compile it with the system compiler against this repository's
  // libraries, run it, and check its observable effect.
  constexpr const char* kProgram = R"(
#include <cstdio>

#pragma cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B: read )
void vectoradd(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}

int main() {
  const int N = 2048;
  static double A[2048];
  static double B[2048];
  for (int i = 0; i < N; ++i) { A[i] = 1.0; B[i] = 2.0; }
#pragma cascabel execute Ivecadd : cpu (A:BLOCK:N, B:BLOCK:N)
  vectoradd(A, B, N);
  double sum = 0.0;
  for (int i = 0; i < N; ++i) sum += A[i];
  if (sum == 3.0 * N) { std::printf("CASE_STUDY_OK\n"); return 0; }
  std::printf("CASE_STUDY_BAD sum=%f\n", sum);
  return 1;
}
)";
  auto translation =
      translate(kProgram, "vecadd_main.cpp", paper_platform_starpu_cpu());
  ASSERT_TRUE(translation.ok()) << translation.error().str();
  const auto output = compile_and_run(translation.value().output_source, "cascabel_generated");
  ASSERT_TRUE(output.has_value());
  EXPECT_NE(output->find("CASE_STUDY_OK"), std::string::npos) << *output;
}

}  // namespace
}  // namespace cascabel
