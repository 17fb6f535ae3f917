// The 1000-PU description that the allocation budgets
// (tests/starvm_alloc_test.cpp) and the translation golden
// (tests/translate_golden.hpp) share, and the annotated vecadd program
// (paper Listings 3/4) that runs on it.
#pragma once

#include <string>

#include "pdl/model.hpp"
#include "pdl/well_known.hpp"

namespace pdl::fixtures {

/// 1000 x86 cores under one Master, each written out as its own Worker
/// (no quantity shorthand) and in the group "all".
inline Platform wide_platform() {
  Platform platform("wide-x86");
  ProcessingUnit* master = platform.add_master("m0");
  master->descriptor().add(props::kArchitecture, props::kArchX86);
  master->descriptor().add(props::kFrequencyMhz, "2660");
  master->descriptor().add(props::kSustainedGflops, "9.8");
  for (int core = 0; core < 1000; ++core) {
    ProcessingUnit* worker =
        master->add_child(PuKind::kWorker, "core" + std::to_string(core));
    worker->descriptor().add(props::kArchitecture, "x86_core");
    worker->descriptor().add(props::kFrequencyMhz, "2660");
    worker->descriptor().add(props::kPeakGflops, "10.64");
    worker->descriptor().add(props::kSustainedGflops, "9.8");
    worker->logic_groups().push_back("all");
  }
  return platform;
}

/// A += B over 4096 doubles, offloaded to the group "all".
inline constexpr const char* kWideVecaddProgram = R"(
#pragma cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B: read )
void vectoradd(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}

int main() {
  static double A[4096];
  static double B[4096];
#pragma cascabel execute Ivecadd : all (A:BLOCK:4096, B:BLOCK:4096)
  vectoradd(A, B, 4096);
  return 0;
}
)";

}  // namespace pdl::fixtures
