#include <gtest/gtest.h>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/selection.hpp"
#include "discovery/presets.hpp"
#include "pdl/query.hpp"

namespace cascabel {
namespace {

using pdl::discovery::cell_be_platform;
using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

TaskRepository builtin_repo() {
  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  return repo;
}

std::vector<std::string> selected_names(const SelectionResult& result,
                                        const std::string& interface_name) {
  std::vector<std::string> names;
  if (const auto* candidates = result.candidates(interface_name)) {
    for (const auto& c : *candidates) names.push_back(c.variant->pragma.variant_name);
  }
  return names;
}

TEST(Preselect, SingleKeepsOnlyFallback) {
  TaskRepository repo = builtin_repo();
  pdl::Platform target = paper_platform_single();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  EXPECT_FALSE(pdl::has_errors(diags));
  // Both fallback ("x86") variants survive on a single-core target.
  EXPECT_EQ(selected_names(result, "Idgemm"),
            std::vector<std::string>({"dgemm_seq", "dgemm_tiled"}));
}

TEST(Preselect, StarpuCpuAddsSmpVariant) {
  TaskRepository repo = builtin_repo();
  pdl::Platform target = paper_platform_starpu_cpu();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  const auto names = selected_names(result, "Idgemm");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "dgemm_seq");  // fall-backs ordered first
  EXPECT_EQ(names[1], "dgemm_tiled");
  EXPECT_EQ(names[2], "dgemm_smp");
}

TEST(Preselect, GpuPlatformKeepsCudaVariant) {
  TaskRepository repo = builtin_repo();
  pdl::Platform target = paper_platform_starpu_2gpu();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  const auto names = selected_names(result, "Idgemm");
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "dgemm_seq");

  // The CUDA variant's static mapping binds the two gpu Workers.
  const auto* candidates = result.candidates("Idgemm");
  const SelectedVariant* cublas = nullptr;
  for (const auto& c : *candidates) {
    if (c.variant->pragma.variant_name == "dgemm_cublas") cublas = &c;
  }
  ASSERT_NE(cublas, nullptr);
  EXPECT_EQ(cublas->matched_platform, "cuda");
  EXPECT_EQ(cublas->device_kind, starvm::DeviceKind::kAccelerator);
  EXPECT_FALSE(cublas->is_fallback);
  int gpu_pus = 0;
  for (const auto* pu : cublas->mapped_pus) {
    if (pu->descriptor().get("ARCHITECTURE") == "gpu") ++gpu_pus;
  }
  EXPECT_EQ(gpu_pus, 2);
}

TEST(Preselect, PrunedVariantsAreReportedAsInfo) {
  TaskRepository repo = builtin_repo();
  pdl::Platform target = paper_platform_single();
  pdl::Diagnostics diags;
  preselect(repo, target, diags);
  // dgemm_smp, dgemm_cublas, vecadd_smp, vecadd_ocl pruned.
  EXPECT_GE(pdl::count_severity(diags, pdl::Severity::kInfo), 4u);
}

TEST(Preselect, MissingFallbackIsError) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant gpu_only;
  gpu_only.pragma.task_interface = "Ionly";
  gpu_only.pragma.variant_name = "only_gpu";
  gpu_only.pragma.target_platforms = {"cuda"};
  repo.add_variant(gpu_only);

  pdl::Platform target = paper_platform_starpu_2gpu();
  pdl::Diagnostics diags;
  preselect(repo, target, diags);
  EXPECT_TRUE(pdl::has_errors(diags));
}

TEST(Preselect, InterfaceWithNoMatchingVariantIsError) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant cell_only;
  cell_only.pragma.task_interface = "Icell";
  cell_only.pragma.variant_name = "spe_impl";
  cell_only.pragma.target_platforms = {"cell"};
  repo.add_variant(cell_only);

  pdl::Platform target = paper_platform_starpu_cpu();  // no SPEs
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  EXPECT_TRUE(pdl::has_errors(diags));
  EXPECT_EQ(result.candidates("Icell"), nullptr);
}

TEST(Preselect, UnknownTargetPlatformWarns) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant v;
  v.pragma.task_interface = "I";
  v.pragma.variant_name = "v";
  v.pragma.target_platforms = {"quantum", "x86"};
  repo.add_variant(v);

  pdl::Platform target = paper_platform_single();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  EXPECT_GE(pdl::count_severity(diags, pdl::Severity::kWarning), 1u);
  // Still selected through the x86 entry.
  EXPECT_EQ(selected_names(result, "I").size(), 1u);
}

TEST(Preselect, CellVariantsSelectOnCellPlatform) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant fallback;
  fallback.pragma.task_interface = "I";
  fallback.pragma.variant_name = "seq";
  fallback.pragma.target_platforms = {"x86"};
  repo.add_variant(fallback);
  TaskVariant spe;
  spe.pragma.task_interface = "I";
  spe.pragma.variant_name = "spe";
  spe.pragma.target_platforms = {"cell"};
  repo.add_variant(spe);

  pdl::Platform target = cell_be_platform();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  // The cell platform's master is ppe (not x86): "x86" -> pattern "M" still
  // matches any master, so the fall-back survives, plus the spe variant.
  EXPECT_EQ(selected_names(result, "I").size(), 2u);
}

/// The candidate of `interface_name` named `variant`, or null.
const SelectedVariant* candidate_named(const SelectionResult& result,
                                       const std::string& interface_name,
                                       const std::string& variant) {
  const auto* candidates = result.candidates(interface_name);
  if (candidates == nullptr) return nullptr;
  for (const auto& c : *candidates) {
    if (c.variant->pragma.variant_name == variant) return &c;
  }
  return nullptr;
}

TEST(ResolveExecutionGroup, FindsDeclaredGroups) {
  pdl::Platform target = paper_platform_starpu_2gpu();
  const auto groups = pdl::logic_groups(target);
  pdl::Diagnostics diags;
  EXPECT_EQ(execution_group("gpu", groups, diags), "gpu");
  EXPECT_EQ(execution_group("cpu", groups, diags), "cpu");
  EXPECT_TRUE(diags.empty());

  // "gpu" admits the variant mapped onto the two GPU Workers and not the
  // one mapped onto the CPU cores; "cpu" the other way round.
  TaskRepository repo = builtin_repo();
  const SelectionResult result = preselect(repo, target, diags);
  const SelectedVariant* cublas = candidate_named(result, "Idgemm", "dgemm_cublas");
  const SelectedVariant* smp = candidate_named(result, "Idgemm", "dgemm_smp");
  ASSERT_NE(cublas, nullptr);
  ASSERT_NE(smp, nullptr);
  EXPECT_TRUE(in_execution_group(*cublas, "gpu"));
  EXPECT_FALSE(in_execution_group(*cublas, "cpu"));
  EXPECT_TRUE(in_execution_group(*smp, "cpu"));
  EXPECT_FALSE(in_execution_group(*smp, "gpu"));
}

TEST(ResolveExecutionGroup, UnknownGroupFallsBackToAllPusWithWarning) {
  pdl::Platform target = paper_platform_starpu_cpu();
  pdl::Diagnostics diags;
  EXPECT_EQ(execution_group("nonexistent", pdl::logic_groups(target), diags), "");
  EXPECT_EQ(pdl::count_severity(diags, pdl::Severity::kWarning), 1u);
  // No restriction: every candidate may run the call.
  TaskRepository repo = builtin_repo();
  pdl::Diagnostics selection_diags;
  const SelectionResult result = preselect(repo, target, selection_diags);
  const auto* candidates = result.candidates("Idgemm");
  ASSERT_NE(candidates, nullptr);
  for (const auto& c : *candidates) {
    EXPECT_TRUE(in_execution_group(c, "")) << c.variant->pragma.variant_name;
  }
}

TEST(ResolveExecutionGroup, EmptyGroupMeansEverything) {
  pdl::Platform target = paper_platform_starpu_cpu();
  pdl::Diagnostics diags;
  EXPECT_EQ(execution_group("", pdl::logic_groups(target), diags), "");
  EXPECT_TRUE(diags.empty());
}

TEST(Preselect, InlinePatternRequirement) {
  // Paper §II: expert code states its own architectural requirements.
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant fallback;
  fallback.pragma.task_interface = "I";
  fallback.pragma.variant_name = "seq";
  fallback.pragma.target_platforms = {"x86"};
  repo.add_variant(fallback);
  TaskVariant tuned;
  tuned.pragma.task_interface = "I";
  tuned.pragma.variant_name = "dual_gpu_tuned";
  tuned.pragma.target_platforms = {"pattern(M[W(ARCHITECTURE=gpu)x2])"};
  repo.add_variant(tuned);

  // Satisfied on the 2-GPU testbed...
  {
    pdl::Platform target = paper_platform_starpu_2gpu();
    pdl::Diagnostics diags;
    SelectionResult result = preselect(repo, target, diags);
    EXPECT_FALSE(pdl::has_errors(diags));
    const auto names = selected_names(result, "I");
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[1], "dual_gpu_tuned");
    // The gpu pattern classifies the variant as accelerator code.
    EXPECT_EQ((*result.candidates("I"))[1].device_kind,
              starvm::DeviceKind::kAccelerator);
    EXPECT_EQ((*result.candidates("I"))[1].mapped_pus.size(), 2u);
  }
  // ...pruned on the CPU-only platform.
  {
    pdl::Platform target = paper_platform_starpu_cpu();
    pdl::Diagnostics diags;
    SelectionResult result = preselect(repo, target, diags);
    EXPECT_EQ(selected_names(result, "I"),
              std::vector<std::string>({"seq"}));
  }
}

TEST(Preselect, InlinePatternCountAboveIntMaxIsPruned) {
  // A count past INT_MAX must not wrap to a requirement the CPU-only
  // testbed meets: the variant is pruned exactly like its x2 twin.
  for (const char* count : {"x2", "x4294967296"}) {
    TaskRepository repo = TaskRepository::with_defaults();
    TaskVariant fallback;
    fallback.pragma.task_interface = "I";
    fallback.pragma.variant_name = "seq";
    fallback.pragma.target_platforms = {"x86"};
    repo.add_variant(fallback);
    TaskVariant tuned;
    tuned.pragma.task_interface = "I";
    tuned.pragma.variant_name = "gpu_tuned";
    tuned.pragma.target_platforms = {std::string("pattern(M[W(ARCHITECTURE=gpu)") +
                                     count + "])"};
    repo.add_variant(tuned);

    pdl::Platform target = paper_platform_starpu_cpu();
    pdl::Diagnostics diags;
    SelectionResult result = preselect(repo, target, diags);
    EXPECT_EQ(selected_names(result, "I"), std::vector<std::string>({"seq"}))
        << count;
  }
}

TEST(Preselect, InlinePatternWithCommasParses) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant v;
  v.pragma.task_interface = "I";
  v.pragma.variant_name = "seq";
  v.pragma.target_platforms = {"x86"};
  repo.add_variant(v);
  TaskVariant combo;
  combo.pragma.task_interface = "I";
  combo.pragma.variant_name = "combo";
  combo.pragma.target_platforms = {
      "pattern(M[W(ARCHITECTURE=x86_core)x8,W(ARCHITECTURE=gpu)x2])"};
  repo.add_variant(combo);

  pdl::Platform target = paper_platform_starpu_2gpu();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  EXPECT_EQ(selected_names(result, "I").size(), 2u);
}

TEST(Preselect, SpecificityRanksTighterPatternsHigher) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant generic;
  generic.pragma.task_interface = "I";
  generic.pragma.variant_name = "seq";
  generic.pragma.target_platforms = {"x86"};
  repo.add_variant(generic);
  TaskVariant smp;
  smp.pragma.task_interface = "I";
  smp.pragma.variant_name = "smp_v";
  smp.pragma.target_platforms = {"smp"};
  repo.add_variant(smp);
  TaskVariant tuned;
  tuned.pragma.task_interface = "I";
  tuned.pragma.variant_name = "tuned8";
  tuned.pragma.target_platforms = {
      "pattern(M(ARCHITECTURE=x86)[W(ARCHITECTURE=x86_core)x8])"};
  repo.add_variant(tuned);

  pdl::Platform target = paper_platform_starpu_cpu();
  pdl::Diagnostics diags;
  SelectionResult result = preselect(repo, target, diags);
  const auto* candidates = result.candidates("I");
  ASSERT_NE(candidates, nullptr);
  int seq_spec = -1, smp_spec = -1, tuned_spec = -1;
  for (const auto& c : *candidates) {
    if (c.variant->pragma.variant_name == "seq") seq_spec = c.specificity;
    if (c.variant->pragma.variant_name == "smp_v") smp_spec = c.specificity;
    if (c.variant->pragma.variant_name == "tuned8") tuned_spec = c.specificity;
  }
  // "M" < "M[W(ARCHITECTURE=x86_core)]" < "M(ARCH..)[W(ARCH..)x8]".
  EXPECT_GT(smp_spec, seq_spec);
  EXPECT_GT(tuned_spec, smp_spec);
}

TEST(DeviceKindForTarget, Mapping) {
  EXPECT_EQ(device_kind_for_target("x86"), starvm::DeviceKind::kCpu);
  EXPECT_EQ(device_kind_for_target("smp"), starvm::DeviceKind::kCpu);
  EXPECT_EQ(device_kind_for_target("cuda"), starvm::DeviceKind::kAccelerator);
  EXPECT_EQ(device_kind_for_target("OpenCL"), starvm::DeviceKind::kAccelerator);
  EXPECT_EQ(device_kind_for_target("cell"), starvm::DeviceKind::kAccelerator);
}

}  // namespace
}  // namespace cascabel
