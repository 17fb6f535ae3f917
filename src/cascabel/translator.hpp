// The Cascabel driver: annotated serial C/C++ in, translated program +
// compile plan out, parameterized by a target PDL description (paper
// Figure 4). Running the same input against different PDL descriptors
// yields the paper's "starpu" / "starpu+2gpu" style program variants
// without modifying the input source (§IV-D).
#pragma once

#include <string>
#include <string_view>

#include "annot/annotated_program.hpp"
#include "cascabel/codegen.hpp"
#include "cascabel/compile_plan.hpp"
#include "cascabel/repository.hpp"
#include "cascabel/selection.hpp"
#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "util/result.hpp"

namespace cascabel {

struct TranslationOptions {
  CodegenOptions codegen;
  std::string executable_name = "a.out";
  /// Extra (expert) variants merged into the repository before selection;
  /// defaults to the built-in DGEMM/vecadd variants.
  bool use_builtin_variants = true;
  /// Additional annotated sources whose task *variants* join the repository
  /// (paper Figure 1: expert programmers contribute per-platform variant
  /// files). Each entry is (source name, source text); call sites in these
  /// files are ignored. Duplicate variant names are an error.
  std::vector<std::pair<std::string, std::string>> variant_sources;
};

/// Everything one translation produces.
///
/// Lifetime: `selection` holds pointers into `repository` and into the
/// caller's target Platform; keep both alive while using it.
struct TranslationResult {
  AnnotatedProgram program;      ///< the scanned input
  TaskRepository repository;     ///< input variants + expert variants
  SelectionResult selection;     ///< §IV-C step 2 output
  std::string output_source;     ///< §IV-C step 3 output
  CompilePlan compile_plan;      ///< §IV-C step 4 output
  pdl::Diagnostics diagnostics;  ///< full report (info/warning/error)
};

/// Translate an annotated program for a target platform. Fails when the
/// input cannot be scanned or any selected interface loses its fall-back.
pdl::util::Result<TranslationResult> translate(std::string_view source,
                                               std::string source_name,
                                               const pdl::Platform& target,
                                               const TranslationOptions& options);

/// translate() with default options, built here rather than as a
/// temporary in every caller.
pdl::util::Result<TranslationResult> translate(std::string_view source,
                                               std::string source_name,
                                               const pdl::Platform& target);

}  // namespace cascabel
