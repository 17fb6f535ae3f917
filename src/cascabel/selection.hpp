// Static task pre-selection and mapping (paper §IV-C step 2 and §IV-B).
//
// For every variant the repository holds, the platform patterns implied by
// its targetplatformlist are matched against the target PDL. Variants whose
// patterns do not match are pruned; matching variants are statically mapped
// to the processing units their pattern bound to. The paper requires at
// least one sequential fall-back variant per used interface so the program
// can always run on a Master PU.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cascabel/repository.hpp"
#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/types.hpp"

namespace cascabel {

/// One variant that survived pre-selection for a concrete target.
struct SelectedVariant {
  const TaskVariant* variant = nullptr;
  std::string matched_platform;  ///< which targetplatformlist entry matched
  /// Worker/Master PUs the pattern bound to (candidate execution sites).
  /// They point into the target passed to preselect.
  std::vector<const pdl::ProcessingUnit*> mapped_pus;
  /// The LogicGroupAttributes of those PUs, each once: what the
  /// execution-group rule (in_execution_group) reads, so a selection keeps
  /// its groups after the target is gone.
  std::vector<std::string> mapped_groups;
  /// Device class this variant executes on when run by starvm.
  starvm::DeviceKind device_kind = starvm::DeviceKind::kCpu;
  bool is_fallback = false;  ///< sequential Master-only variant

  /// How constrained the matched requirement pattern is (PU nodes +
  /// property constraints). Among usable candidates of one device class,
  /// the most specific wins (paper §II: expert variants declare tighter
  /// requirements precisely because they are the optimized ones).
  int specificity = 0;

  /// Learned rate from the persisted perf store (best device's EMA over
  /// entries with at least SelectionOptions::min_samples observations);
  /// 0 = no trustworthy measurement. When non-zero, rt's per-call ranking
  /// prefers the measured-fastest variant over the declared-specificity
  /// order — the autotuning loop's pay-off.
  double measured_gflops = 0.0;

  /// Static per-element error bound of this variant's declared error model
  /// evaluated at the AccuracyGuard's depth and magnitude; negative when
  /// the variant declares no model (nothing to judge).
  double static_error_bound = -1.0;
  /// True when the guard is enabled and the declared bound exceeds its
  /// tolerance: rt::execute refuses to flip onto this variant for speed
  /// (the accuracy veto), logging the refused trade.
  bool accuracy_vetoed = false;
};

/// Static accuracy requirement the autotuner enforces at selection time
/// (docs/RUNTIME.md "Accuracy-guarded selection"). When enabled, every
/// candidate's declared error model is evaluated at `depth`/`magnitude`
/// (the same closed form the A7xx analysis propagates, A701) and variants
/// whose bound exceeds `tolerance` are vetoed: a measured-rate flip in
/// rt::execute may not trade the program's accuracy away for speed.
struct AccuracyGuard {
  bool enabled = false;
  /// Maximum acceptable per-element absolute error of the call's outputs.
  double tolerance = 0.0;
  /// Input-magnitude product the bounds are evaluated at (max|A|*max|B|).
  double magnitude = 1.0;
  /// Accumulation depth (the k extent); variants with a model-default
  /// depth use their own when this is 0.
  double depth = 1.0;
};

/// Measurement input for pre-selection: the persisted perf store of the
/// target platform (docs/RUNTIME.md "Persisted performance models").
struct SelectionOptions {
  /// The store entries of the target's device classes; non-owning, may be
  /// null (pure declared-rate selection).
  const starvm::perf_store::Store* perf_store = nullptr;
  /// Confidence threshold: entries with fewer recorded observations do not
  /// override declared rates (a single noisy sample must not flip a
  /// variant choice for every future run).
  std::uint64_t min_samples = 3;
  /// Accuracy requirement evaluated against every candidate's declared
  /// error model (SelectedVariant::accuracy_vetoed); disabled by default.
  AccuracyGuard accuracy;
};

/// Pre-selection output for a whole repository against one target platform.
struct SelectionResult {
  /// interface name -> surviving variants (fall-back first).
  std::map<std::string, std::vector<SelectedVariant>> by_interface;

  const std::vector<SelectedVariant>* candidates(const std::string& interface_name) const {
    const auto it = by_interface.find(interface_name);
    return it == by_interface.end() ? nullptr : &it->second;
  }
};

/// Run pre-selection of every repository variant against `target`.
/// Emits diagnostics for pruned variants (info), interfaces left without
/// any variant (error) and interfaces without a fall-back (error, paper
/// §IV-C step 3: "At least one sequential fall-back variant must be
/// provided").
SelectionResult preselect(const TaskRepository& repository,
                          const pdl::Platform& target, pdl::Diagnostics& diags);

/// As above, additionally annotating every surviving variant with its
/// measured rate from the perf store (SelectedVariant::measured_gflops).
SelectionResult preselect(const TaskRepository& repository,
                          const pdl::Platform& target, pdl::Diagnostics& diags,
                          const SelectionOptions& options);

/// Device class a target-platform name executes on: cuda/opencl/cell run
/// on (simulated) accelerators, everything else on CPUs.
starvm::DeviceKind device_kind_for_target(std::string_view platform_name);

/// The execution-group rule of an execute annotation (paper §IV-B,
/// LogicGroupAttribute), in two steps. First the annotation's group is
/// read against `target_groups`, the group names of the target
/// (pdl::logic_groups): a group some PU carries restricts the call to it;
/// an empty group restricts nothing, and neither does an unknown one, which
/// also adds a warning. The result is the group to restrict to, "" for
/// none.
std::string_view execution_group(std::string_view group,
                                 const std::vector<std::string>& target_groups,
                                 pdl::Diagnostics& diags);

/// Then a candidate may run a call restricted to `group` ("" = no
/// restriction) when it is mapped to no PU or to at least one PU of the
/// group.
bool in_execution_group(const SelectedVariant& candidate, std::string_view group);

}  // namespace cascabel
