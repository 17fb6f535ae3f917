#include "cascabel/selection.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdl/pattern.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "util/string_util.hpp"

namespace cascabel {

starvm::DeviceKind device_kind_for_target(std::string_view platform_name) {
  // gpu-targeting entries execute on accelerators, all others on CPUs
  // (spe counts as accelerator too — it is a simulated device).
  if (pdl::util::iequals(platform_name, "cuda") ||
      pdl::util::iequals(platform_name, "opencl") ||
      pdl::util::iequals(platform_name, "cell")) {
    return starvm::DeviceKind::kAccelerator;
  }
  return starvm::DeviceKind::kCpu;
}

SelectionResult preselect(const TaskRepository& repository,
                          const pdl::Platform& target, pdl::Diagnostics& diags) {
  return preselect(repository, target, diags, SelectionOptions{});
}

SelectionResult preselect(const TaskRepository& repository,
                          const pdl::Platform& target, pdl::Diagnostics& diags,
                          const SelectionOptions& options) {
  obs::Span span("cascabel.preselect", target.name());
  static obs::Counter& considered = obs::counter("cascabel.variants_considered");
  static obs::Counter& accepted = obs::counter("cascabel.variants_selected");
  static obs::Counter& rej_unknown =
      obs::counter("cascabel.variants_rejected.unknown_platform");
  static obs::Counter& rej_no_match =
      obs::counter("cascabel.variants_rejected.pattern_mismatch");
  static obs::Counter& rej_no_entry =
      obs::counter("cascabel.variants_rejected.no_platform_entry");
  SelectionResult result;

  for (const auto& variant : repository.variants()) {
    considered.inc();
    bool selected = false;
    for (const auto& platform_name : variant.pragma.target_platforms) {
      // Either a registered platform name ("x86", "cuda", ...) or an
      // explicit inline requirement: pattern(M[W(ARCHITECTURE=gpu)x2])
      // (paper §II: expert code carries its own architectural constraints).
      const std::string* pattern = nullptr;
      std::string inline_pattern;
      if (pdl::util::starts_with(platform_name, "pattern(") &&
          pdl::util::ends_with(platform_name, ")")) {
        inline_pattern = platform_name.substr(8, platform_name.size() - 9);
        pattern = &inline_pattern;
      } else {
        pattern = repository.requirement(platform_name);
      }
      if (pattern == nullptr) {
        rej_unknown.inc();
        add_warning(diags,
                    "variant '" + variant.pragma.variant_name +
                        "' targets unknown platform '" + platform_name +
                        "' (no requirement pattern registered)");
        continue;
      }
      pdl::MatchResult match = pdl::match(*pattern, target);
      if (!match) {
        rej_no_match.inc();
        add_info(diags,
                 "variant '" + variant.pragma.variant_name + "' pruned for '" +
                     platform_name + "': " + match.reason);
        continue;
      }

      SelectedVariant sel;
      sel.variant = &variant;
      sel.matched_platform = platform_name;
      sel.is_fallback = TaskRepository::is_fallback_platform(platform_name);

      // Static mapping (§IV-B): every target PU the variant may execute on.
      // match() only witnesses the *requirement* (minimal bindings); the
      // mapping enumerates all Workers satisfying any pattern-leaf
      // constraint, plus the Master for the sequential fall-back.
      auto pattern_platform = pdl::parse_pattern(*pattern);
      if (!inline_pattern.empty()) {
        // Inline requirements carry no platform name to classify; the
        // device class follows the pattern's worker architectures.
        sel.device_kind = starvm::DeviceKind::kCpu;
        if (pattern_platform.ok()) {
          for (const auto& pm : pattern_platform.value().masters()) {
            for (const auto* node : pdl::subtree(*pm)) {
              const std::string arch = node->descriptor().get("ARCHITECTURE");
              if (node->kind() == pdl::PuKind::kWorker &&
                  (pdl::util::iequals(arch, "gpu") ||
                   pdl::util::iequals(arch, "spe"))) {
                sel.device_kind = starvm::DeviceKind::kAccelerator;
              }
            }
          }
        }
      } else {
        sel.device_kind = device_kind_for_target(platform_name);
      }

      if (pattern_platform.ok()) {
        std::vector<const pdl::ProcessingUnit*> pattern_leaves;
        for (const auto& pm : pattern_platform.value().masters()) {
          for (const auto* node : pdl::subtree(*pm)) {
            sel.specificity +=
                1 + static_cast<int>(node->descriptor().size());
            if (node->kind() == pdl::PuKind::kWorker) pattern_leaves.push_back(node);
          }
        }
        for (const auto* concrete : pdl::all_pus(target)) {
          const bool mapped =
              (sel.is_fallback && concrete->kind() == pdl::PuKind::kMaster) ||
              std::any_of(pattern_leaves.begin(), pattern_leaves.end(),
                          [&](const pdl::ProcessingUnit* leaf) {
                            return pdl::pu_satisfies(*leaf, *concrete);
                          });
          if (!mapped) continue;
          sel.mapped_pus.push_back(concrete);
          for (const auto& g : concrete->logic_groups()) {
            if (std::find(sel.mapped_groups.begin(), sel.mapped_groups.end(), g) ==
                sel.mapped_groups.end()) {
              sel.mapped_groups.push_back(g);
            }
          }
        }
      }
      // Measured-rate annotation: the engine records each variant's
      // observations under its own name (Codelet::calibration_alias), so a
      // store entry keyed by the variant name is this variant's learned
      // rate. The best sufficiently-sampled device-class rate stands for
      // the variant; entries below the sample threshold stay advisory-only.
      if (options.perf_store != nullptr) {
        for (const auto& entry : options.perf_store->entries) {
          if (entry.codelet == variant.pragma.variant_name &&
              entry.count >= options.min_samples && entry.ema_gflops > 0.0) {
            sel.measured_gflops = std::max(sel.measured_gflops, entry.ema_gflops);
          }
        }
      }
      // Accuracy veto: evaluate the variant's declared error model at the
      // guard's depth and magnitude — the same closed form A701 propagates
      // statically. A vetoed variant stays selectable as a last resort but
      // may never win a measured-rate flip (rt::execute skips it).
      if (options.accuracy.enabled && variant.error_model.specified()) {
        const starvm::ErrorModel& model = variant.error_model;
        const double depth = options.accuracy.depth > 0.0
                                 ? options.accuracy.depth
                                 : (model.depth > 0.0 ? model.depth : 1.0);
        sel.static_error_bound = model.term(depth, options.accuracy.magnitude);
        if (sel.static_error_bound > options.accuracy.tolerance) {
          sel.accuracy_vetoed = true;
          add_info(diags, "accuracy guard: variant '" +
                              variant.pragma.variant_name +
                              "' declares a static error bound above the "
                              "tolerance; it may not win a measured-rate flip");
        }
      }
      result.by_interface[variant.pragma.task_interface].push_back(std::move(sel));
      accepted.inc();
      selected = true;
      break;  // first matching platform entry wins for this variant
    }
    if (!selected) {
      rej_no_entry.inc();
      add_info(diags, "variant '" + variant.pragma.variant_name +
                          "' has no matching platform on this target");
    }
  }

  // Order fall-backs first and check the fall-back guarantee per interface.
  for (auto& [interface_name, candidates] : result.by_interface) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const SelectedVariant& a, const SelectedVariant& b) {
                       return a.is_fallback > b.is_fallback;
                     });
    bool has_fallback = false;
    for (const auto& c : candidates) has_fallback |= c.is_fallback;
    if (!has_fallback) {
      add_error(diags,
                "task interface '" + interface_name +
                    "' has no sequential fall-back variant for a Master PU");
    }
  }

  // Interfaces that lost every variant.
  for (const auto& interface_name : repository.interfaces()) {
    if (result.by_interface.find(interface_name) == result.by_interface.end()) {
      add_error(diags, "task interface '" + interface_name +
                           "' has no variant matching the target platform");
    }
  }
  return result;
}

std::string_view execution_group(std::string_view group,
                                 const std::vector<std::string>& target_groups,
                                 pdl::Diagnostics& diags) {
  if (group.empty() ||
      std::find(target_groups.begin(), target_groups.end(), group) !=
          target_groups.end()) {
    return group;
  }
  add_warning(diags, "execution group '" + std::string(group) +
                         "' names no PU in the target platform; using all PUs");
  return {};
}

bool in_execution_group(const SelectedVariant& candidate, std::string_view group) {
  return group.empty() || candidate.mapped_pus.empty() ||
         std::find(candidate.mapped_groups.begin(), candidate.mapped_groups.end(),
                   group) != candidate.mapped_groups.end();
}

}  // namespace cascabel
