#include "analysis/rules.hpp"

#include <algorithm>
#include <string>

namespace analysis {

const std::vector<RuleInfo>& rule_catalog() {
  using pdl::Severity;
  static const std::vector<RuleInfo> catalog = {
      {kUnreachableWorkerMemory, Severity::kWarning,
       "Worker declares MemoryRegions but no Interconnect path reaches its "
       "controlling Master; transfers fall back to modeled control links"},
      {kUnreferencedMemoryRegion, Severity::kWarning,
       "MemoryRegion the toolchain cannot consume (beyond the Worker's first "
       "sized region, or without an id)"},
      {kPropertySanity, Severity::kWarning,
       "well-known property has a non-numeric, negative or unit-less value "
       "(CORES, FREQUENCY_MHZ, BANDWIDTH_GB_S, MTBF_HOURS, SIZE, ...)"},
      {kDescriptorConsistency, Severity::kError,
       "descriptor declares the same property twice with conflicting values "
       "(or mixes fixed and unfixed declarations of one name)"},
      {kUndeclaredExtensionNamespace, Severity::kError,
       "property uses an xsi:type prefix with no xmlns declaration on the "
       "document root"},
      {kQuantitySanity, Severity::kWarning,
       "PU quantity above the sanity threshold (65536): likely a typo or a "
       "unit mistake; each instance becomes a scheduled device"},
      {kDeadVariant, Severity::kWarning,
       "task variant whose platform requirements match no PU of the target "
       "platform (it can never be selected)"},
      {kNoExecutableVariant, Severity::kError,
       "execute site whose task interface has no variant usable on the "
       "target platform (guaranteed runtime failure)"},
      {kArityMismatch, Severity::kError,
       "execute site passes a different number of arguments than the task "
       "signature declares"},
      {kVariantSignatureConflict, Severity::kError,
       "variants of one task interface disagree on parameter count or "
       "access modes"},
      {kUnknownDistributionParam, Severity::kWarning,
       "execute-site distribution names a parameter the task signature does "
       "not have"},
      {kUnknownExecutionGroup, Severity::kWarning,
       "execute site references a LogicGroupAttribute no PU of the target "
       "platform declares"},
      {kUnorderedWriteWrite, Severity::kError,
       "two tasks write the same buffer with no ordering path between them "
       "(a race under relaxed consistency)"},
      {kUnorderedReadWrite, Severity::kError,
       "one task reads what another writes with no ordering path between "
       "them (a race under relaxed consistency)"},
      {kPartitionAliasing, Severity::kError,
       "two distinct buffer registrations over overlapping byte ranges (one "
       "allocation registered twice, or one over part of another's range) "
       "are accessed concurrently — the engine's per-handle dependency "
       "inference cannot order them"},
      {kDependencyCycle, Severity::kError,
       "declared task dependencies form a cycle; the engine silently drops "
       "forward dependencies, so the stated ordering is unenforceable"},
      {kUnknownDependency, Severity::kWarning,
       "declared dependency references an unknown or not-yet-submitted "
       "task; the engine treats it as already satisfied"},
      {kNeverSubmittedTask, Severity::kWarning,
       "task interface has implementation variants but no execute site ever "
       "submits it"},
      {kMemoryCapacityExceeded, Severity::kError,
       "peak bytes the runtime's schedule keeps resident on a device exceed "
       "the capacity its PDL MemoryRegion declares (SIZE)"},
      {kNoTransferPath, Severity::kWarning,
       "modeled schedule moves data to a device whose PU has no declared "
       "Interconnect to its controller; transfer cost falls back to the "
       "runtime's default link"},
      {kTransferBoundTask, Severity::kWarning,
       "task whose modeled transfer time under declared BANDWIDTH_GB_S / "
       "LATENCY_US exceeds its modeled compute time on the chosen device"},
      {kLoadImbalance, Severity::kWarning,
       "device left idle for most of the modeled makespan while the "
       "schedule runs far above its critical-path lower bound"},
      {kInterconnectOversubscribed, Severity::kWarning,
       "declared Interconnect carries overlapping modeled transfers for a "
       "significant fraction of the makespan (contention window)"},
      {kMcDeadlock, Severity::kError,
       "an explored interleaving left submitted tasks that never completed, "
       "failed, or were cancelled (scheduler went dry with work pending)"},
      {kMcDivergentReplay, Severity::kError,
       "an explored interleaving diverged from the canonical run (output "
       "hash, replay state, or device virtual-clock monotonicity)"},
      {kMcLostTask, Severity::kError,
       "exactly-once execution violated in an explored interleaving (double "
       "execution after re-routing, or completed-and-failed)"},
      {kMcUnboundedRetryCycle, Severity::kError,
       "a task consumed more execution attempts than the retry budget "
       "allows in an explored interleaving"},
      {kToleranceExceeded, Severity::kError,
       "propagated worst-case error bound of a buffer's final contents "
       "exceeds its declared tolerance"},
      {kUnmodeledWrite, Severity::kWarning,
       "task with no declared error model writes a tolerance-carrying "
       "buffer, so its bound cannot be established"},
      {kAccumulationBlowup, Severity::kWarning,
       "long RAW chain through rounding kernels whose compound error bound "
       "dwarfs any single step (accumulation-depth blow-up)"},
      {kVacuousTolerance, Severity::kInfo,
       "buffer declares a tolerance but no input range reaches it, so the "
       "propagated bound is vacuous (declare `range` on the inputs)"},
  };
  return catalog;
}

const RuleInfo* find_rule(std::string_view id_or_number) {
  for (const RuleInfo& rule : rule_catalog()) {
    const std::string_view id = rule.id;
    if (id == id_or_number) return &rule;
    // Bare-number form: the prefix before the first '-'.
    const auto dash = id.find('-');
    if (dash != std::string_view::npos && id.substr(0, dash) == id_or_number) {
      return &rule;
    }
  }
  return nullptr;
}

namespace {

std::size_t common_prefix(std::string_view a, std::string_view b) {
  std::size_t n = 0;
  while (n < a.size() && n < b.size() && a[n] == b[n]) ++n;
  return n;
}

/// Plain Levenshtein distance; the catalog is tiny, quadratic is fine.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string suggest_rule(std::string_view id_or_number) {
  // Users write either the bare number ("A403") or the full id; suggest in
  // the same form they used so the fix is copy-pasteable.
  const bool bare = id_or_number.find('-') == std::string_view::npos;
  std::string best;
  std::size_t best_distance = 0;
  std::size_t best_prefix = 0;
  for (const RuleInfo& rule : rule_catalog()) {
    std::string_view candidate = rule.id;
    if (bare) {
      const auto dash = candidate.find('-');
      if (dash != std::string_view::npos) candidate = candidate.substr(0, dash);
    }
    const std::size_t distance = edit_distance(id_or_number, candidate);
    // Equal-distance ties go to the candidate sharing the longer prefix
    // ("A510" suggests "A501", not "A101"), then to catalog order.
    const std::size_t prefix = common_prefix(id_or_number, candidate);
    if (best.empty() || distance < best_distance ||
        (distance == best_distance && prefix > best_prefix)) {
      best = std::string(candidate);
      best_distance = distance;
      best_prefix = prefix;
    }
  }
  // "Plausibly close": a couple of edits, scaled up for long full ids (so
  // "A510" suggests "A501", but unrelated strings suggest nothing).
  const std::size_t budget = std::max<std::size_t>(2, id_or_number.size() / 3);
  if (best_distance > budget) return {};
  return best;
}

}  // namespace analysis
