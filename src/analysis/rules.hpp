// The pdlcheck rule catalog: stable ids, default severities and one-line
// summaries for every cross-layer static-analysis rule.
//
// Rule id scheme (docs/ANALYSIS.md has the full catalog with examples):
//   A1xx  PDL platform lint beyond the structural validator's V1-V12
//   A3xx  program-platform matching (Cascabel pragmas vs the target PDL)
//   A4xx  task-graph analysis (hazards, aliasing, cycles)
//   A5xx  schedule-aware capacity & interference analysis (pure-sim run)
// Ids are of the form "A301-dead-variant"; user-facing options accept the
// full id or the bare number ("A301").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pdl/diagnostics.hpp"

namespace analysis {

struct RuleInfo {
  const char* id;  ///< Full stable id, e.g. "A301-dead-variant".
  pdl::Severity default_severity = pdl::Severity::kWarning;
  const char* summary;  ///< One line for --list-rules and the docs.
};

/// Every rule pdlcheck knows, in id order.
const std::vector<RuleInfo>& rule_catalog();

/// Catalog entry by full id or bare number ("A301-dead-variant" or "A301");
/// nullptr when unknown.
const RuleInfo* find_rule(std::string_view id_or_number);

/// The catalog id closest to a misspelled rule id (edit distance over the
/// form the user wrote: bare numbers compare against bare numbers, full ids
/// against full ids). Empty when nothing is plausibly close — tools use
/// this for "unknown rule 'A999'; did you mean 'A403'?" errors.
std::string suggest_rule(std::string_view id_or_number);

// Full rule ids, shared between the analyzer and its tests.
inline constexpr const char* kUnreachableWorkerMemory = "A101-unreachable-worker-memory";
inline constexpr const char* kUnreferencedMemoryRegion = "A102-unreferenced-memory-region";
inline constexpr const char* kPropertySanity = "A103-property-sanity";
inline constexpr const char* kDescriptorConsistency = "A104-descriptor-consistency";
inline constexpr const char* kUndeclaredExtensionNamespace =
    "A105-undeclared-extension-namespace";
inline constexpr const char* kQuantitySanity = "A106-quantity-sanity";
inline constexpr const char* kDeadVariant = "A301-dead-variant";
inline constexpr const char* kNoExecutableVariant = "A302-no-executable-variant";
inline constexpr const char* kArityMismatch = "A303-arity-mismatch";
inline constexpr const char* kVariantSignatureConflict =
    "A304-variant-signature-conflict";
inline constexpr const char* kUnknownDistributionParam =
    "A305-unknown-distribution-param";
inline constexpr const char* kUnknownExecutionGroup = "A306-unknown-execution-group";
inline constexpr const char* kUnorderedWriteWrite = "A401-unordered-write-write";
inline constexpr const char* kUnorderedReadWrite = "A402-unordered-read-write";
inline constexpr const char* kPartitionAliasing = "A403-partition-aliasing";
inline constexpr const char* kDependencyCycle = "A404-dependency-cycle";
inline constexpr const char* kUnknownDependency = "A405-unknown-dependency";
inline constexpr const char* kNeverSubmittedTask = "A406-never-submitted-task";
inline constexpr const char* kMemoryCapacityExceeded = "A501-memory-capacity-exceeded";
inline constexpr const char* kNoTransferPath = "A502-no-transfer-path";
inline constexpr const char* kTransferBoundTask = "A503-transfer-bound-task";
inline constexpr const char* kLoadImbalance = "A504-load-imbalance";
inline constexpr const char* kInterconnectOversubscribed =
    "A505-interconnect-oversubscribed";

// A6xx — model-checking findings (docs/MODEL_CHECKING.md): safety
// invariants the starmc explorer checks at every terminal state of the
// deterministic engine's reduced interleaving space. Each finding carries a
// replayable decision trace as its evidence.
inline constexpr const char* kMcDeadlock = "A601-deadlock";
inline constexpr const char* kMcDivergentReplay = "A602-divergent-replay";
inline constexpr const char* kMcLostTask = "A603-lost-task";
inline constexpr const char* kMcUnboundedRetryCycle =
    "A604-unbounded-retry-cycle";

// A7xx — numerical-accuracy analysis (docs/ANALYSIS.md "Accuracy rules"):
// forward error-bound propagation over the task graph's RAW edges using the
// declared per-task error models and per-buffer tolerance/range directives.
inline constexpr const char* kToleranceExceeded = "A701-tolerance-exceeded";
inline constexpr const char* kUnmodeledWrite = "A702-unmodeled-write";
inline constexpr const char* kAccumulationBlowup = "A703-accumulation-blowup";
inline constexpr const char* kVacuousTolerance = "A704-vacuous-tolerance";

}  // namespace analysis
