// Fault-tolerance vocabulary of the starvm engine: the retry/backoff/
// blacklist/watchdog knobs and the deterministic fault-injection plan.
//
// Real heterogeneous platforms lose accelerators, stall on a slow link, or
// misreport capabilities; a runtime that targets them needs explicit
// failure semantics (docs/RUNTIME.md "Failure semantics"). The FaultPlan
// exists so those paths are testable without real hardware faults: it is a
// pure function of (task id, attempt, device, device progress), so a plan
// replays identically across runs regardless of thread interleaving.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "starvm/types.hpp"
#include "util/result.hpp"

namespace starvm {

/// Knobs of the engine's recovery policy. Defaults keep recovery on but the
/// watchdog off (a watchdog needs a trustworthy cost estimate).
struct FaultToleranceConfig {
  /// Re-execution attempts granted to a task beyond its first try.
  int max_retries = 2;

  /// Exponential backoff charged to the *virtual* clock before retry k:
  /// backoff_base_ms * backoff_multiplier^(k-1). Never a real sleep — the
  /// model pays the price, wall time does not.
  double backoff_base_ms = 1.0;
  double backoff_multiplier = 2.0;

  /// Consecutive failures on one device before it is blacklisted: it stops
  /// receiving work and its queued tasks re-enter the scheduler restricted
  /// to the surviving devices. 0 disables blacklisting.
  int blacklist_after = 3;

  /// Watchdog: an attempt whose execution cost (measured on CPUs, modeled
  /// on accelerators, either way including injected delays) exceeds
  /// max(watchdog_min_seconds, perf-model estimate * watchdog_slack) is
  /// treated as a failed attempt (timeout). 0 disables the watchdog.
  double watchdog_slack = 0.0;
  double watchdog_min_seconds = 0.01;
};

/// A deterministic fault-injection plan, parsed from a spec string
/// (engine config `fault_plan`, `cascabelc --fault-plan`, or the
/// PDL_FAULT_PLAN environment variable, which only rt::Context reads).
///
/// Grammar: semicolon-separated directives, comma-separated key=value
/// fields after a `kind:` prefix.
///
///   fail:task=<id>[,attempts=<n>][,device=<d>]   fail attempts 1..n (n=1)
///   kill:device=<d>[,after=<n>]   every attempt on the device fails once
///                                 it has completed n tasks (n=0)
///   delay:ms=<x>[,task=<id>][,device=<d>][,attempts=<n>]
///                                 add x ms to the attempt's execution cost
///   random:rate=<p>,seed=<s>[,device=<d>]
///                                 fail with probability p, hashed from
///                                 (seed, task, attempt) — scheduling-
///                                 independent determinism
class FaultPlan {
 public:
  /// What the plan injects into one execution attempt.
  struct Injection {
    bool fail = false;
    double delay_seconds = 0.0;
    std::string reason;  ///< failure message when `fail`
  };

  static pdl::util::Result<FaultPlan> parse(std::string_view spec);

  /// Plan from $PDL_FAULT_PLAN; nullptr when unset or malformed (logged).
  /// rt::Context is its one caller: engines, the A5xx plan and starmc
  /// never consult the environment.
  static std::shared_ptr<const FaultPlan> from_env();

  /// Decide what happens to attempt `attempt` (1-based) of task `task` on
  /// `device`, which has successfully completed `device_tasks_completed`
  /// tasks so far. Pure: no internal state mutates.
  Injection decide(TaskId task, int attempt, DeviceId device,
                   std::uint64_t device_tasks_completed) const;

  bool empty() const { return rules_.empty(); }
  std::size_t rule_count() const { return rules_.size(); }

 private:
  enum class RuleKind { kFailTask, kKillDevice, kDelay, kRandom };
  struct Rule {
    RuleKind kind = RuleKind::kFailTask;
    TaskId task = 0;          ///< 0 = any task
    DeviceId device = -1;     ///< -1 = any device
    int attempts = 1;         ///< fail/delay: applies to attempts 1..attempts
    std::uint64_t after = 0;  ///< kill: completions before the device dies
    double delay_ms = 0.0;
    double rate = 0.0;
    std::uint64_t seed = 0;
  };
  std::vector<Rule> rules_;
};

}  // namespace starvm
