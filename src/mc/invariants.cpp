#include "mc/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "mc/explorer.hpp"

namespace mc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t* h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void mix_u64(std::uint64_t* h, std::uint64_t v) { mix(h, &v, sizeof(v)); }

/// Quantize a virtual time so hashing is robust to the last float ulp
/// while still distinguishing genuinely different schedules.
std::uint64_t quantize(double vtime) {
  return static_cast<std::uint64_t>(std::llround(vtime * 1e9));
}

}  // namespace

std::uint64_t state_hash(const starvm::EngineStats& stats,
                         std::uint64_t output_hash) {
  std::uint64_t h = kFnvOffset;
  mix_u64(&h, stats.tasks_submitted);
  mix_u64(&h, stats.tasks_completed);
  mix_u64(&h, stats.failed_tasks);
  mix_u64(&h, stats.cancelled_tasks);
  mix_u64(&h, stats.retries);
  mix_u64(&h, stats.reroutes);
  for (const starvm::TaskTrace& t : stats.trace) {
    mix_u64(&h, t.id);
    mix_u64(&h, static_cast<std::uint64_t>(t.device + 1));
    mix_u64(&h, quantize(t.start_vtime));
    mix_u64(&h, quantize(t.finish_vtime));
  }
  for (const std::string& e : stats.errors) mix(&h, e.data(), e.size());
  mix_u64(&h, output_hash);
  return h;
}

std::vector<Violation> check_invariants(const RunOutcome& run,
                                        const InvariantContext& ctx) {
  std::vector<Violation> out;
  const starvm::EngineStats& stats = run.stats;

  // Terminal accounting: who completed, who permanently failed, who was
  // cancelled. Trace rows are completions; fault events carry the rest.
  std::map<starvm::TaskId, int> completed;
  for (const starvm::TaskTrace& t : stats.trace) ++completed[t.id];
  std::set<starvm::TaskId> failed;
  std::set<starvm::TaskId> cancelled;
  for (const starvm::FaultEvent& ev : stats.fault_events) {
    if (ev.kind == starvm::FaultEvent::Kind::kTaskFailed) failed.insert(ev.task);
    if (ev.kind == starvm::FaultEvent::Kind::kCancelled) cancelled.insert(ev.task);
  }

  // A601: every submitted task must reach *some* terminal state. An
  // unaccounted task means the scheduler went dry while work was pending —
  // in the deterministic engine that is the lost-wakeup / stuck-queue
  // shape, and in a cyclic graph it is a true dependency deadlock.
  if (ctx.expected_tasks > 0) {
    std::vector<starvm::TaskId> stuck;
    for (std::size_t i = 1; i <= ctx.expected_tasks; ++i) {
      const auto id = static_cast<starvm::TaskId>(i);
      if (completed.count(id) == 0 && failed.count(id) == 0 &&
          cancelled.count(id) == 0) {
        stuck.push_back(id);
      }
    }
    if (!stuck.empty()) {
      std::string msg = std::to_string(stuck.size()) +
                        " task(s) never completed, failed, or cancelled:";
      for (std::size_t i = 0; i < stuck.size() && i < 5; ++i) {
        msg += " #" + std::to_string(stuck[i]);
      }
      if (stuck.size() > 5) msg += " ...";
      msg += " (scheduler went dry with work pending)";
      out.push_back({"A601-deadlock", msg});
    }
  }

  // A603: exactly-once execution. A duplicate trace row means a task ran
  // to completion twice (e.g. re-routed off a blacklist but also executed
  // on the original device); completed-and-failed means its terminal state
  // is self-contradictory.
  for (const auto& [id, count] : completed) {
    if (count > 1) {
      out.push_back({"A603-lost-task",
                     "task #" + std::to_string(id) + " completed " +
                         std::to_string(count) +
                         " times (double execution after re-routing)"});
    }
    if (failed.count(id) != 0) {
      out.push_back({"A603-lost-task",
                     "task #" + std::to_string(id) +
                         " both completed and permanently failed"});
    }
    if (cancelled.count(id) != 0) {
      out.push_back({"A603-lost-task",
                     "task #" + std::to_string(id) +
                         " both completed and was cancelled"});
    }
  }

  // A602a: numeric equivalence with the canonical interleaving. Only
  // meaningful when the run terminated the same way (a fault plan that
  // fires schedule-dependently legitimately changes the outcome — callers
  // disable check_serial for those plans).
  if (ctx.check_serial && ctx.has_canonical &&
      run.output_hash != ctx.canonical_hash) {
    out.push_back(
        {"A602-divergent-replay",
         "terminal output hash " + std::to_string(run.output_hash) +
             " diverges from canonical run " +
             std::to_string(ctx.canonical_hash) +
             " (results depend on the interleaving)"});
  }

  // A602b: per-device monotone virtual-clock progress. Two completions on
  // one device must not overlap, and no task may finish before it starts.
  // EngineStats::trace lists the rows by start time.
  {
    std::map<starvm::DeviceId, double> last_finish;
    constexpr double kSlack = 1e-9;
    for (const starvm::TaskTrace& t : stats.trace) {
      if (t.finish_vtime + kSlack < t.start_vtime) {
        out.push_back({"A602-divergent-replay",
                       "task #" + std::to_string(t.id) +
                           " finishes before it starts on device " +
                           std::to_string(t.device)});
        continue;
      }
      auto [it, inserted] = last_finish.try_emplace(t.device, t.finish_vtime);
      if (!inserted) {
        if (t.start_vtime + kSlack < it->second) {
          out.push_back({"A602-divergent-replay",
                         "device " + std::to_string(t.device) +
                             " virtual clock ran backwards: task #" +
                             std::to_string(t.id) + " starts at " +
                             std::to_string(t.start_vtime) +
                             " before previous finish " +
                             std::to_string(it->second)});
        }
        it->second = std::max(it->second, t.finish_vtime);
      }
    }
  }

  // A604: bounded retries. The attempt chain records every attempt that
  // ended; more entries for one task than the ceiling allows means the
  // retry/blacklist interplay re-queued it in a cycle.
  if (ctx.attempt_ceiling > 0) {
    std::map<starvm::TaskId, int> max_attempt;
    for (const starvm::TaskAttempt& a : stats.attempts) {
      auto& slot = max_attempt[a.task];
      slot = std::max(slot, a.attempt);
    }
    for (const auto& [id, attempts] : max_attempt) {
      if (attempts > ctx.attempt_ceiling) {
        out.push_back(
            {"A604-unbounded-retry-cycle",
             "task #" + std::to_string(id) + " consumed " +
                 std::to_string(attempts) + " attempts (budget allows " +
                 std::to_string(ctx.attempt_ceiling) +
                 "): retry/re-route cycle exceeds the configured budget"});
      }
    }
  }

  return out;
}

}  // namespace mc
