// Fault-tolerance tests: FaultPlan parsing/determinism, the failure return
// channel, retry/backoff, blacklisting with re-routing, the watchdog, and
// the end-to-end acceptance run (killed accelerator, correct numerics on
// survivors).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernels/cholesky.hpp"
#include "kernels/matrix.hpp"
#include "solvers/tiled_cholesky.hpp"
#include "starvm/engine.hpp"

namespace starvm {
namespace {

Codelet make_codelet(std::string name, std::function<void(const ExecContext&)> fn,
                     DeviceKind kind = DeviceKind::kCpu) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{kind, std::move(fn)});
  return c;
}

std::shared_ptr<const FaultPlan> plan(std::string_view spec) {
  auto parsed = FaultPlan::parse(spec);
  EXPECT_TRUE(parsed.ok()) << parsed.error().str();
  return std::make_shared<const FaultPlan>(std::move(parsed).value());
}

std::uint64_t count_events(const EngineStats& stats, FaultEvent::Kind kind) {
  std::uint64_t n = 0;
  for (const FaultEvent& e : stats.fault_events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  auto p = FaultPlan::parse(
      "fail:task=3,attempts=2,device=1; kill:device=2,after=5; "
      "delay:ms=0.5,task=7; random:rate=0.25,seed=42,device=0");
  ASSERT_TRUE(p.ok()) << p.error().str();
  EXPECT_EQ(p.value().rule_count(), 4u);
  EXPECT_FALSE(p.value().empty());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  auto p = FaultPlan::parse("");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().empty());
  EXPECT_FALSE(p.value().decide(1, 1, 0, 0).fail);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse("explode:task=1").ok());
  EXPECT_FALSE(FaultPlan::parse("fail:device=1").ok());   // fail needs task=
  EXPECT_FALSE(FaultPlan::parse("kill:after=2").ok());    // kill needs device=
  EXPECT_FALSE(FaultPlan::parse("delay:task=1").ok());    // delay needs ms=
  EXPECT_FALSE(FaultPlan::parse("random:seed=1").ok());   // random needs rate=
  EXPECT_FALSE(FaultPlan::parse("random:rate=1.5").ok());  // rate outside [0,1]
  EXPECT_FALSE(FaultPlan::parse("fail:task").ok());        // not key=value
  EXPECT_FALSE(FaultPlan::parse("fail:task=nope").ok());
}

TEST(FaultPlan, FailRuleMatchesTaskAttemptAndDevice) {
  auto p = FaultPlan::parse("fail:task=3,attempts=2,device=1");
  ASSERT_TRUE(p.ok());
  const FaultPlan& fp = p.value();
  EXPECT_TRUE(fp.decide(3, 1, 1, 0).fail);
  EXPECT_TRUE(fp.decide(3, 2, 1, 0).fail);
  EXPECT_FALSE(fp.decide(3, 3, 1, 0).fail);  // attempts exhausted
  EXPECT_FALSE(fp.decide(3, 1, 0, 0).fail);  // wrong device
  EXPECT_FALSE(fp.decide(4, 1, 1, 0).fail);  // wrong task
}

TEST(FaultPlan, KillRuleFiresAfterCompletions) {
  auto p = FaultPlan::parse("kill:device=1,after=3");
  ASSERT_TRUE(p.ok());
  const FaultPlan& fp = p.value();
  EXPECT_FALSE(fp.decide(9, 1, 1, 2).fail);
  EXPECT_TRUE(fp.decide(9, 1, 1, 3).fail);
  EXPECT_TRUE(fp.decide(9, 5, 1, 100).fail);  // dead forever, every attempt
  EXPECT_FALSE(fp.decide(9, 1, 0, 100).fail);
}

TEST(FaultPlan, DelaysAccumulateAcrossRules) {
  auto p = FaultPlan::parse("delay:ms=2; delay:ms=3,device=1");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value().decide(1, 1, 1, 0).delay_seconds, 0.005);
  EXPECT_DOUBLE_EQ(p.value().decide(1, 1, 0, 0).delay_seconds, 0.002);
  EXPECT_DOUBLE_EQ(p.value().decide(1, 2, 1, 0).delay_seconds, 0.0);  // attempt > 1
}

TEST(FaultPlan, RandomRuleIsDeterministicInPlanInputs) {
  auto p = FaultPlan::parse("random:rate=0.5,seed=7");
  ASSERT_TRUE(p.ok());
  const FaultPlan& fp = p.value();
  // Pure function: same (task, attempt) always decides the same way,
  // regardless of device or how often we ask.
  for (TaskId t = 1; t <= 32; ++t) {
    const bool first = fp.decide(t, 1, 0, 0).fail;
    EXPECT_EQ(fp.decide(t, 1, 1, 5).fail, first);
    EXPECT_EQ(fp.decide(t, 1, 0, 0).fail, first);
  }
  EXPECT_TRUE(FaultPlan::parse("random:rate=1,seed=1").value().decide(1, 1, 0, 0).fail);
  EXPECT_FALSE(FaultPlan::parse("random:rate=0,seed=1").value().decide(1, 1, 0, 0).fail);
}

// --- retry / permanent failure ----------------------------------------------

TEST(FaultTolerance, InjectedFailureRetriesThenSucceeds) {
  EngineConfig config = EngineConfig::cpus(1);
  config.fault_plan = plan("fail:task=1,attempts=1");
  Engine engine(std::move(config));

  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  std::atomic<int> runs{0};
  Codelet c = make_codelet("bump", [&](const ExecContext& ctx) {
    ctx.buffer(0)[0] += 1.0;
    ++runs;
  });
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "bump"});
  EXPECT_TRUE(engine.wait_all().ok());

  // The doomed attempt must not have executed the kernel: a retried
  // in-place update would otherwise run twice.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_DOUBLE_EQ(data[0], 1.0);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.task_failures, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed_tasks, 0u);
  EXPECT_EQ(count_events(stats, FaultEvent::Kind::kFailure), 1u);
  EXPECT_EQ(count_events(stats, FaultEvent::Kind::kRetry), 1u);
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].failures, 1u);
  EXPECT_FALSE(stats.devices[0].blacklisted);
}

TEST(FaultTolerance, BudgetExhaustionFailsTaskAndCancelsSuccessors) {
  EngineConfig config = EngineConfig::cpus(1);
  config.fault_plan = plan("fail:task=1,attempts=99");
  config.fault_tolerance.max_retries = 2;
  config.fault_tolerance.blacklist_after = 0;  // isolate the retry budget
  Engine engine(std::move(config));

  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet w = make_codelet("w", [](const ExecContext&) {});
  engine.submit(TaskDesc{&w, {{h, Access::kReadWrite}}, "writer"});
  engine.submit(TaskDesc{&w, {{h, Access::kReadWrite}}, "dependent"});

  const auto status = engine.wait_all();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().str().find("1 task(s) failed"), std::string::npos);
  EXPECT_NE(status.error().str().find("cancelled"), std::string::npos);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.task_failures, 3u);  // initial + 2 retries
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failed_tasks, 1u);
  EXPECT_EQ(stats.cancelled_tasks, 1u);
  ASSERT_EQ(stats.errors.size(), 1u);
  EXPECT_NE(stats.errors[0].find("writer"), std::string::npos);

  // Failures are sticky: draining again still reports the error, and a new
  // task touching the poisoned handle is cancelled at submission.
  EXPECT_FALSE(engine.wait_all().ok());
  engine.submit(TaskDesc{&w, {{h, Access::kRead}}, "late"});
  EXPECT_FALSE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().cancelled_tasks, 2u);
}

// The permanent failure and its cascade happen when the last attempt ends,
// not when the task first became ready: the fault log stays in
// virtual-clock order.
TEST(FaultTolerance, PermanentFailureIsStampedNoEarlierThanItsLastAttempt) {
  for (const ExecutionMode mode :
       {ExecutionMode::kPureSim, ExecutionMode::kDeterministic}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EngineConfig config = EngineConfig::cpus(2);
    config.mode = mode;
    config.fault_plan = plan("fail:task=1,attempts=99");
    config.fault_tolerance.max_retries = 2;
    config.fault_tolerance.blacklist_after = 0;
    Engine engine(std::move(config));
    std::vector<double> data(4, 0.0);
    DataHandle* h = engine.register_vector(data.data(), data.size());
    Codelet w = make_codelet("w", [](const ExecContext&) {});
    engine.submit(TaskDesc{&w, {{h, Access::kReadWrite}}, "writer"});
    engine.submit(TaskDesc{&w, {{h, Access::kReadWrite}}, "dependent"});
    engine.submit(TaskDesc{&w, {{h, Access::kRead}}, "reader"});
    ASSERT_FALSE(engine.wait_all().ok());

    const EngineStats stats = engine.stats();
    double last_failure = -1.0;
    int permanent = 0;
    int cancelled = 0;
    for (const FaultEvent& e : stats.fault_events) {
      if (e.kind == FaultEvent::Kind::kFailure) last_failure = e.vtime;
      if (e.kind == FaultEvent::Kind::kTaskFailed) ++permanent;
      if (e.kind == FaultEvent::Kind::kCancelled) ++cancelled;
      if (e.kind == FaultEvent::Kind::kTaskFailed ||
          e.kind == FaultEvent::Kind::kCancelled) {
        EXPECT_GE(e.vtime, last_failure) << to_string(e.kind);
      }
    }
    EXPECT_EQ(permanent, 1);
    EXPECT_EQ(cancelled, 2);
    EXPECT_GT(last_failure, 0.0);
    for (std::size_t i = 1; i < stats.fault_events.size(); ++i) {
      EXPECT_GE(stats.fault_events[i].vtime, stats.fault_events[i - 1].vtime) << i;
    }
  }
}

// A reader submitted after its writer failed is cancelled at submission;
// its attempt chain holds that one cancellation, as a cascade-cancelled
// task's does.
TEST(FaultTolerance, TaskCancelledAtSubmissionHasOneCancelledAttempt) {
  EngineConfig config = EngineConfig::cpus(1);
  config.fault_plan = plan("fail:task=1,attempts=99");
  config.fault_tolerance.blacklist_after = 0;
  Engine engine(std::move(config));

  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet w = make_codelet("w", [](const ExecContext&) {});
  engine.submit(TaskDesc{&w, {{h, Access::kReadWrite}}, "writer"});
  ASSERT_FALSE(engine.wait_all().ok());
  const TaskId reader = engine.submit(TaskDesc{&w, {{h, Access::kRead}}, "reader"});
  EXPECT_FALSE(engine.wait_all().ok());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled_tasks, 1u);
  std::vector<TaskAttempt> chain;
  for (const TaskAttempt& a : stats.attempts) {
    if (a.task == reader) chain.push_back(a);
  }
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].outcome, TaskAttempt::Outcome::kCancelled);
  EXPECT_EQ(chain[0].attempt, 0);
  EXPECT_EQ(chain[0].device, -1);
  EXPECT_NE(chain[0].cause.find("before submission"), std::string::npos)
      << chain[0].cause;
}

TEST(FaultTolerance, ExecContextFailReportsThroughStatus) {
  Engine engine(EngineConfig::cpus(1));  // no injection: organic failure
  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  std::atomic<int> runs{0};
  Codelet flaky = make_codelet("flaky", [&](const ExecContext& ctx) {
    if (runs.fetch_add(1) == 0) ctx.fail("numerical breakdown");
  });
  engine.submit(TaskDesc{&flaky, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(engine.stats().retries, 1u);
}

TEST(FaultTolerance, ThrownExceptionsAreCapturedAsFailures) {
  EngineConfig config = EngineConfig::cpus(1);
  config.fault_tolerance.max_retries = 0;
  Engine engine(std::move(config));
  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet thrower = make_codelet("thrower", [](const ExecContext&) {
    throw std::runtime_error("kernel exploded");
  });
  engine.submit(TaskDesc{&thrower, {{h, Access::kRead}}});
  const auto status = engine.wait_all();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().str().find("kernel exploded"), std::string::npos);
}

TEST(FaultTolerance, PerDeviceRetryBudgetOverridesEngineDefault) {
  EngineConfig config = EngineConfig::cpus(1);
  config.devices[0].max_retries = 0;  // PDL MAX_RETRIES=0: never retry here
  config.fault_tolerance.max_retries = 5;
  config.fault_plan = plan("fail:task=1,attempts=1");
  Engine engine(std::move(config));
  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  EXPECT_FALSE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().retries, 0u);
}

// --- blacklisting / re-routing -----------------------------------------------

TEST(FaultTolerance, BlacklistedDeviceQueueReroutesToSurvivor) {
  // Pure simulation queues everything before execution, so the dead
  // device's HEFT queue is non-empty when it gets blacklisted.
  EngineConfig config;
  for (int i = 0; i < 2; ++i) {
    DeviceSpec accel;
    accel.name = "gpu" + std::to_string(i);
    accel.kind = DeviceKind::kAccelerator;
    accel.sustained_gflops = 10.0;
    config.devices.push_back(accel);
  }
  config.mode = ExecutionMode::kPureSim;
  config.scheduler = SchedulerKind::kHeft;
  config.fault_plan = plan("kill:device=1,after=0");
  config.fault_tolerance.blacklist_after = 1;
  Engine engine(std::move(config));

  constexpr int kTasks = 8;
  std::vector<std::vector<double>> buffers(kTasks, std::vector<double>(256));
  Codelet c = make_codelet("work", [](const ExecContext&) {},
                           DeviceKind::kAccelerator);
  c.flops = [](const std::vector<BufferView>&) { return 1e6; };
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), buf.size());
    engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.devices_blacklisted, 1u);
  EXPECT_GE(stats.reroutes, 1u);  // drained from gpu1's queue at blacklist
  EXPECT_GE(stats.retries, 1u);   // the attempt that died retried elsewhere
  ASSERT_EQ(stats.devices.size(), 2u);
  EXPECT_TRUE(stats.devices[1].blacklisted);
  EXPECT_EQ(stats.devices[1].tasks_run, 0u);
  EXPECT_EQ(stats.devices[0].tasks_run, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(count_events(stats, FaultEvent::Kind::kBlacklist), 1u);
  EXPECT_GE(count_events(stats, FaultEvent::Kind::kReroute), 1u);
}

TEST(FaultTolerance, AllDevicesDeadFailsInsteadOfHanging) {
  EngineConfig config = EngineConfig::cpus(1);
  config.fault_plan = plan("kill:device=0");
  config.fault_tolerance.blacklist_after = 1;
  config.fault_tolerance.max_retries = 10;
  Engine engine(std::move(config));
  std::vector<double> data(4, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  EXPECT_FALSE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, 0u);
  EXPECT_EQ(stats.failed_tasks + stats.cancelled_tasks, 2u);
  EXPECT_EQ(stats.devices_blacklisted, 1u);
}

TEST(FaultTolerance, FaultStormDrainsInLinearTime) {
  // An accelerator that is dead from the start is blacklisted, and every
  // task queued on it then fails for good, each quoting its own attempt
  // chain. Best of 3 submit-and-drain times per task.
  const auto seconds_per_task = [](int tasks) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      EngineConfig config = EngineConfig::cpus(1);
      DeviceSpec accel;
      accel.name = "gpu";
      accel.kind = DeviceKind::kAccelerator;
      config.devices.push_back(accel);
      config.mode = ExecutionMode::kPureSim;
      config.fault_plan = plan("kill:device=1");
      Engine engine(std::move(config));
      std::vector<double> data(static_cast<std::size_t>(tasks), 1.0);
      DataHandle* h = engine.register_vector(data.data(), data.size());
      const std::vector<DataHandle*> blocks = engine.partition_vector(h, tasks);
      Codelet c = make_codelet("k", [](const ExecContext&) {}, DeviceKind::kAccelerator);
      const auto start = std::chrono::steady_clock::now();
      for (DataHandle* b : blocks) engine.submit(TaskDesc{&c, {{b, Access::kReadWrite}}});
      EXPECT_FALSE(engine.wait_all().ok());
      const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
      best = std::min(best, took.count());
    }
    return best / tasks;
  };
  const double small = seconds_per_task(2000);
  const double large = seconds_per_task(32000);
  // Linear: about 1x; one scan of the fault log per failed task would make
  // it about 16x.
  EXPECT_LT(large / small, 3.0);
}

/// Sixteen CPU tasks on sixteen blocks on two CPUs under `spec`; returns
/// wait_all()'s status message and EngineStats::errors.
std::pair<std::string, std::vector<std::string>> sixteen_under(std::string_view spec) {
  EngineConfig config = EngineConfig::cpus(2);
  config.mode = ExecutionMode::kPureSim;
  config.fault_plan = plan(spec);
  Engine engine(std::move(config));
  std::vector<double> data(16, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c = make_codelet("k", [](const ExecContext&) {});
  for (DataHandle* b : engine.partition_vector(h, 16)) {
    engine.submit(TaskDesc{&c, {{b, Access::kReadWrite}}});
  }
  const pdl::util::Status status = engine.wait_all();
  return {status.ok() ? std::string() : status.error().message, engine.stats().errors};
}

TEST(FaultTolerance, FailureDigestQuotesEachTasksAttemptChain) {
  // Task 14 is re-routed off the dead device, then exhausts its budget on
  // the survivor: its one error quotes the whole chain in log order, and
  // the last attempt's cause once, as the reason that heads it.
  const auto [one, one_errors] = sixteen_under("kill:device=1;fail:task=14,attempts=99");
  const std::string task14 =
      "task 14 'k': injected failure (task 14, attempt 3) [rerouted off device 1; "
      "attempt 1 on device 0: failed (injected failure (task 14, attempt 1)); "
      "attempt 2 on device 0: failed (injected failure (task 14, attempt 2)); "
      "attempt 3 on device 0: failed]";
  EXPECT_EQ(one_errors, std::vector<std::string>{task14});
  EXPECT_EQ(one, "1 task(s) failed: " + task14);

  // Every device dead: each task fails with its own chain, in the order
  // the tasks failed, and the status quotes the first three errors.
  const auto [all, all_errors] = sixteen_under("kill:device=0;kill:device=1");
  const auto dead = [](int task, const std::string& chain) {
    return "task " + std::to_string(task) +
           " 'k': no live device can execute codelet 'k'" + chain;
  };
  const std::string killed0 = "failed (device 0 killed after 0 task(s))";
  const std::string killed1 = "failed (device 1 killed after 0 task(s))";
  const std::string off0 = " [rerouted off device 0]";
  const std::string failed_then_off0 =
      " [attempt 1 on device 0: " + killed0 + "; rerouted off device 0]";
  EXPECT_EQ(all_errors,
            (std::vector<std::string>{
                dead(8, ""), dead(10, ""), dead(12, ""), dead(14, ""), dead(16, ""),
                dead(2, " [attempt 1 on device 1: " + killed1 + "]"),
                dead(4, " [attempt 1 on device 1: " + killed1 + "]"),
                dead(7, off0), dead(9, off0), dead(11, off0), dead(13, off0),
                dead(15, off0), dead(1, failed_then_off0), dead(3, failed_then_off0),
                dead(5, " [attempt 1 on device 0: " + killed0 + "]"),
                "task 6 'k': device 1 killed after 0 task(s) [attempt 1 on device 1: "
                "failed]"}));
  EXPECT_EQ(all, "16 task(s) failed: " + dead(8, "") + "; " + dead(10, "") + "; " +
                     dead(12, "") + "; ... (13 more, see EngineStats::errors)");
}

// --- acceptance: killed accelerator mid-DAG ----------------------------------

/// SPD matrix: M·Mᵀ + n·I with random M.
kernels::Matrix spd_matrix(std::size_t n, unsigned seed) {
  kernels::Matrix m(n, n);
  m.fill_random(seed);
  kernels::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = i == j ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += m.at(i, k) * m.at(j, k);
      a.at(i, j) = sum;
    }
  }
  return a;
}

TEST(FaultTolerance, CholeskyCompletesWhenAcceleratorDiesMidDag) {
  const std::size_t n = 64;
  const int tiles = 4;
  kernels::Matrix a = spd_matrix(n, 21);
  kernels::Matrix original = a;

  EngineConfig config;
  DeviceSpec cpu;
  cpu.name = "cpu";
  // Modeled-slow CPU: with 16x16 tiles the transfer latency would otherwise
  // make HEFT keep every kernel on the host and gpu1 would never be
  // exercised. Only the cost model sees this rate; execution is real.
  cpu.sustained_gflops = 0.05;
  config.devices.push_back(cpu);
  for (int i = 0; i < 2; ++i) {
    DeviceSpec accel;
    accel.name = "gpu" + std::to_string(i);
    accel.kind = DeviceKind::kAccelerator;
    accel.sustained_gflops = 50.0;
    config.devices.push_back(accel);
  }
  // Device 2 (gpu1) dies after completing 3 tasks; one consecutive failure
  // is enough to blacklist it, and its work re-routes to cpu + gpu0.
  // Deterministic mode: kernels execute for real (the residual check below
  // needs genuine numerics) while scheduling replays identically, so the
  // exact per-device task counts are stable across runs.
  config.mode = ExecutionMode::kDeterministic;
  config.fault_plan = plan("kill:device=2,after=3");
  config.fault_tolerance.blacklist_after = 1;
  Engine engine(std::move(config));

  auto result = solvers::tiled_cholesky(engine, a.data(), n, tiles);
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_LT(kernels::cholesky_residual(n, a.data(), n, original.data(), n), 1e-8);

  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  EXPECT_TRUE(stats.devices[2].blacklisted);
  EXPECT_EQ(stats.devices[2].tasks_run, 3u);
  EXPECT_GE(stats.devices[2].failures, 1u);
  EXPECT_EQ(stats.devices_blacklisted, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.failed_tasks, 0u);
  EXPECT_EQ(stats.cancelled_tasks, 0u);
  // Every submitted task completed, all on the survivors.
  const auto submitted =
      static_cast<std::uint64_t>(result.value().tasks_submitted);
  EXPECT_EQ(stats.tasks_completed, submitted);
  EXPECT_EQ(stats.devices[0].tasks_run + stats.devices[1].tasks_run +
                stats.devices[2].tasks_run,
            submitted);
}

}  // namespace
}  // namespace starvm
