#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "discovery/presets.hpp"
#include "kernels/dgemm.hpp"
#include "kernels/matrix.hpp"
#include "partition_sweep.hpp"
#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"
#include "starvm/bridge.hpp"
#include "starvm/perf_store.hpp"
#include "util/string_util.hpp"
#include "wide_platform.hpp"

namespace cascabel::rt {
namespace {

using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

TaskRepository builtin_repo() {
  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  return repo;
}

TEST(Context, ConstructionRunsPreselection) {
  Context ctx(paper_platform_starpu_cpu(), builtin_repo());
  EXPECT_NE(ctx.selection().candidates("Idgemm"), nullptr);
  EXPECT_FALSE(pdl::has_errors(ctx.diagnostics()));
  EXPECT_EQ(ctx.engine().device_count(), 8u);
}

TEST(Context, VecaddExecutesWithBlockDistribution) {
  // The split of 4 blocks per device: the description's own choice runs
  // 1,000 elements on 8 cores as one task.
  Options options;
  options.blocks_per_device = 4;
  Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
  const std::size_t n = 1000;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  auto status = ctx.execute("Ivecadd", "cpu",
                            {arg(a.data(), n, AccessMode::kReadWrite,
                                 DistributionKind::kBlock),
                             arg(b.data(), n, AccessMode::kRead,
                                 DistributionKind::kBlock)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 3.0);
  // Block decomposition produced multiple tasks.
  EXPECT_GT(ctx.stats().tasks_completed, 1u);
}

TEST(Context, DgemmRowBandedMatchesReference) {
  Context ctx(paper_platform_starpu_cpu(), builtin_repo());
  const std::size_t n = 96;
  kernels::Matrix a(n, n), b(n, n), c(n, n), ref(n, n);
  a.fill_random(1);
  b.fill_random(2);

  auto status = ctx.execute(
      "Idgemm", "",
      {arg_matrix(c.data(), n, n, AccessMode::kReadWrite, DistributionKind::kBlock),
       arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
       arg_matrix(b.data(), n, n, AccessMode::kRead, DistributionKind::kNone)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());

  kernels::dgemm_naive(n, n, n, a.data(), b.data(), ref.data());
  EXPECT_LT(kernels::max_abs_diff(c.data(), ref.data(), n * n), 1e-9);
}

TEST(Partition, FirstSplitOfUnusedHandlesDrainsNothing) {
  // The simulation modes run tasks only inside wait_all. No task has used
  // the DGEMM's handles yet, so splitting them must not run the vecadd
  // that the program has not waited for.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 1000;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  const std::size_t m = 64;
  kernels::Matrix ma(m, m), mb(m, m), mc(m, m), ref(m, m);
  ma.fill_random(11);
  mb.fill_random(12);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  ASSERT_TRUE(ctx.execute("Idgemm", "",
                          {arg_matrix(mc.data(), m, m, AccessMode::kReadWrite,
                                      DistributionKind::kBlock),
                           arg_matrix(ma.data(), m, m, AccessMode::kRead,
                                      DistributionKind::kBlock),
                           arg_matrix(mb.data(), m, m, AccessMode::kRead,
                                      DistributionKind::kNone)})
                  .ok());
  EXPECT_EQ(ctx.stats().tasks_submitted, 5u);  // 1 vecadd + 4 DGEMM blocks
  EXPECT_EQ(ctx.stats().tasks_completed, 0u);
  ASSERT_TRUE(ctx.wait().ok());
  EXPECT_EQ(ctx.stats().tasks_completed, 5u);
  for (double v : a) EXPECT_EQ(v, 3.0);
  kernels::dgemm_naive(m, m, m, ma.data(), mb.data(), ref.data());
  EXPECT_LT(kernels::max_abs_diff(mc.data(), ref.data(), m * m), 1e-9);
}

TEST(Context, GpuPlatformUsesAccelerators) {
  Options options;
  options.mode = starvm::ExecutionMode::kHybrid;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 128;
  kernels::Matrix a(n, n), b(n, n), c(n, n), ref(n, n);
  a.fill_random(3);
  b.fill_random(4);

  auto status = ctx.execute(
      "Idgemm", "all",
      {arg_matrix(c.data(), n, n, AccessMode::kReadWrite, DistributionKind::kBlock),
       arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
       arg_matrix(b.data(), n, n, AccessMode::kRead, DistributionKind::kNone)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());

  kernels::dgemm_naive(n, n, n, a.data(), b.data(), ref.data());
  EXPECT_LT(kernels::max_abs_diff(c.data(), ref.data(), n * n), 1e-9);

  // Results are correct AND some work landed on the simulated GPUs.
  const auto stats = ctx.stats();
  std::uint64_t accel_tasks = 0;
  for (const auto& d : stats.devices) {
    if (d.kind == starvm::DeviceKind::kAccelerator) accel_tasks += d.tasks_run;
  }
  EXPECT_GT(accel_tasks, 0u);
}

TEST(Context, GroupRestrictsToGpuOnly) {
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo());
  const std::size_t n = 64;
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(5);
  b.fill_random(6);

  // Group "gpu" names only the two gpu workers: no smp variant applies,
  // but the fall-back (mapped to the Master) keeps CPU execution legal.
  auto status = ctx.execute(
      "Idgemm", "gpu",
      {arg_matrix(c.data(), n, n, AccessMode::kReadWrite, DistributionKind::kBlock),
       arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
       arg_matrix(b.data(), n, n, AccessMode::kRead, DistributionKind::kNone)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());
}

TEST(Context, MostSpecificUsableVariantWins) {
  // Two CPU variants of one interface: a generic smp one and a tuned one
  // with a tighter pattern. The tuned implementation must be selected.
  TaskRepository repo = TaskRepository::with_defaults();
  std::atomic<int> generic_runs{0}, tuned_runs{0};

  TaskVariant fallback;
  fallback.pragma.task_interface = "Imark";
  fallback.pragma.variant_name = "mark_seq";
  fallback.pragma.target_platforms = {"x86"};
  repo.add_variant(fallback);
  repo.bind(BoundImpl{"mark_seq", starvm::DeviceKind::kCpu,
                      [&](const starvm::ExecContext&) { ++generic_runs; }, nullptr});

  TaskVariant tuned;
  tuned.pragma.task_interface = "Imark";
  tuned.pragma.variant_name = "mark_tuned";
  tuned.pragma.target_platforms = {
      "pattern(M(ARCHITECTURE=x86)[W(ARCHITECTURE=x86_core)x8])"};
  repo.add_variant(tuned);
  repo.bind(BoundImpl{"mark_tuned", starvm::DeviceKind::kCpu,
                      [&](const starvm::ExecContext&) { ++tuned_runs; }, nullptr});

  Context ctx(paper_platform_starpu_cpu(), std::move(repo));
  std::vector<double> data(8, 0.0);
  ASSERT_TRUE(ctx.execute("Imark", "",
                          {arg(data.data(), 8, AccessMode::kRead,
                               DistributionKind::kNone)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  EXPECT_EQ(tuned_runs.load(), 1);
  EXPECT_EQ(generic_runs.load(), 0);
}

TEST(Context, WarmPerfStoreFlipsVariantSelection) {
  // Declared ranking prefers the non-fallback smp variant; a warm store
  // holding trustworthy measurements that say the fallback variant is
  // faster must flip the choice (the autotuning loop's pay-off).
  const pdl::Platform platform = paper_platform_starpu_cpu();
  auto engine_config = starvm::engine_config_from_platform(platform);
  ASSERT_TRUE(engine_config.ok());
  const std::uint64_t cores = starvm::class_key(engine_config.value().devices[0]);

  std::atomic<int> slow_runs{0}, fast_runs{0};
  const auto make_repo = [&]() {
    TaskRepository repo = TaskRepository::with_defaults();
    TaskVariant slow;
    slow.pragma.task_interface = "Ibench";
    slow.pragma.variant_name = "bench_slow";
    slow.pragma.target_platforms = {"smp"};
    repo.add_variant(slow);
    repo.bind(BoundImpl{"bench_slow", starvm::DeviceKind::kCpu,
                        [&](const starvm::ExecContext&) { ++slow_runs; }, nullptr});
    TaskVariant fast;
    fast.pragma.task_interface = "Ibench";
    fast.pragma.variant_name = "bench_fast";
    fast.pragma.target_platforms = {"x86"};
    repo.add_variant(fast);
    repo.bind(BoundImpl{"bench_fast", starvm::DeviceKind::kCpu,
                        [&](const starvm::ExecContext&) { ++fast_runs; }, nullptr});
    return repo;
  };
  std::vector<double> data(8, 0.0);
  const auto run_once = [&](const Options& options) {
    Context ctx(platform, make_repo(), options);
    EXPECT_TRUE(ctx.execute("Ibench", "",
                            {arg(data.data(), 8, AccessMode::kRead,
                                 DistributionKind::kNone)})
                    .ok());
    EXPECT_TRUE(ctx.wait().ok());
    bool flip_logged = false;
    for (const auto& d : ctx.diagnostics()) {
      if (d.str().find("measured-fastest") != std::string::npos) {
        flip_logged = true;
      }
    }
    return flip_logged;
  };

  // Cold: declared ranking wins, nothing to flip.
  EXPECT_FALSE(run_once(Options{}));
  EXPECT_GT(slow_runs.load(), 0);
  EXPECT_EQ(fast_runs.load(), 0);

  // Warm: the store says bench_fast measured 10x faster.
  const std::string path =
      std::string(::testing::TempDir()) + "rt_flip.perfstore";
  starvm::perf_store::Store store;
  store.entries = {{"bench_slow", cores, 1e-3, 5, 5.0},
                   {"bench_fast", cores, 1e-4, 5, 50.0}};
  ASSERT_TRUE(starvm::perf_store::save(store, path));
  slow_runs = 0;
  fast_runs = 0;
  Options warm;
  warm.perf_store_path = path;
  EXPECT_TRUE(run_once(warm));  // the flip lands in the decision log
  EXPECT_EQ(slow_runs.load(), 0);
  EXPECT_GT(fast_runs.load(), 0);

  // Below the sample threshold the measurement stays advisory-only.
  store.entries = {{"bench_slow", cores, 1e-3, 1, 5.0},
                   {"bench_fast", cores, 1e-4, 1, 50.0}};
  ASSERT_TRUE(starvm::perf_store::save(store, path));
  slow_runs = 0;
  fast_runs = 0;
  EXPECT_FALSE(run_once(warm));
  EXPECT_GT(slow_runs.load(), 0);
  EXPECT_EQ(fast_runs.load(), 0);
  std::remove(path.c_str());
}

TEST(Context, ResolvesTheEnvironmentOnceForItsEngine) {
  // The engine reads no environment; the front end of translated programs
  // resolves PDL_FAULT_PLAN and PDL_PERF_STORE and hands both over.
  const pdl::Platform platform = paper_platform_starpu_cpu();
  auto engine_config = starvm::engine_config_from_platform(platform);
  ASSERT_TRUE(engine_config.ok());
  starvm::perf_store::Store store;
  store.entries = {
      {"Ivecadd", starvm::class_key(engine_config.value().devices[0]), 1e-4, 5, 5.0}};
  const std::string path =
      std::string(::testing::TempDir()) + "rt_env.perfstore";
  ASSERT_TRUE(starvm::perf_store::save(store, path));
  // No ASSERT until the variables are unset again: they must not leak
  // into the tests that follow in this process.
  ::setenv("PDL_FAULT_PLAN", "fail:task=1", 1);
  ::setenv("PDL_PERF_STORE", path.c_str(), 1);
  {
    Context ctx(platform, builtin_repo());
    const auto& plan = ctx.engine().config().fault_plan;
    EXPECT_TRUE(plan != nullptr && plan->rule_count() == 1u);
    EXPECT_EQ(ctx.engine().config().perf_store_path, path);
    EXPECT_NE(ctx.perf_store(), nullptr);  // pre-selection read the same file
    std::vector<double> a(64, 1.0), b(64, 2.0);
    EXPECT_TRUE(ctx.execute("Ivecadd", "cpu",
                            {arg(a.data(), 64, AccessMode::kReadWrite,
                                 DistributionKind::kNone),
                             arg(b.data(), 64, AccessMode::kRead,
                                 DistributionKind::kNone)})
                    .ok());
    EXPECT_TRUE(ctx.wait().ok());  // the injected failure is retried
    EXPECT_EQ(ctx.stats().task_failures, 1u);
    EXPECT_EQ(ctx.stats().perf_store_entries, 1u);
  }
  {
    // An explicit plan wins over the environment.
    Options options;
    options.fault_plan = std::make_shared<const starvm::FaultPlan>();
    Context ctx(platform, builtin_repo(), options);
    EXPECT_EQ(ctx.engine().config().fault_plan, options.fault_plan);
  }
  ::unsetenv("PDL_FAULT_PLAN");
  ::unsetenv("PDL_PERF_STORE");
  std::remove(path.c_str());
}

TEST(Context, ForwardsTheFlightDumpEnvironment) {
  // PDL_FLIGHT_DUMP names where a translated program's failed run leaves
  // its post-mortem; the Context resolves it for its engine.
  const std::string prefix = std::string(::testing::TempDir()) + "rt_env_flight";
  Options options;
  options.fault_plan = std::make_shared<const starvm::FaultPlan>(
      starvm::FaultPlan::parse("fail:task=1,attempts=99").value());
  // No ASSERT until the variable is unset again.
  ::setenv("PDL_FLIGHT_DUMP", prefix.c_str(), 1);
  {
    Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
    std::vector<double> a(64, 1.0), b(64, 2.0);
    EXPECT_TRUE(ctx.execute("Ivecadd", "cpu",
                            {arg(a.data(), 64, AccessMode::kReadWrite,
                                 DistributionKind::kNone),
                             arg(b.data(), 64, AccessMode::kRead,
                                 DistributionKind::kNone)})
                    .ok());
    EXPECT_FALSE(ctx.wait().ok());
  }
  ::unsetenv("PDL_FLIGHT_DUMP");
  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value()) << "flight dump missing";
  EXPECT_NE(jsonl->find("\"reason\":\"wait_all_failure\""), std::string::npos);
  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

TEST(Context, AccuracyGuardVetoesFasterButLooserVariant) {
  // The autotuning flip meets the A7xx accuracy contract: a warm store says
  // the fp32-flavoured variant is 10x faster, but its declared error model
  // cannot meet the program's tolerance, so the guard refuses the flip and
  // keeps the accurate variant — and says so in the decision log. Relaxing
  // the tolerance re-enables the flip unchanged.
  const pdl::Platform platform = paper_platform_starpu_cpu();
  auto engine_config = starvm::engine_config_from_platform(platform);
  ASSERT_TRUE(engine_config.ok());
  const std::uint64_t cores = starvm::class_key(engine_config.value().devices[0]);

  std::atomic<int> accurate_runs{0}, loose_runs{0};
  const auto make_repo = [&]() {
    TaskRepository repo = TaskRepository::with_defaults();
    TaskVariant accurate;
    accurate.pragma.task_interface = "Ibench";
    accurate.pragma.variant_name = "bench_accurate";
    accurate.pragma.target_platforms = {"smp"};
    accurate.error_model =
        starvm::ErrorModel::rounding(1.0, starvm::ErrorModel::kUlpDouble);
    repo.add_variant(accurate);
    repo.bind(BoundImpl{"bench_accurate", starvm::DeviceKind::kCpu,
                        [&](const starvm::ExecContext&) { ++accurate_runs; },
                        nullptr});
    TaskVariant loose;
    loose.pragma.task_interface = "Ibench";
    loose.pragma.variant_name = "bench_loose";
    loose.pragma.target_platforms = {"x86"};
    loose.error_model =
        starvm::ErrorModel::rounding(3.0, starvm::ErrorModel::kUlpSingle);
    repo.add_variant(loose);
    repo.bind(BoundImpl{"bench_loose", starvm::DeviceKind::kCpu,
                        [&](const starvm::ExecContext&) { ++loose_runs; },
                        nullptr});
    return repo;
  };

  // Warm store: bench_loose measured 10x faster.
  const std::string path =
      std::string(::testing::TempDir()) + "rt_veto.perfstore";
  starvm::perf_store::Store store;
  store.entries = {{"bench_accurate", cores, 1e-3, 5, 5.0},
                   {"bench_loose", cores, 1e-4, 5, 50.0}};
  ASSERT_TRUE(starvm::perf_store::save(store, path));

  std::vector<double> data(8, 0.0);
  const auto run_once = [&](const Options& options) {
    Context ctx(platform, make_repo(), options);
    EXPECT_TRUE(ctx.execute("Ibench", "",
                            {arg(data.data(), 8, AccessMode::kRead,
                                 DistributionKind::kNone)})
                    .ok());
    EXPECT_TRUE(ctx.wait().ok());
    bool veto_logged = false;
    for (const auto& d : ctx.diagnostics()) {
      if (d.str().find("accuracy guard: veto") != std::string::npos) {
        veto_logged = true;
      }
    }
    return veto_logged;
  };

  // Tight tolerance: loose bound 3*1000*2^-24 ~ 1.8e-4 is vetoed, the
  // accurate variant's 1000*2^-53 ~ 1.1e-13 passes. No flip despite the
  // measured 10x, and the veto is logged.
  Options guarded;
  guarded.perf_store_path = path;
  guarded.accuracy.enabled = true;
  guarded.accuracy.tolerance = 1e-9;
  guarded.accuracy.depth = 1000.0;
  EXPECT_TRUE(run_once(guarded));
  EXPECT_GT(accurate_runs.load(), 0);
  EXPECT_EQ(loose_runs.load(), 0);

  // Relaxed tolerance: both bounds pass, the measured flip proceeds.
  accurate_runs = 0;
  loose_runs = 0;
  guarded.accuracy.tolerance = 1.0;
  EXPECT_FALSE(run_once(guarded));
  EXPECT_EQ(accurate_runs.load(), 0);
  EXPECT_GT(loose_runs.load(), 0);

  // Guard disabled behaves exactly like the plain flip test.
  accurate_runs = 0;
  loose_runs = 0;
  Options unguarded;
  unguarded.perf_store_path = path;
  EXPECT_FALSE(run_once(unguarded));
  EXPECT_EQ(accurate_runs.load(), 0);
  EXPECT_GT(loose_runs.load(), 0);
  std::remove(path.c_str());
}

TEST(Context, CalibrationAliasPersistsVariantKeyedRates) {
  // The engine observes each task under the chosen variant's name too, so
  // the persisted store carries rates the *selector* can compare across
  // variants — not just the opaque iface@group rows HEFT uses.
  const std::string path =
      std::string(::testing::TempDir()) + "rt_alias.perfstore";
  std::remove(path.c_str());
  Options options;
  options.perf_store_path = path;
  {
    Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
    const std::size_t n = 64;
    kernels::Matrix a(n, n), b(n, n), c(n, n);
    a.fill_random(1);
    b.fill_random(2);
    ASSERT_TRUE(ctx.execute("Idgemm", "all",
                            {arg_matrix(c.data(), n, n, AccessMode::kReadWrite,
                                        DistributionKind::kBlock),
                             arg_matrix(a.data(), n, n, AccessMode::kRead,
                                        DistributionKind::kBlock),
                             arg_matrix(b.data(), n, n, AccessMode::kRead,
                                        DistributionKind::kNone)})
                    .ok());
    EXPECT_TRUE(ctx.wait().ok());
  }  // engine shutdown persists the store

  const starvm::perf_store::LoadResult loaded = starvm::perf_store::load(path);
  ASSERT_EQ(loaded.status, starvm::perf_store::LoadStatus::kLoaded)
      << loaded.detail;
  bool has_row_key = false;
  bool has_variant_key = false;
  for (const starvm::perf_store::Entry& e : loaded.store.entries) {
    if (e.codelet.rfind("Idgemm@", 0) == 0) has_row_key = true;
    if (e.codelet == "dgemm_smp" || e.codelet == "dgemm_tiled" ||
        e.codelet == "dgemm_seq") {
      has_variant_key = true;
    }
  }
  EXPECT_TRUE(has_row_key);
  EXPECT_TRUE(has_variant_key);
  std::remove(path.c_str());
}

TEST(Context, CommittedFixturePreloadsItsGpuRateOnTheRuntimesDeviceList) {
  // The runtime's list sets one driver core aside per GPU, so gpu1 is not
  // the device it is in the every-PU list the plan uses; the fixture's gpu1
  // entries are keyed by its class and reach it all the same.
  const std::string root = PDL_SOURCE_DIR;
  auto platform =
      pdl::parse_platform_file(root + "/platforms/testbed-starpu-2gpu.pdl.xml");
  ASSERT_TRUE(platform.ok()) << platform.error().str();
  Options options;
  options.mode = starvm::ExecutionMode::kPureSim;
  options.perf_store_path = root + "/tests/fixtures/testbed-starpu-2gpu.perfstore";
  Context ctx(platform.value(), builtin_repo(), options);
  const starvm::EngineStats stats = ctx.stats();
  EXPECT_EQ(stats.perf_store_rejected, 0u);
  EXPECT_EQ(stats.perf_store_entries, 6u);
  const std::vector<starvm::DeviceSpec>& devices = ctx.engine().config().devices;
  const auto gpu1 = std::find_if(devices.begin(), devices.end(),
                                 [](const auto& d) { return d.name == "gpu1"; });
  ASSERT_NE(gpu1, devices.end());
  const std::size_t cls =
      starvm::device_classes(devices).of[static_cast<std::size_t>(gpu1 - devices.begin())];
  EXPECT_EQ(ctx.engine().perf_model().samples("dgemm_cuda", cls), 6u);
  EXPECT_DOUBLE_EQ(
      ctx.engine().perf_model().estimate("dgemm_cuda", cls, 153.40e9, 1.0), 1.0);
  ASSERT_NE(ctx.perf_store(), nullptr);
  EXPECT_EQ(ctx.perf_store()->entries.size(), 6u);
}

TEST(Context, UnknownInterfaceFails) {
  Context ctx(paper_platform_single(), builtin_repo());
  auto status = ctx.execute("Imissing", "", {});
  EXPECT_FALSE(status.ok());
}

TEST(Context, SequentialCallsReuseRegisteredData) {
  Context ctx(paper_platform_starpu_cpu(), builtin_repo());
  const std::size_t n = 256;
  std::vector<double> a(n, 0.0), b(n, 1.0);
  for (int iter = 0; iter < 3; ++iter) {
    auto status = ctx.execute("Ivecadd", "",
                              {arg(a.data(), n, AccessMode::kReadWrite,
                                   DistributionKind::kBlock),
                               arg(b.data(), n, AccessMode::kRead,
                                   DistributionKind::kBlock)});
    ASSERT_TRUE(status.ok());
  }
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Context, CyclicDistributionComputesSameResult) {
  Context ctx(paper_platform_starpu_cpu(), builtin_repo());
  const std::size_t n = 500;
  std::vector<double> a(n, 1.0), b(n, 5.0);
  auto status = ctx.execute("Ivecadd", "",
                            {arg(a.data(), n, AccessMode::kReadWrite,
                                 DistributionKind::kCyclic),
                             arg(b.data(), n, AccessMode::kRead,
                                 DistributionKind::kCyclic)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Context, HostModifiedInvalidatesReplicas) {
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo());
  const std::size_t n = 256;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "gpu",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  const auto transfers_before = ctx.stats().transfers;
  EXPECT_GT(transfers_before, 0u);

  // Direct host update of b, declared; re-running must re-transfer.
  std::fill(b.begin(), b.end(), 5.0);
  ctx.host_modified(b.data());
  ASSERT_TRUE(ctx.execute("Ivecadd", "gpu",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  EXPECT_GT(ctx.stats().transfers, transfers_before);
  for (double v : a) EXPECT_DOUBLE_EQ(v, 8.0);  // 1 + 2 + 5

  // Unknown pointers are a safe no-op.
  double unrelated = 0.0;
  ctx.host_modified(&unrelated);
}

TEST(Context, PointerReuseWithDifferentGeometryReRegisters) {
  Context ctx(paper_platform_starpu_cpu(), builtin_repo());
  std::vector<double> scratch(64 * 64, 1.0);
  std::vector<double> b(64 * 64, 1.0);

  // First use: a vector of 4096 elements.
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(scratch.data(), 64 * 64, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), 64 * 64, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());

  // Second use: the same buffer as a 64x64 matrix in a DGEMM.
  std::vector<double> a2(64 * 64, 0.0), c2(64 * 64, 0.0);
  ASSERT_TRUE(ctx.execute("Idgemm", "",
                          {arg_matrix(c2.data(), 64, 64, AccessMode::kReadWrite,
                                      DistributionKind::kBlock),
                           arg_matrix(a2.data(), 64, 64, AccessMode::kRead,
                                      DistributionKind::kBlock),
                           arg_matrix(scratch.data(), 64, 64, AccessMode::kRead,
                                      DistributionKind::kNone)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  // C = 0 + A2 (zeros) * scratch = 0; mainly: no crash, geometry honored.
  for (double v : c2) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Context, OneBufferUnderTwoDistributionsFailsNamingBothParameters) {
  // C += A·A with A passed both as BLOCK and as WHOLE: one registration per
  // pointer cannot be partitioned and whole at once, so the call must fail
  // up front instead of running on the wrong operand and reporting success.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 64;
  kernels::Matrix a(n, n), c(n, n);
  a.fill_random(9);
  auto status = ctx.execute(
      "Idgemm", "",
      {arg_matrix(c.data(), n, n, AccessMode::kReadWrite, DistributionKind::kBlock),
       arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kBlock),
       arg_matrix(a.data(), n, n, AccessMode::kRead, DistributionKind::kNone)});
  ASSERT_FALSE(status.ok());
  const std::string message = status.error().str();
  EXPECT_NE(message.find("'A' (BLOCK"), std::string::npos) << message;
  EXPECT_NE(message.find("'B' (none"), std::string::npos) << message;
  EXPECT_TRUE(ctx.wait().ok());
  for (std::size_t i = 0; i < n * n; ++i) ASSERT_EQ(c.data()[i], 0.0);

  // One buffer passed twice the same way stays legal: A += A.
  std::vector<double> v(256, 1.5);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(v.data(), v.size(), AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(v.data(), v.size(), AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  for (double x : v) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(Context, RejectsDistributedArgumentsOfDifferentExtents) {
  // Task b takes block b of every BLOCK argument, so a 100-element A beside
  // a 50-element B would pair mismatched blocks and read past B's end.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
  std::vector<double> a(100, 1.0), b(50, 2.0);
  auto status = ctx.execute(
      "Ivecadd", "",
      {arg(a.data(), a.size(), AccessMode::kReadWrite, DistributionKind::kBlock),
       arg(b.data(), b.size(), AccessMode::kRead, DistributionKind::kBlock)});
  ASSERT_FALSE(status.ok());
  const std::string message = status.error().str();
  EXPECT_NE(message.find("'A' (BLOCK, 1x100)"), std::string::npos) << message;
  EXPECT_NE(message.find("'B' (BLOCK, 1x50)"), std::string::npos) << message;
  EXPECT_EQ(ctx.stats().tasks_submitted, 0u);
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) ASSERT_EQ(v, 1.0);

  // Matching extents on the same context still run.
  std::vector<double> b2(100, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(a.data(), a.size(), AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b2.data(), b2.size(), AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_EQ(v, 3.0);
}

TEST(Context, DgemmWithBandedBFailsNamingOperandB) {
  // C:BLOCK, A:BLOCK, B:BLOCK split the same 64 rows, so the call passes the
  // extent check; but each task's band of B holds only a few of the k = 64
  // rows its kernel reads. The task must fail instead of reading past B.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 64;
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(21);
  b.fill_random(22);
  ASSERT_TRUE(ctx.execute("Idgemm", "",
                          {arg_matrix(c.data(), n, n, AccessMode::kReadWrite,
                                      DistributionKind::kBlock),
                           arg_matrix(a.data(), n, n, AccessMode::kRead,
                                      DistributionKind::kBlock),
                           arg_matrix(b.data(), n, n, AccessMode::kRead,
                                      DistributionKind::kBlock)})
                  .ok());
  const auto status = ctx.wait();
  ASSERT_FALSE(status.ok());
  const std::string message = status.error().str();
  EXPECT_NE(message.find("Idgemm: operand B is "), std::string::npos) << message;
  EXPECT_NE(message.find("expected 64x64 (ld 64)"), std::string::npos) << message;
  for (std::size_t i = 0; i < n * n; ++i) ASSERT_EQ(c.data()[i], 0.0) << i;
}

TEST(Context, VecaddWithShorterBFailsNamingOperandB) {
  // A whole beside B:BLOCK: every task pairs all 64 elements of A with one
  // block of B, so the kernel would read past each block. 4 blocks per
  // device: as one block, B would be whole too.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  options.blocks_per_device = 4;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 64;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kNone),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  const auto status = ctx.wait();
  ASSERT_FALSE(status.ok());
  const std::string message = status.error().str();
  EXPECT_NE(message.find("Ivecadd: operand B is "), std::string::npos) << message;
  EXPECT_NE(message.find("expected the shape of A, 1x64"), std::string::npos)
      << message;
  for (double v : a) ASSERT_EQ(v, 1.0);
}

TEST(Context, BlockDecompositionSubmitsOnlyFilledBlocks) {
  // The deterministic mode charges modeled costs; the default threaded
  // mode charges CPU lanes their measured time, so only the deterministic
  // run checks the times.
  for (const starvm::ExecutionMode mode :
       {starvm::ExecutionMode::kDeterministic, starvm::ExecutionMode::kHybrid}) {
    const bool threaded = mode == starvm::ExecutionMode::kHybrid;
    SCOPED_TRACE(threaded ? "threaded" : "deterministic");
    Options options;
    options.mode = mode;
    options.blocks_per_device = 4;
    {
      // Listings 3/4 on 1000 cores: a target of 4 x 1000 blocks splits 4096
      // elements two per block, which fills 2048 blocks. The 1952 empty
      // ones must not become tasks (each was charged the perf model's 1 ms
      // unknown-cost default).
      Context ctx(pdl::discovery::manycore_platform(1000), builtin_repo(), options);
      if (threaded) {
        // 1000 lanes, at most one worker per host core.
        EXPECT_LE(ctx.engine().worker_count(),
                  std::max(1u, std::thread::hardware_concurrency()));
      }
      const std::size_t n = 4096;
      std::vector<double> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<double>(i);
        b[i] = static_cast<double>(3 * i + 1);
      }
      ASSERT_TRUE(ctx.execute("Ivecadd", "",
                              {arg(a.data(), n, AccessMode::kReadWrite,
                                   DistributionKind::kBlock),
                               arg(b.data(), n, AccessMode::kRead,
                                   DistributionKind::kBlock)})
                      .ok());
      ASSERT_TRUE(ctx.wait().ok());
      const auto stats = ctx.stats();
      EXPECT_EQ(stats.tasks_submitted, 2048u);
      if (!threaded) {
        std::size_t charged_default = 0;
        for (const auto& t : stats.trace) charged_default += t.exec_seconds >= 1e-3;
        EXPECT_EQ(charged_default, 0u);
        EXPECT_LT(stats.makespan_seconds, 1e-3);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], static_cast<double>(4 * i + 1)) << i;
      }
    }
    // 8 devices give a target of 32 blocks; 40 rows or elements split two
    // per block fill 20 of them.
    Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
    std::vector<double> a(40, 1.0), b(40, 2.0);
    ASSERT_TRUE(ctx.execute("Ivecadd", "",
                            {arg(a.data(), a.size(), AccessMode::kReadWrite,
                                 DistributionKind::kBlock),
                             arg(b.data(), b.size(), AccessMode::kRead,
                                 DistributionKind::kBlock)})
                    .ok());
    ASSERT_TRUE(ctx.wait().ok());
    EXPECT_EQ(ctx.stats().tasks_submitted, 20u);
    for (double v : a) EXPECT_EQ(v, 3.0);

    const std::size_t n = 40;
    kernels::Matrix ma(n, n), mb(n, n), mc(n, n), ref(n, n);
    ma.fill_random(7);
    mb.fill_random(8);
    ASSERT_TRUE(ctx.execute("Idgemm", "",
                            {arg_matrix(mc.data(), n, n, AccessMode::kReadWrite,
                                        DistributionKind::kBlock),
                             arg_matrix(ma.data(), n, n, AccessMode::kRead,
                                        DistributionKind::kBlock),
                             arg_matrix(mb.data(), n, n, AccessMode::kRead,
                                        DistributionKind::kNone)})
                    .ok());
    ASSERT_TRUE(ctx.wait().ok());
    EXPECT_EQ(ctx.stats().tasks_submitted, 40u);  // 20 vecadd + 20 dgemm bands
    kernels::dgemm_naive(n, n, n, ma.data(), mb.data(), ref.data());
    EXPECT_LT(kernels::max_abs_diff(mc.data(), ref.data(), n * n), 1e-9);
  }
}

// --- Partition decision -----------------------------------------------------

using sweep::best_of;
using sweep::puresim_sweep;

/// The decision lines execute() wrote.
std::vector<std::string> partition_lines(const Context& ctx) {
  std::vector<std::string> lines;
  for (const auto& d : ctx.diagnostics()) {
    if (d.message.rfind("partition: ", 0) == 0) lines.push_back(d.message);
  }
  return lines;
}

TEST(Partition, Fig5DgemmRunsWithinFivePercentOfTheSweepsBest) {
  Options options;
  options.mode = starvm::ExecutionMode::kPureSim;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const sweep::Operands fig5 = sweep::operands("Idgemm", 256);
  ASSERT_TRUE(ctx.execute("Idgemm", "all", fig5.args).ok());
  ASSERT_TRUE(ctx.wait().ok());
  const double chosen = ctx.stats().makespan_seconds;

  const auto points = puresim_sweep(ctx, "Idgemm", "all", fig5.args);
  ASSERT_EQ(points.back().first, 32);
  EXPECT_LE(chosen, best_of(points).second * 1.05);
  EXPECT_LT(chosen, points.back().second);

  // One line records the decision: count, its makespan and the old split's.
  const auto lines = partition_lines(ctx);
  ASSERT_EQ(lines.size(), 1u);
  const std::string blocks =
      "into " + std::to_string(ctx.stats().tasks_submitted) + " block(s)";
  EXPECT_NE(lines[0].find("'Idgemm' splits extent 256 " + blocks), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("modeled makespan "), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("4 per device would make 32 block(s)"), std::string::npos)
      << lines[0];
}

TEST(Partition, WideVecaddRunsAsAFewBlocksWithExactResults) {
  // Listings 3/4 on the 1000-core description of the `wide` benchmark,
  // where 4 blocks per device make 2,048 two-element tasks.
  for (const starvm::ExecutionMode mode :
       {starvm::ExecutionMode::kDeterministic, starvm::ExecutionMode::kHybrid}) {
    const bool threaded = mode == starvm::ExecutionMode::kHybrid;
    SCOPED_TRACE(threaded ? "threaded" : "deterministic");
    Options options;
    options.mode = mode;
    Context ctx(pdl::fixtures::wide_platform(), builtin_repo(), options);
    const std::size_t n = 4096;
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = static_cast<double>(3 * i + 1);
    }
    ASSERT_TRUE(ctx.execute("Ivecadd", "all",
                            {arg(a.data(), n, AccessMode::kReadWrite,
                                 DistributionKind::kBlock),
                             arg(b.data(), n, AccessMode::kRead,
                                 DistributionKind::kBlock)})
                    .ok());
    ASSERT_TRUE(ctx.wait().ok());
    const auto stats = ctx.stats();
    EXPECT_LE(stats.tasks_submitted, 8u);
    // The threaded mode charges CPU lanes their measured time.
    if (!threaded) {
      EXPECT_LE(stats.makespan_seconds, 0.0102e-3);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], static_cast<double>(4 * i + 1)) << i;
    }
  }
}

TEST(Partition, CodeletWithoutFlopsModelKeepsFourBlocksPerDevice) {
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant variant;
  variant.pragma.task_interface = "Imark";
  variant.pragma.variant_name = "mark_seq";
  variant.pragma.target_platforms = {"x86"};
  repo.add_variant(variant);
  repo.bind(BoundImpl{"mark_seq", starvm::DeviceKind::kCpu,
                      [](const starvm::ExecContext&) {}, nullptr});
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_cpu(), std::move(repo), options);
  std::vector<double> data(256, 0.0);
  ASSERT_TRUE(ctx.execute("Imark", "",
                          {arg(data.data(), data.size(), AccessMode::kReadWrite,
                               DistributionKind::kBlock)})
                  .ok());
  ASSERT_TRUE(ctx.wait().ok());
  EXPECT_EQ(ctx.stats().tasks_submitted, 4u * ctx.engine().device_count());
  EXPECT_TRUE(partition_lines(ctx).empty());
}

TEST(Partition, SiteThatNoLocalStoreHoldsKeepsFourBlocksPerDevice) {
  // 2^22 doubles per operand: even 32 blocks leave 1 MiB of A and of B per
  // block, more than an SPE's local store, so no count of the sweep fits.
  Options options;
  options.mode = starvm::ExecutionMode::kPureSim;
  Context ctx(pdl::discovery::cell_be_platform(), sweep::example_repository(),
              options);
  const sweep::Operands ops = sweep::operands("Ivecadd", std::size_t{1} << 22);
  ASSERT_TRUE(ctx.execute("Ivecadd", "spe", ops.args).ok());
  ASSERT_TRUE(ctx.wait().ok());
  EXPECT_EQ(ctx.stats().tasks_submitted, 4u * ctx.engine().device_count());
  const auto lines = partition_lines(ctx);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("modeled makespan inf ms"), std::string::npos) << lines[0];
}

TEST(Partition, RunningASiteAgainRepartitionsNothing) {
  // The simulation modes run tasks only inside wait_all, which a
  // re-partition calls first: nothing may complete during the second
  // round. The vecadd runs as one block, the DGEMM as several.
  Options options;
  options.mode = starvm::ExecutionMode::kDeterministic;
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo(), options);
  const std::size_t n = 1000;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  const std::size_t m = 64;
  kernels::Matrix ma(m, m), mb(m, m), mc(m, m), ref(m, m);
  ma.fill_random(11);
  mb.fill_random(12);
  std::uint64_t completed = 0;
  for (int call = 0; call < 2; ++call) {
    if (call == 1) completed = ctx.stats().tasks_completed;
    ASSERT_TRUE(ctx.execute("Ivecadd", "",
                            {arg(a.data(), n, AccessMode::kReadWrite,
                                 DistributionKind::kBlock),
                             arg(b.data(), n, AccessMode::kRead,
                                 DistributionKind::kBlock)})
                    .ok());
    ASSERT_TRUE(ctx.execute("Idgemm", "",
                            {arg_matrix(mc.data(), m, m, AccessMode::kReadWrite,
                                        DistributionKind::kBlock),
                             arg_matrix(ma.data(), m, m, AccessMode::kRead,
                                        DistributionKind::kBlock),
                             arg_matrix(mb.data(), m, m, AccessMode::kRead,
                                        DistributionKind::kNone)})
                    .ok());
  }
  EXPECT_EQ(ctx.stats().tasks_completed, completed);
  EXPECT_GT(ctx.stats().tasks_submitted, 6u);
  EXPECT_EQ(partition_lines(ctx).size(), 2u);
  ASSERT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_EQ(v, 5.0);
  kernels::dgemm_naive(m, m, m, ma.data(), mb.data(), ref.data());
  kernels::dgemm_naive(m, m, m, ma.data(), mb.data(), ref.data());
  EXPECT_LT(kernels::max_abs_diff(mc.data(), ref.data(), m * m), 1e-9);
}

TEST(Partition, ExampleSitesRunNearTheSweepsBestOnEveryPlatform) {
  std::vector<std::filesystem::path> platforms;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PDL_SOURCE_DIR) + "/platforms")) {
    platforms.push_back(entry.path());
  }
  std::sort(platforms.begin(), platforms.end());
  ASSERT_EQ(platforms.size(), 6u);
  int runs = 0;
  for (const sweep::ExampleSite& site : sweep::kExampleSites) {
    // Pure simulation never touches the operands.
    const sweep::Operands ops = sweep::operands(site.iface, site.n);
    for (const auto& path : platforms) {
      SCOPED_TRACE(std::string(site.example) + " on " + path.filename().string());
      const auto text = pdl::util::read_file(path.string());
      ASSERT_TRUE(text.has_value());
      pdl::Diagnostics diags;
      auto platform = pdl::parse_platform(*text, diags, path.filename().string());
      ASSERT_TRUE(platform.ok());
      Options options;
      options.mode = starvm::ExecutionMode::kPureSim;
      Context ctx(platform.value(), sweep::example_repository(), options);
      if (!ctx.execute(site.iface, site.group, ops.args).ok()) continue;  // no variant
      ASSERT_TRUE(ctx.wait().ok());
      ++runs;
      const double chosen = ctx.stats().makespan_seconds;
      const auto points = puresim_sweep(ctx, site.iface, site.group, ops.args);
      EXPECT_LE(chosen, best_of(points).second * 1.05);
      EXPECT_LE(chosen, points.back().second);
    }
  }
  EXPECT_GE(runs, 12);
}

TEST(Context, SinglePlatformRunsSequentialFallback) {
  Context ctx(paper_platform_single(), builtin_repo());
  EXPECT_EQ(ctx.engine().device_count(), 1u);
  const std::size_t n = 64;
  std::vector<double> a(n, 1.0), b(n, 1.0);
  auto status = ctx.execute("Ivecadd", "",
                            {arg(a.data(), n, AccessMode::kReadWrite,
                                 DistributionKind::kBlock),
                             arg(b.data(), n, AccessMode::kRead,
                                 DistributionKind::kBlock)});
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 2.0);
}

// --- global context -----------------------------------------------------------

class GlobalRtTest : public testing::Test {
 protected:
  void TearDown() override { shutdown(); }
};

TEST_F(GlobalRtTest, InitializeExecuteWaitShutdown) {
  const std::string xml = pdl::serialize(paper_platform_starpu_cpu());
  ASSERT_TRUE(initialize(xml.c_str()));
  EXPECT_TRUE(initialized());

  const std::size_t n = 128;
  std::vector<double> a(n, 1.0), b(n, 9.0);
  EXPECT_TRUE(execute("Ivecadd", "",
                      {arg(a.data(), n, AccessMode::kReadWrite,
                           DistributionKind::kBlock),
                       arg(b.data(), n, AccessMode::kRead,
                           DistributionKind::kBlock)}));
  wait();
  for (double v : a) EXPECT_DOUBLE_EQ(v, 10.0);
  EXPECT_GT(stats().tasks_completed, 0u);

  shutdown();
  EXPECT_FALSE(initialized());
}

TEST_F(GlobalRtTest, InitializeRejectsInvalidPdl) {
  EXPECT_FALSE(initialize("<NotPdl/>"));
  EXPECT_FALSE(initialized());
}

TEST_F(GlobalRtTest, ExecuteBeforeInitializeFails) {
  EXPECT_FALSE(execute("Ivecadd", "", {}));
}

TEST_F(GlobalRtTest, RegisteredVariantsAreAvailableAfterInitialize) {
  std::vector<double> seen;
  register_variant("Icustom", "custom_seq", {"x86"}, starvm::DeviceKind::kCpu,
                   [&](const starvm::ExecContext& ctx) {
                     seen.push_back(ctx.buffer(0)[0]);
                   });
  const std::string xml = pdl::serialize(paper_platform_single());
  ASSERT_TRUE(initialize(xml.c_str()));
  std::vector<double> data(4, 3.14);
  EXPECT_TRUE(execute("Icustom", "",
                      {arg(data.data(), 4, AccessMode::kRead,
                           DistributionKind::kNone)}));
  wait();
  ASSERT_EQ(seen.size(), 1u);  // kNone: one task on the whole buffer
  EXPECT_DOUBLE_EQ(seen[0], 3.14);
}

}  // namespace
}  // namespace cascabel::rt
