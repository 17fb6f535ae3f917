// Persisted perf store: format round-trips, rejection taxonomy, engine
// preload/save wiring, declared-rate seeding, and the determinism
// guarantee (a loaded store changes estimates, never ordering).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pdl/parser.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"
#include "starvm/perf_model.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/trace_export.hpp"

namespace starvm {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

perf_store::Store sample_store() {
  perf_store::Store store;
  store.entries = {
      {"dgemm_tiled", 0xb, 2.5e-3, 7, 41.5},
      {"dgemm_tiled", 0xa, 1.5e-3, 5, 12.25},
      {"vecadd_seq", 0xa, 3.0e-6, 12, 0.0},
  };
  return store;
}

/// The class key of `config`'s device `d`.
std::uint64_t key_of(const EngineConfig& config, std::size_t d) {
  return class_key(config.devices[d]);
}

TEST(PerfStore, ClassKeyIsStableAndSensitive) {
  const EngineConfig a = EngineConfig::cpus(2, 5.0);
  const EngineConfig b = EngineConfig::cpus(2, 5.0);
  EXPECT_EQ(key_of(a, 0), key_of(b, 1));
  // Any cost-model-relevant edit of a device moves it to another class.
  const EngineConfig faster = EngineConfig::cpus(2, 6.0);
  EXPECT_NE(key_of(a, 0), key_of(faster, 0));
  // One more core of the same spec is the same class: nothing is lost.
  const EngineConfig wider = EngineConfig::cpus(3, 5.0);
  EXPECT_EQ(key_of(a, 0), key_of(wider, 2));
}

TEST(PerfStore, SaveLoadRoundTripIsByteStable) {
  const std::string path = temp_path("roundtrip.perfstore");
  const perf_store::Store store = sample_store();
  const std::string rendered = perf_store::render_text(store);
  ASSERT_TRUE(perf_store::save(store, path));

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  ASSERT_EQ(loaded.store.entries.size(), store.entries.size());

  // Render(load(save(s))) == render(s): the text form is canonical.
  EXPECT_EQ(perf_store::render_text(loaded.store), rendered);

  // And the canonical order is (codelet, class key), independent of input
  // order.
  EXPECT_EQ(loaded.store.entries[0].codelet, "dgemm_tiled");
  EXPECT_EQ(loaded.store.entries[0].class_key, 0xau);
  EXPECT_EQ(loaded.store.entries[1].class_key, 0xbu);
  EXPECT_EQ(loaded.store.entries[2].codelet, "vecadd_seq");
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_seconds, 2.5e-3);
  EXPECT_EQ(loaded.store.entries[1].count, 7u);
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_gflops, 41.5);
  EXPECT_NE(rendered.find("rate dgemm_tiled 000000000000000a "),
            std::string::npos);

  // save() leaves no temp file behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(PerfStore, MissingFileIsACleanColdStart) {
  const perf_store::LoadResult loaded =
      perf_store::load(temp_path("does_not_exist.perfstore"));
  EXPECT_EQ(loaded.status, perf_store::LoadStatus::kMissing);
}

TEST(PerfStore, WrongVersionIsRejectedAsBadVersion) {
  const std::string path = temp_path("badversion.perfstore");
  // A v1 store, keyed by a whole-platform hash and device ids: a cold start.
  for (const char* text : {"# starvm perf-store v1\nplatform 0000000000000001\n"
                           "rate a 0 0.001 5 1.0\n",
                           "# starvm perf-store v3\n"}) {
    write_file(path, text);
    EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kBadVersion)
        << text;
  }
  std::remove(path.c_str());
}

TEST(PerfStore, CorruptFilesAreRejected) {
  const std::string path = temp_path("corrupt.perfstore");
  const char* cases[] = {
      "",                                  // empty
      "not a perf store\n",                // foreign content
      "# starvm perf-store v2\nrate a 000000000000000a 0.001\n",  // truncated
      "# starvm perf-store v2\nrate a xyz 0.001 5 1.0\n",  // malformed key
      "# starvm perf-store v2\nrate a 00000000000000000a 0.001 5 1.0\n",
      "# starvm perf-store v2\nrate a -a 0.001 5 1.0\n",
      "# starvm perf-store v2\n"
      "rate a 000000000000000a 0.001 0 1.0\n",  // count == 0 is not a sample
      "# starvm perf-store v2\n"
      "platform 0000000000000001\n",       // a v1 record kind
  };
  for (const char* text : cases) {
    write_file(path, text);
    EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kCorrupt)
        << "accepted: " << text;
  }
  std::remove(path.c_str());
}

TEST(PerfStore, FromModelSnapshotAndPreloadAgree) {
  PerfModel model({0xa, 0xb});
  PerfModel::Cell* row = model.row("k1");
  PerfModel::observe_in(row, 0, 0.010, 2e7);
  PerfModel::observe_in(row, 0, 0.020, 2e7);
  PerfModel::observe_in(row, 1, 0.005, 0.0);  // no flops -> no rate cell

  const perf_store::Store store{model.snapshot()};
  ASSERT_EQ(store.entries.size(), 2u);
  EXPECT_EQ(store.entries[0].class_key, 0xau);
  EXPECT_EQ(store.entries[1].class_key, 0xbu);

  // A model with the classes in another order and one class fewer takes
  // the entries it has a class for, by key.
  PerfModel reloaded({0xc, 0xb});
  EXPECT_EQ(perf_store::preload(store, reloaded), 1u);
  EXPECT_EQ(reloaded.samples("k1", 0), 0u);
  EXPECT_EQ(reloaded.samples("k1", 1), 1u);
  EXPECT_DOUBLE_EQ(reloaded.estimate("k1", 1, std::nullopt, 1.0), 0.005);
}

TEST(PerfStore, ApplicableEntriesComeFirst) {
  const EngineConfig config = EngineConfig::cpus(2, 5.0);
  const std::uint64_t cores = key_of(config, 0);
  perf_store::Store store;
  store.entries = {{"a", cores + 1, 1e-3, 1, 1.0},
                   {"b", cores, 1e-3, 1, 1.0},
                   {"c", cores + 2, 1e-3, 1, 1.0},
                   {"d", cores, 1e-3, 1, 1.0}};
  ASSERT_EQ(perf_store::applicable(store, config.devices), 2u);
  EXPECT_EQ(store.entries[0].codelet, "b");
  EXPECT_EQ(store.entries[1].codelet, "d");
  EXPECT_EQ(store.entries[2].codelet, "a");
  EXPECT_EQ(store.entries[3].codelet, "c");
}

TEST(PerfStore, EnvVarDisabledForms) {
  ::setenv("PDL_PERF_STORE", "", 1);
  EXPECT_EQ(perf_store::env_store_path(), "");
  ::setenv("PDL_PERF_STORE", "0", 1);
  EXPECT_EQ(perf_store::env_store_path(), "");
  ::setenv("PDL_PERF_STORE", "/tmp/x.perfstore", 1);
  EXPECT_EQ(perf_store::env_store_path(), "/tmp/x.perfstore");
  ::unsetenv("PDL_PERF_STORE");
  EXPECT_EQ(perf_store::env_store_path(), "");
}

// --- Engine wiring -----------------------------------------------------------

Codelet flops_codelet(std::string name, double flops) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext&) {}});
  c.flops = [flops](const std::vector<BufferView>&) { return flops; };
  return c;
}

/// Specs that differ only in rate: one device class each.
EngineConfig rated_cpus(std::initializer_list<double> rates) {
  EngineConfig config;
  for (const double rate : rates) {
    DeviceSpec spec;
    spec.name = "cpu" + std::to_string(config.devices.size());
    spec.sustained_gflops = rate;
    config.devices.push_back(spec);
  }
  return config;
}

/// One task per buffer of `codelet`, then drain.
void run_tasks(Engine& engine, Codelet& codelet, std::size_t tasks) {
  std::vector<std::vector<double>> data(tasks, std::vector<double>(16, 1.0));
  for (std::size_t i = 0; i < tasks; ++i) {
    DataHandle* h = engine.register_vector(data[i].data(), data[i].size());
    engine.submit(TaskDesc{&codelet, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());
}

TEST(PerfStoreEngine, PreloadWarmsEstimatesFromTheFirstTask) {
  const std::string path = temp_path("engine_warm.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  perf_store::Store store;
  store.entries = {{"warm", key_of(config, 0), 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 1u);
  EXPECT_EQ(stats.perf_store_rejected, 0u);
  EXPECT_EQ(engine.perf_model().samples("warm", 0), 9u);
  EXPECT_DOUBLE_EQ(engine.perf_model().estimate("warm", 0, std::nullopt, 5.0),
                   0.125);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, EntriesOfForeignClassesArePricedNowhereAndKept) {
  // Entries of classes this engine lacks price nothing here, are not a
  // rejection, and a threaded engine's save keeps them for the platform
  // they belong to.
  const std::string path = temp_path("engine_foreign.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  const std::uint64_t foreign = key_of(EngineConfig::cpus(1, 7.0), 0);
  perf_store::Store store;
  store.entries = {{"stale", foreign, 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  {
    Engine engine(std::move(config));
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.perf_store_entries, 0u);
    EXPECT_EQ(stats.perf_store_rejected, 0u);
    EXPECT_EQ(engine.perf_model().samples("stale", 0), 0u);
    Codelet c = flops_codelet("local", 1e6);
    run_tasks(engine, c, 1);
  }
  const perf_store::LoadResult saved = perf_store::load(path);
  ASSERT_EQ(saved.status, perf_store::LoadStatus::kLoaded) << saved.detail;
  ASSERT_EQ(saved.store.entries.size(), 2u);
  EXPECT_EQ(saved.store.entries[0].codelet, "local");
  EXPECT_EQ(saved.store.entries[1].codelet, "stale");
  EXPECT_EQ(saved.store.entries[1].class_key, foreign);
  EXPECT_EQ(saved.store.entries[1].count, 9u);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, VersionOneStoreIsRejectedAndCounted) {
  const std::string path = temp_path("engine_v1.perfstore");
  write_file(path, "# starvm perf-store v1\nplatform 645549ef32658c96\n"
                   "rate stale 0 0.125 9 8.0\n");
  EngineConfig config = EngineConfig::cpus(2);
  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 0u);
  EXPECT_EQ(stats.perf_store_rejected, 1u);
  EXPECT_EQ(engine.perf_model().samples("stale", 0), 0u);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, CorruptStoreIsRejectedAndCounted) {
  const std::string path = temp_path("engine_corrupt.perfstore");
  write_file(path, "definitely not a perf store\n");
  EngineConfig config = EngineConfig::cpus(1);
  config.perf_store_path = path;
  Engine engine(std::move(config));
  EXPECT_EQ(engine.stats().perf_store_rejected, 1u);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, SavesCalibratedCellsOnShutdown) {
  const std::string path = temp_path("engine_save.perfstore");
  std::remove(path.c_str());
  std::uint64_t key = 0;
  {
    EngineConfig config = EngineConfig::cpus(1);
    config.perf_store_path = path;
    key = key_of(config, 0);
    Engine engine(std::move(config));
    Codelet c = flops_codelet("persisted_kernel", 1e6);
    run_tasks(engine, c, 1);
  }  // destructor persists the model

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  bool found = false;
  for (const perf_store::Entry& e : loaded.store.entries) {
    if (e.codelet == "persisted_kernel") {
      found = true;
      EXPECT_EQ(e.class_key, key);
      EXPECT_GE(e.count, 1u);
      EXPECT_GT(e.ema_seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, StoreWarmsTheIdenticalCoresOfAWiderPlatform) {
  // Learned on 2 cores, applied on 5 of the same spec: adding cores keeps
  // everything learned.
  const std::string path = temp_path("engine_wider.perfstore");
  std::remove(path.c_str());
  {
    EngineConfig config = EngineConfig::cpus(2);
    config.perf_store_path = path;
    Engine engine(std::move(config));
    Codelet c = flops_codelet("carried", 1e6);
    run_tasks(engine, c, 4);
  }
  EngineConfig wider = EngineConfig::cpus(5);
  wider.perf_store_path = path;
  Engine engine(std::move(wider));
  EXPECT_EQ(engine.stats().perf_store_entries, 1u);
  EXPECT_EQ(engine.stats().perf_store_rejected, 0u);
  EXPECT_GE(engine.perf_model().samples("carried", 0), 4u);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, SimulationModesLeaveTheStoreUntouched) {
  // A pure-sim or deterministic run observes only the model's own
  // estimates; writing those back would overwrite rates a real run learned.
  for (const ExecutionMode mode :
       {ExecutionMode::kPureSim, ExecutionMode::kDeterministic}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const std::string path = temp_path("engine_sim_readonly.perfstore");
    EngineConfig config = EngineConfig::cpus(2);
    perf_store::Store store;
    store.entries = {{"learned", key_of(config, 0), 0.125, 9, 8.0}};
    ASSERT_TRUE(perf_store::save(store, path));
    const std::string before = read_file(path);
    {
      config.mode = mode;
      config.perf_store_path = path;
      Engine engine(std::move(config));
      Codelet learned = flops_codelet("learned", 1e6);
      Codelet fresh = flops_codelet("fresh", 1e6);
      std::vector<double> data(16, 1.0);
      DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
      engine.submit(TaskDesc{&learned, {{h, Access::kReadWrite}}, "t0"});
      engine.submit(TaskDesc{&fresh, {{h, Access::kReadWrite}}, "t1"});
      ASSERT_TRUE(engine.wait_all().ok());
      EXPECT_EQ(engine.stats().perf_store_entries, 1u);
    }
    EXPECT_EQ(read_file(path), before);
    std::remove(path.c_str());
  }
}

TEST(PerfStoreEngine, SimulationModesObserveNothing) {
  // The simulation clock charges the model's own estimate: feeding it back
  // would teach the model nothing and price later tasks by earlier ones.
  for (const ExecutionMode mode :
       {ExecutionMode::kPureSim, ExecutionMode::kDeterministic}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EngineConfig config = EngineConfig::cpus(2);
    config.mode = mode;
    Engine engine(std::move(config));
    Codelet c = flops_codelet("simulated", 1e6);
    run_tasks(engine, c, 4);
    EXPECT_EQ(engine.perf_model().samples("simulated", 0), 0u);
    EXPECT_TRUE(engine.perf_model().snapshot().empty());
  }
}

TEST(PerfStoreEngine, MeasuredRatePricesEachTaskByItsWork) {
  // The learned cell took 0.5 s per task at 2 GFLOPS; a 2 MFLOP task is
  // charged 2e6 / 2e9 s, not the last task's 0.5 s.
  const std::string path = temp_path("engine_sized.perfstore");
  EngineConfig config = EngineConfig::cpus(1);
  perf_store::Store store;
  store.entries = {{"sized", key_of(config, 0), 0.5, 4, 2.0}};
  ASSERT_TRUE(perf_store::save(store, path));
  config.mode = ExecutionMode::kPureSim;
  config.perf_store_path = path;
  Engine engine(std::move(config));
  Codelet c = flops_codelet("sized", 2e6);
  run_tasks(engine, c, 1);
  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.trace.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.trace[0].exec_seconds, 1e-3);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, KnownZeroWorkIsChargedOnlyTheOverhead) {
  // An empty padded block: its flops model says 0, so the clock charges
  // task_overhead_us and no execution time. Work no model describes keeps
  // the 1 ms default.
  EngineConfig config = EngineConfig::cpus(1);
  config.mode = ExecutionMode::kPureSim;
  Engine engine(std::move(config));
  Codelet empty = flops_codelet("empty_block", 0.0);
  Codelet unknown = flops_codelet("unmodeled", 0.0);
  unknown.flops = nullptr;
  std::vector<double> a(16, 1.0);
  std::vector<double> b(16, 1.0);
  engine.submit(TaskDesc{&empty, {{engine.register_vector(a.data(), 16),
                                   Access::kReadWrite}}});
  engine.submit(TaskDesc{&unknown, {{engine.register_vector(b.data(), 16),
                                     Access::kReadWrite}}});
  ASSERT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.trace.size(), 2u);
  for (const TaskTrace& t : stats.trace) {
    EXPECT_DOUBLE_EQ(t.exec_seconds, t.label == "empty_block" ? 0.0 : 1e-3)
        << t.label;
  }
}

TEST(PerfStoreEngine, DeclaredRatesSeedEveryWiredCodelet) {
  Engine engine(rated_cpus({5.0, 5.0, 7.0}));
  Codelet c = flops_codelet("seeded_kernel", 1e6);
  run_tasks(engine, c, 1);
  // One seed per (codelet, device class): 1 codelet x 2 classes.
  EXPECT_EQ(engine.stats().perf_model_seeds, 2u);
}

TEST(PerfStoreEngine, ThreadedEngineLearnsForDevice700OfManycore1k) {
  // Device 700 of the 1,088-minion platform learns and prices from the one
  // cell all minions share.
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform_file(
      std::string(PDL_SOURCE_DIR) + "/platforms/manycore-1k.pdl.xml", diags);
  ASSERT_TRUE(platform.ok()) << platform.error().str();
  auto config = engine_config_from_platform(platform.value());
  ASSERT_TRUE(config.ok()) << config.error().str();
  ASSERT_GT(config.value().devices.size(), 700u);
  const std::size_t cls = device_classes(config.value().devices).of[700];
  const double declared = config.value().devices[700].sustained_gflops;
  Engine engine(std::move(config).value());
  Codelet c = flops_codelet("minion_kernel", 1e6);
  run_tasks(engine, c, 8);
  EXPECT_EQ(engine.perf_model().samples("minion_kernel", cls), 8u);
  // Device 700 is priced at the rate its class measured, not its declared
  // one, and the store would save that cell under device 700's class.
  const std::vector<PerfModel::Sample> learned = engine.perf_model().snapshot();
  ASSERT_EQ(learned.size(), 1u);
  EXPECT_EQ(learned[0].class_key, engine.stats().devices[700].class_key);
  ASSERT_GT(learned[0].ema_gflops, 0.0);
  EXPECT_DOUBLE_EQ(
      engine.perf_model().estimate("minion_kernel", cls, 1e6, declared),
      1e6 / (learned[0].ema_gflops * 1e9));
}

// --- Seeding semantics -------------------------------------------------------

TEST(PerfModelSeed, SeededEstimateEqualsAnalyticWithSeedRate) {
  PerfModel model({1, 2});
  PerfModel::Cell* row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Seeded with the class's own rate, the estimate is byte-identical to
  // the cold analytic fallback: warm and cold share one code path.
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 2e9, 10.0), 0.2);
  // Seeded with a *different* rate, the seed wins over the device rate.
  ASSERT_TRUE(PerfModel::seed_in(row, 1, 20.0));
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 1, 2e9, 10.0), 0.1);
  // Re-seeding an occupied cell is refused.
  EXPECT_FALSE(PerfModel::seed_in(row, 0, 99.0));
}

TEST(PerfModelSeed, FirstObservationBlendsWithTheDeclaredPrior) {
  PerfModel model({1});
  PerfModel::Cell* row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Prior implied by the seed for a 2 GFLOP task: 0.2 s. First sample of
  // 0.1 s blends: 0.25 * 0.1 + 0.75 * 0.2 = 0.175.
  PerfModel::observe_in(row, 0, 0.1, 2e9);
  EXPECT_NEAR(model.estimate("k", 0, std::nullopt, 10.0), 0.175, 1e-12);

  // Without a seed the first sample slams the cell (old behavior).
  PerfModel::observe_in(model.row("k_cold"), 0, 0.1, 2e9);
  EXPECT_DOUBLE_EQ(model.estimate("k_cold", 0, std::nullopt, 10.0), 0.1);
}

// --- Determinism -------------------------------------------------------------

TEST(PerfStoreEngine, DeterministicReplayIsByteStableWithAStoreLoaded) {
  const std::string path = temp_path("engine_det.perfstore");
  const EngineConfig proto = rated_cpus({5.0, 6.0, 7.0});
  perf_store::Store store;
  // Uneven learned rates so the store actually changes HEFT's placements
  // relative to a cold start.
  store.entries = {{"det_kernel", key_of(proto, 0), 0.010, 5, 1.0},
                   {"det_kernel", key_of(proto, 1), 0.001, 5, 10.0},
                   {"det_kernel", key_of(proto, 2), 0.004, 5, 2.5}};

  const auto run_once = [&]() {
    // Each run starts from the identical pristine store (the engine's own
    // shutdown save would otherwise feed run 1's observations into run 2).
    EXPECT_TRUE(perf_store::save(store, path));
    EngineConfig config = proto;
    config.mode = ExecutionMode::kDeterministic;
    config.perf_store_path = path;
    Engine engine(std::move(config));
    Codelet c = flops_codelet("det_kernel", 1e7);
    std::vector<std::vector<double>> data(6, std::vector<double>(8, 1.0));
    std::vector<TaskDesc> batch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      DataHandle* h = engine.register_vector(data[i].data(), data[i].size(),
                                             "v" + std::to_string(i));
      batch.push_back(TaskDesc{&c, {{h, Access::kReadWrite}},
                               "t" + std::to_string(i)});
    }
    engine.submit_batch(std::move(batch));
    EXPECT_TRUE(engine.wait_all().ok());
    EXPECT_EQ(engine.stats().perf_store_entries, 3u);
    return to_chrome_trace(engine.stats());
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);  // byte-stable: same store -> same schedule
  EXPECT_FALSE(first.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace starvm
