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

perf_store::Store sample_store(std::uint64_t hash) {
  perf_store::Store store;
  store.descriptor_hash = hash;
  store.entries = {
      {"dgemm_tiled", 1, 2.5e-3, 7, 41.5},
      {"dgemm_tiled", 0, 1.5e-3, 5, 12.25},
      {"vecadd_seq", 0, 3.0e-6, 12, 0.0},
  };
  return store;
}

TEST(PerfStore, DescriptorHashIsStableAndSensitive) {
  const EngineConfig a = EngineConfig::cpus(2, 5.0);
  const EngineConfig b = EngineConfig::cpus(2, 5.0);
  EXPECT_EQ(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(b.devices));
  // Any cost-model-relevant edit must produce a cold start.
  const EngineConfig faster = EngineConfig::cpus(2, 6.0);
  EXPECT_NE(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(faster.devices));
  const EngineConfig wider = EngineConfig::cpus(3, 5.0);
  EXPECT_NE(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(wider.devices));
}

TEST(PerfStore, SaveLoadRoundTripIsByteStable) {
  const std::string path = temp_path("roundtrip.perfstore");
  const perf_store::Store store = sample_store(0x1234abcd5678ef01ULL);
  const std::string rendered = perf_store::render_text(store);
  ASSERT_TRUE(perf_store::save(store, path));

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  EXPECT_EQ(loaded.store.descriptor_hash, store.descriptor_hash);
  ASSERT_EQ(loaded.store.entries.size(), store.entries.size());

  // Render(load(save(s))) == render(s): the text form is canonical.
  EXPECT_EQ(perf_store::render_text(loaded.store), rendered);

  // And the canonical order is (codelet, device), independent of input
  // order.
  EXPECT_EQ(loaded.store.entries[0].codelet, "dgemm_tiled");
  EXPECT_EQ(loaded.store.entries[0].device, 0);
  EXPECT_EQ(loaded.store.entries[1].device, 1);
  EXPECT_EQ(loaded.store.entries[2].codelet, "vecadd_seq");
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_seconds, 2.5e-3);
  EXPECT_EQ(loaded.store.entries[1].count, 7u);
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_gflops, 41.5);

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
  write_file(path, "# starvm perf-store v2\nplatform 0000000000000001\n");
  EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kBadVersion);
  std::remove(path.c_str());
}

TEST(PerfStore, CorruptFilesAreRejected) {
  const std::string path = temp_path("corrupt.perfstore");
  const char* cases[] = {
      "",                                  // empty
      "not a perf store\n",                // foreign content
      "# starvm perf-store v1\n",          // truncated: no platform line
      "# starvm perf-store v1\nplatform xyz\n",  // malformed hash
      "# starvm perf-store v1\nplatform 0000000000000001\nrate a 0 0.001\n",
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "rate a 99 0.001 5 1.0\n",           // device out of range
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "rate a 0 0.001 0 1.0\n",            // count == 0 is not a sample
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "bogus a 0 0.001 5 1.0\n",           // unknown record kind
  };
  for (const char* text : cases) {
    write_file(path, text);
    EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kCorrupt)
        << "accepted: " << text;
  }
  std::remove(path.c_str());
}

TEST(PerfStore, FromModelSnapshotAndPreloadAgree) {
  PerfModel model;
  PerfModel::Row& row = model.row("k1");
  PerfModel::observe_in(row, 0, 0.010, 2e7);
  PerfModel::observe_in(row, 0, 0.020, 2e7);
  PerfModel::observe_in(row, 1, 0.005, 0.0);  // no flops -> no rate cell

  const perf_store::Store store = perf_store::from_model(model, 42);
  EXPECT_EQ(store.descriptor_hash, 42u);
  ASSERT_EQ(store.entries.size(), 2u);

  PerfModel reloaded;
  perf_store::preload(store, reloaded);
  for (const perf_store::Entry& e : store.entries) {
    const auto estimate = reloaded.history_estimate(e.codelet, e.device);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_DOUBLE_EQ(*estimate, e.ema_seconds);
  }
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

TEST(PerfStoreEngine, PreloadWarmsEstimatesFromTheFirstTask) {
  const std::string path = temp_path("engine_warm.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  perf_store::Store store;
  store.descriptor_hash = perf_store::descriptor_hash(config.devices);
  store.entries = {{"warm", 0, 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 1u);
  EXPECT_EQ(stats.perf_store_rejected, 0u);
  const auto estimate = engine.perf_model().history_estimate("warm", 0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(*estimate, 0.125);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, HashMismatchIsRejectedAndCounted) {
  const std::string path = temp_path("engine_mismatch.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  perf_store::Store store;
  store.descriptor_hash =
      perf_store::descriptor_hash(config.devices) ^ 0xdeadbeefULL;
  store.entries = {{"stale", 0, 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 0u);
  EXPECT_EQ(stats.perf_store_rejected, 1u);
  EXPECT_FALSE(engine.perf_model().history_estimate("stale", 0).has_value());
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
  std::uint64_t hash = 0;
  {
    EngineConfig config = EngineConfig::cpus(1);
    config.perf_store_path = path;
    hash = perf_store::descriptor_hash(config.devices);
    Engine engine(std::move(config));
    Codelet c = flops_codelet("persisted_kernel", 1e6);
    std::vector<double> data(16, 1.0);
    DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
    ASSERT_TRUE(engine.wait_all().ok());
  }  // destructor persists the model

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  EXPECT_EQ(loaded.store.descriptor_hash, hash);
  bool found = false;
  for (const perf_store::Entry& e : loaded.store.entries) {
    if (e.codelet == "persisted_kernel") {
      found = true;
      EXPECT_GE(e.count, 1u);
      EXPECT_GT(e.ema_seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
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
    store.descriptor_hash = perf_store::descriptor_hash(config.devices);
    store.entries = {{"learned", 0, 0.125, 9, 8.0}};
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

TEST(PerfStoreEngine, DeclaredRatesSeedEveryWiredCodelet) {
  Engine engine(EngineConfig::cpus(2));
  Codelet c = flops_codelet("seeded_kernel", 1e6);
  std::vector<double> data(16, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
  ASSERT_TRUE(engine.wait_all().ok());
  // One seed per (codelet, device): 1 codelet x 2 devices.
  EXPECT_EQ(engine.stats().perf_model_seeds, 2u);
}

// --- Seeding semantics -------------------------------------------------------

TEST(PerfModelSeed, SeededEstimateEqualsAnalyticWithSeedRate) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Seeded with the device's own rate, the estimate is byte-identical to
  // the cold analytic fallback: warm and cold share one code path.
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 2e9, 10.0), 0.2);
  // Seeded with a *different* rate, the seed wins over the device rate.
  ASSERT_TRUE(PerfModel::seed_in(row, 1, 20.0));
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 1, 2e9, 10.0), 0.1);
  // Re-seeding an occupied cell is refused.
  EXPECT_FALSE(PerfModel::seed_in(row, 0, 99.0));
}

TEST(PerfModelSeed, FirstObservationBlendsWithTheDeclaredPrior) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Prior implied by the seed for a 2 GFLOP task: 0.2 s. First sample of
  // 0.1 s blends: 0.25 * 0.1 + 0.75 * 0.2 = 0.175.
  PerfModel::observe_in(row, 0, 0.1, 2e9);
  const auto estimate = model.history_estimate("k", 0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 0.175, 1e-12);

  // Without a seed the first sample slams the cell (old behavior).
  PerfModel::Row& cold = model.row("k_cold");
  PerfModel::observe_in(cold, 0, 0.1, 2e9);
  EXPECT_DOUBLE_EQ(*model.history_estimate("k_cold", 0), 0.1);
}

// --- Determinism -------------------------------------------------------------

TEST(PerfStoreEngine, DeterministicReplayIsByteStableWithAStoreLoaded) {
  const std::string path = temp_path("engine_det.perfstore");
  EngineConfig proto = EngineConfig::cpus(3);
  perf_store::Store store;
  store.descriptor_hash = perf_store::descriptor_hash(proto.devices);
  // Uneven learned rates so the store actually changes HEFT's placements
  // relative to a cold start.
  store.entries = {{"det_kernel", 0, 0.010, 5, 1.0},
                   {"det_kernel", 1, 0.001, 5, 10.0},
                   {"det_kernel", 2, 0.004, 5, 2.5}};

  const auto run_once = [&]() {
    // Each run starts from the identical pristine store (the engine's own
    // shutdown save would otherwise feed run 1's observations into run 2).
    EXPECT_TRUE(perf_store::save(store, path));
    EngineConfig config = EngineConfig::cpus(3);
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
