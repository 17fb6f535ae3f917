// ABL3 — static pre-selection cost vs repository size (DESIGN.md).
//
// Cascabel's step 2 matches every repository variant's platform patterns
// against the target PDL (paper §IV-C). This microbenchmark sweeps the
// repository size and the target-platform width to show pre-selection
// stays cheap enough to run per compilation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cascabel/rt.hpp"
#include "cascabel/selection.hpp"
#include "discovery/presets.hpp"
#include "kernels/dgemm.hpp"
#include "kernels/matrix.hpp"
#include "pdl/pattern.hpp"
#include "pdl/well_known.hpp"
#include "starvm/bridge.hpp"
#include "starvm/perf_store.hpp"

namespace {

/// A repository with `n` variants spread over the default platform names.
cascabel::TaskRepository make_repository(int n) {
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  const char* platforms[] = {"x86", "smp", "cuda", "opencl", "cell"};
  for (int i = 0; i < n; ++i) {
    cascabel::TaskVariant v;
    // ~8 variants per interface; every interface keeps an x86 fall-back.
    v.pragma.task_interface = "Iface" + std::to_string(i / 8);
    v.pragma.variant_name = "variant" + std::to_string(i);
    v.pragma.target_platforms = {i % 8 == 0 ? "x86" : platforms[i % 5]};
    repo.add_variant(std::move(v));
  }
  return repo;
}

void BM_Preselect(benchmark::State& state) {
  const int variants = static_cast<int>(state.range(0));
  cascabel::TaskRepository repo = make_repository(variants);
  pdl::Platform target = pdl::discovery::paper_platform_starpu_2gpu();
  for (auto _ : state) {
    pdl::Diagnostics diags;
    auto result = cascabel::preselect(repo, target, diags);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * variants);
}
BENCHMARK(BM_Preselect)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/// Target width: many workers to scan during matching and mapping.
void BM_PreselectWideTarget(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  cascabel::TaskRepository repo = make_repository(64);
  pdl::Platform target("wide");
  pdl::ProcessingUnit* m = target.add_master("m");
  m->descriptor().add(pdl::props::kArchitecture, "x86");
  for (int i = 0; i < workers; ++i) {
    pdl::ProcessingUnit* w =
        m->add_child(pdl::PuKind::kWorker, "w" + std::to_string(i));
    w->descriptor().add(pdl::props::kArchitecture,
                        i % 4 == 0 ? "gpu" : "x86_core");
  }
  for (auto _ : state) {
    pdl::Diagnostics diags;
    auto result = cascabel::preselect(repo, target, diags);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PreselectWideTarget)->Arg(4)->Arg(32)->Arg(256)->Arg(1024);

void BM_PatternMatchOnly(benchmark::State& state) {
  pdl::Platform target = pdl::discovery::paper_platform_starpu_2gpu();
  for (auto _ : state) {
    auto result = pdl::match(
        "M(ARCHITECTURE=x86)[W(ARCHITECTURE=x86_core)x8,W(ARCHITECTURE=gpu)x2]",
        target);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PatternMatchOnly);

// --- Warm vs cold perf store (the autotuning loop's pay-off) -----------------
//
// Declared ranking prefers the non-fallback smp variant, which here wraps
// the naive O(n^3) kernel. A warm store carrying trustworthy measurements
// flips the choice to the fallback variant wrapping the register-tiled
// kernel. The warm/cold gap is the end-to-end win of persisting the model
// (docs/RUNTIME.md "Persisted performance models"); CI gates it via
// BENCH_pr9_autotune.json.

constexpr std::size_t kAutotuneN = 192;

void autotune_slow_exec(const starvm::ExecContext& ctx) {
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  kernels::dgemm_naive(c.rows(), c.cols(), a.cols(), ctx.buffer(1), ctx.buffer(2),
                       ctx.buffer(0));
}

void autotune_fast_exec(const starvm::ExecContext& ctx) {
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  kernels::dgemm_tiled(c.rows(), c.cols(), a.cols(), ctx.buffer(1), ctx.buffer(2),
                       ctx.buffer(0));
}

double autotune_flops(const std::vector<starvm::BufferView>& buffers) {
  const auto& c = *buffers[0].handle;
  const auto& a = *buffers[1].handle;
  return kernels::dgemm_flops(c.rows(), c.cols(), a.cols());
}

cascabel::TaskRepository autotune_repo() {
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::TaskVariant slow;
  slow.pragma.task_interface = "Ibench";
  slow.pragma.variant_name = "bench_slow";
  slow.pragma.target_platforms = {"smp"};  // non-fallback: wins declared rank
  repo.add_variant(slow);
  repo.bind(cascabel::BoundImpl{"bench_slow", starvm::DeviceKind::kCpu,
                                autotune_slow_exec, autotune_flops});
  cascabel::TaskVariant fast;
  fast.pragma.task_interface = "Ibench";
  fast.pragma.variant_name = "bench_fast";
  fast.pragma.target_platforms = {"x86"};  // fallback: needs the store to win
  repo.add_variant(fast);
  repo.bind(cascabel::BoundImpl{"bench_fast", starvm::DeviceKind::kCpu,
                                autotune_fast_exec, autotune_flops});
  return repo;
}

[[noreturn]] void state_abort(const std::string& message) {
  std::fprintf(stderr, "autotune bench failed: %s\n", message.c_str());
  std::abort();
}

/// One full translate-and-run round: Context construction (store load +
/// pre-selection), one blocked Ibench call, drain.
void autotune_round(const pdl::Platform& platform, const std::string& store_path,
                    kernels::Matrix& a, kernels::Matrix& b, kernels::Matrix& c) {
  cascabel::rt::Options options;
  options.perf_store_path = store_path;
  cascabel::rt::Context ctx(platform, autotune_repo(), options);
  c.fill(0.0);
  auto status = ctx.execute(
      "Ibench", "",
      {cascabel::rt::arg_matrix(c.data(), kAutotuneN, kAutotuneN,
                                cascabel::AccessMode::kReadWrite,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(a.data(), kAutotuneN, kAutotuneN,
                                cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(b.data(), kAutotuneN, kAutotuneN,
                                cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kNone)});
  if (!status.ok()) state_abort(status.error().str());
  auto wait_status = ctx.wait();
  if (!wait_status.ok()) state_abort(wait_status.error().str());
}

void BM_VariantSelectionColdStore(benchmark::State& state) {
  const pdl::Platform platform = pdl::discovery::paper_platform_starpu_cpu();
  const std::string path = "/tmp/pdl_bm_autotune_cold.perfstore";
  kernels::Matrix a(kAutotuneN, kAutotuneN), b(kAutotuneN, kAutotuneN),
      c(kAutotuneN, kAutotuneN);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    // Drop the persisted model: every round is a first encounter, so the
    // declared-rank (slow) variant runs.
    std::remove(path.c_str());
    autotune_round(platform, path, a, b, c);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VariantSelectionColdStore)->Unit(benchmark::kMillisecond);

void BM_VariantSelectionWarmStore(benchmark::State& state) {
  const pdl::Platform platform = pdl::discovery::paper_platform_starpu_cpu();
  const std::string path = "/tmp/pdl_bm_autotune_warm.perfstore";
  auto engine_config = starvm::engine_config_from_platform(platform);
  if (!engine_config.ok()) state_abort(engine_config.error().str());
  // Keyed by the class of device 0: every core of the platform.
  const std::uint64_t cores = starvm::class_key(engine_config.value().devices[0]);
  starvm::perf_store::Store store;
  store.entries = {{"bench_slow", cores, 1e-3, 5, 1.0},
                   {"bench_fast", cores, 1e-4, 5, 10.0}};
  kernels::Matrix a(kAutotuneN, kAutotuneN), b(kAutotuneN, kAutotuneN),
      c(kAutotuneN, kAutotuneN);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    // Re-pin the synthetic measurements (engine shutdown re-saves learned
    // rates) so every round loads the identical warm model.
    if (!starvm::perf_store::save(store, path)) state_abort("store save");
    autotune_round(platform, path, a, b, c);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VariantSelectionWarmStore)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
