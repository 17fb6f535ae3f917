// ABL6 — DGEMM kernel baselines (DESIGN.md): GFLOPS of the variants that
// stand in for the paper's GotoBlas2/CuBLAS payloads, read against the
// host's measured single-core multiply-add peak. dgemm_tiled is what the
// dgemm_smp and dgemm_cublas variants run; its label names the instruction
// set the process dispatched to. dgemm_blocked is the untuned dgemm_seq
// side the autotuner learns against, and dgemm_parallel the SMP reference.
//
// Per compiled path the CPU supports, BM_DgemmTiledBand/<path>/<rows> times
// a band of C and A against the whole 256 x 256 B. 8 rows is the shape of
// one translated Fig-5 task at n = 256 (one AVX-512 register block, two
// 4-row blocks elsewhere); 4 rows takes only the 4-row pass and 12 rows an
// 8-row block plus the 4-row pass. BM_MaddPeak/<path> times the peak at
// that path's vector width: independent multiply-add chains, no memory
// traffic.
#include <benchmark/benchmark.h>

#include <string>

#include "kernels/dgemm.hpp"
#include "kernels/dgemm_paths.hpp"
#include "kernels/matrix.hpp"

namespace {

void set_gflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["GFLOPS"] = benchmark::Counter(
      flops_per_iteration * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_DgemmNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    kernels::dgemm_naive(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, kernels::dgemm_flops(n, n, n));
}
BENCHMARK(BM_DgemmNaive)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_DgemmBlocked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    kernels::dgemm_blocked(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, kernels::dgemm_flops(n, n, n));
}
BENCHMARK(BM_DgemmBlocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DgemmTiled(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    kernels::dgemm_tiled(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, kernels::dgemm_flops(n, n, n));
  state.SetLabel(kernels::detail::supported_dgemm_paths().back().name);
}
BENCHMARK(BM_DgemmTiled)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void tiled_band(benchmark::State& state, const kernels::detail::DgemmPath& path) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 256, k = 256;
  kernels::Matrix a(m, k), b(k, n), c(m, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    path.tiled(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, kernels::dgemm_flops(m, n, k));
  state.SetLabel(path.name);
}

void madd_peak(benchmark::State& state, const kernels::detail::DgemmPath& path) {
  const std::size_t iterations = 1 << 16;
  for (auto _ : state) {
    // x < 1 and y > 0 keep every chain bounded (fixed point y / (1 - x)).
    benchmark::DoNotOptimize(path.madd_peak(iterations, 0.999999, 1e-6));
  }
  set_gflops(state, static_cast<double>(iterations * kernels::detail::kPeakChains *
                                        path.vector_doubles * 2));
  state.SetLabel(path.name);
}

void BM_DgemmParallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    kernels::dgemm_parallel(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, kernels::dgemm_flops(n, n, n));
}
// UseRealTime: the work happens on pool threads; CPU time of the calling
// thread would make the rate meaningless.
BENCHMARK(BM_DgemmParallel)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DgemmBlockSizeSweep(benchmark::State& state) {
  // The tile-size knob of the blocked kernel (fixed N=256).
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 256;
  kernels::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  for (auto _ : state) {
    kernels::dgemm_blocked(n, n, n, a.data(), b.data(), c.data(), block);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, kernels::dgemm_flops(n, n, n));
}
BENCHMARK(BM_DgemmBlockSizeSweep)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  for (const kernels::detail::DgemmPath& path :
       kernels::detail::supported_dgemm_paths()) {
    const std::string suffix = std::string("/") + path.name;
    benchmark::RegisterBenchmark(("BM_DgemmTiledBand" + suffix).c_str(),
                                 [&path](benchmark::State& state) {
                                   tiled_band(state, path);
                                 })
        ->Arg(4)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_MaddPeak" + suffix).c_str(),
                                 [&path](benchmark::State& state) {
                                   madd_peak(state, path);
                                 })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
