// Per-instruction-set builds of dgemm_tiled. Internal to the kernels
// library, its tests and its benches: callers use kernels::dgemm_tiled,
// which runs the widest path the CPU supports. Tests reach the narrower
// paths through this header so every compiled path stays checked on hosts
// that would never dispatch to it.
#pragma once

#include <cstddef>
#include <span>

namespace kernels::detail {

/// Independent accumulator chains of the multiply-add peak loop: enough to
/// cover the latency of two FMA pipes on current x86 cores.
inline constexpr std::size_t kPeakChains = 12;

/// One compiled build of the register-blocked micro-kernel.
struct DgemmPath {
  const char* name;            ///< "sse2" (or "generic"), "avx2", "avx512"
  std::size_t vector_doubles;  ///< doubles per SIMD vector of this build
  /// dgemm_tiled compiled for this instruction set.
  void (*tiled)(std::size_t m, std::size_t n, std::size_t k, const double* a,
                const double* b, double* c);
  /// Multiply-add peak loop at this build's vector width: `iterations`
  /// steps of kPeakChains independent chains acc = acc * x + y, i.e.
  /// iterations * kPeakChains * vector_doubles * 2 flops. Returns the sum
  /// of the accumulators so the work stays observable.
  double (*madd_peak)(std::size_t iterations, double x, double y);
};

/// The paths compiled into this build that the host CPU supports,
/// narrowest first; dgemm_tiled runs the last one. Decided once per
/// process.
std::span<const DgemmPath> supported_dgemm_paths();

}  // namespace kernels::detail
