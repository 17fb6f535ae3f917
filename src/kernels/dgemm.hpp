// DGEMM implementations — the task-variant repository's compute payloads.
//
// The paper's case study calls GotoBlas2 (CPU) and CuBLAS (GPU) DGEMM. We
// substitute from-scratch variants of C = A*B + C on row-major double
// matrices (m x k times k x n):
//   * dgemm_naive    — the textbook triple loop; the "serial input program"
//                      and the reference the tests compare against
//   * dgemm_blocked  — cache-tiled scalar ikj loops; the untuned variant
//   * dgemm_tiled    — the same cache tiles around a SIMD register-blocked
//                      micro-kernel; what the GotoBlas2/CuBLAS stand-ins run
//   * dgemm_parallel — dgemm_blocked with rows split over a thread pool
// Absolute GFLOPS are below vendor BLAS, which is irrelevant for the
// reproduction: Figure 5 reports *speedup ratios* (see DESIGN.md).
#pragma once

#include <cstddef>

namespace kernels {

/// Textbook i-j-k triple loop. C += A*B.
void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c);

/// Cache-tiled i-k-j ordering with a configurable block size (0 = default).
void dgemm_blocked(std::size_t m, std::size_t n, std::size_t k, const double* a,
                   const double* b, double* c, std::size_t block = 0);

/// Cache-tiled like dgemm_blocked (64 x 64 x 64 tiles), with a
/// register-blocked micro-kernel in the interior: a block of C of 2 SIMD
/// vectors per row stays in registers across the k extent of a tile, and B
/// is read in place (no packing). The micro-kernel is compiled for baseline
/// x86-64 (SSE2) and AVX2+FMA with 4-row blocks and for AVX-512F with
/// 8-row blocks plus one 4-row pass for the rows left over; each process
/// runs the widest build its CPU supports (other architectures build only
/// the portable one). Tile edges that do not fill a 4-row block use the
/// scalar kernel.
void dgemm_tiled(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c);

/// dgemm_blocked with row-band parallelism. `threads` == 0 (the default)
/// runs on the process-wide shared pool (pdl::util::global_pool()) so
/// per-call cost is one fan-out, not a pool construction + join; a nonzero
/// `threads` spins up a dedicated pool of that size for the call.
void dgemm_parallel(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    const double* b, double* c, std::size_t threads = 0);

/// Reference batched GEMM: `batch` independent C_e += A_e·B_e products on
/// densely packed operands (A at e*m*k, B at e*k*n, C at e*m*n). The
/// textbook loop per element — the correctness baseline for the optimized
/// batched variant.
void dgemm_batched_ref(std::size_t batch, std::size_t m, std::size_t n,
                       std::size_t k, const double* a, const double* b,
                       double* c);

/// Batched small-GEMM: same contract as dgemm_batched_ref, tuned for
/// elements small enough to live in cache (the many-tiny-products shape
/// batched solvers and fringe sweeps produce). Per element it runs the
/// i-k-j streaming order whose inner loop autovectorizes; no cache
/// blocking — "small" means the whole element is the block.
void dgemm_batched_small(std::size_t batch, std::size_t m, std::size_t n,
                         std::size_t k, const double* a, const double* b,
                         double* c);

/// Mixed-precision C += A*B: inputs are demoted to float once (halving the
/// memory traffic of the inner loops) while C accumulates in double. The
/// result differs from the double kernels by at most about
/// 3 * k * max|A| * max|B| * 2^-24 per element (input + product rounding);
/// callers that need full double accuracy must not select this variant —
/// it is registered under its own Idgemm_mixed interface for exactly that
/// reason.
void dgemm_mixed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c);

/// The documented worst-case per-element absolute error dgemm_mixed adds:
/// 3 * k * max|A| * max|B| * 2^-24 (one input demotion per operand plus the
/// float product rounding, accumulated over the k extent in double). Both
/// the registered error model and the soundness property test use this
/// exact expression, so the claim checked is the claim shipped.
inline double dgemm_mixed_error_bound(std::size_t k, double max_a,
                                      double max_b) {
  return 3.0 * static_cast<double>(k) * max_a * max_b * 0x1p-24;
}

/// FLOP count of one C += A*B (2*m*n*k).
inline double dgemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// FLOP count of a batched GEMM (batch * 2*m*n*k).
inline double dgemm_batched_flops(std::size_t batch, std::size_t m,
                                  std::size_t n, std::size_t k) {
  return static_cast<double>(batch) * dgemm_flops(m, n, k);
}

}  // namespace kernels
