#include "kernels/dgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/dgemm_paths.hpp"
#include "kernels/matrix.hpp"
#include "util/thread_pool.hpp"

namespace kernels {

double max_abs_diff(const double* a, const double* b, std::size_t n) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += a[i * k + p] * b[p * n + j];
      }
      c[i * n + j] += sum;
    }
  }
}

namespace {

/// One register-friendly tile: C[i0..i1) x [j0..j1) += A * B over [p0..p1).
/// i-k-j ordering streams B rows and keeps the C row hot.
void dgemm_tile(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                std::size_t p0, std::size_t p1, std::size_t n, std::size_t k,
                const double* a, const double* b, double* c) {
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t p = p0; p < p1; ++p) {
      const double aip = a[i * k + p];
      const double* b_row = b + p * n;
      double* c_row = c + i * n;
      for (std::size_t j = j0; j < j1; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
}

constexpr std::size_t kDefaultBlock = 64;

void dgemm_blocked_rows(std::size_t row_begin, std::size_t row_end, std::size_t n,
                        std::size_t k, const double* a, const double* b, double* c,
                        std::size_t block) {
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += block) {
    const std::size_t i1 = std::min(row_end, i0 + block);
    for (std::size_t p0 = 0; p0 < k; p0 += block) {
      const std::size_t p1 = std::min(k, p0 + block);
      for (std::size_t j0 = 0; j0 < n; j0 += block) {
        const std::size_t j1 = std::min(n, j0 + block);
        dgemm_tile(i0, i1, j0, j1, p0, p1, n, k, a, b, c);
      }
    }
  }
}

// --- dgemm_tiled: one micro-kernel, compiled per instruction set ------------
//
// The micro-kernel keeps an MR-row x 2-vector block of C in registers over a
// whole p-block: each step loads two vectors of one B row, broadcasts MR
// A values and issues 2*MR multiply-adds into independent accumulators.
// AVX-512 has 32 vector registers and runs 8-row blocks, so one load of B
// feeds all 8 rows of a translated task's band; SSE2 and AVX2 have 16 and
// run 4-row blocks. Rows an 8-row block leaves over get one 4-row pass, so
// the vector path covers the same rows as with 4-row blocks; the block
// height changes no element's summation order, hence none of its bits.
// B is read in place, not packed: translated tasks are 8-row bands, where
// a packing pass costs about as much as the product itself.
//
// The code is written once over the vector type and force-inlined into one
// entry point per instruction set, so each entry is compiled for its own
// target, FMA contraction included where the target has it.

typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));
typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// Vectors per row of the register block.
constexpr std::size_t kBlockVectors = 2;

/// dst[0..lanes) += v, unaligned.
template <typename V>
[[gnu::always_inline]] inline void add_into(double* dst, const V& v) {
  V d;
  std::memcpy(&d, dst, sizeof(V));
  d += v;
  std::memcpy(dst, &d, sizeof(V));
}

/// C[i..i+MR) x [j..j+NV*W) += A*B over [p0..p1), W = kLanes<V>. The loops
/// are unrolled so that the MR x NV accumulators stay in registers.
template <typename V, std::size_t MR, std::size_t NV>
[[gnu::always_inline]] inline void micro(std::size_t i, std::size_t j,
                                         std::size_t p0, std::size_t p1,
                                         std::size_t n, std::size_t k,
                                         const double* a, const double* b,
                                         double* c) {
  constexpr std::size_t w = kLanes<V>;
  V acc[MR][NV] = {};
  const double* a_block = a + i * k;
  for (std::size_t p = p0; p < p1; ++p) {
    V b_row[NV];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&b_row[v], b + p * n + j + v * w, sizeof(V));
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r) {
      const double air = a_block[r * k + p];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += air * b_row[v];
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      add_into(c + (i + r) * n + j + v * w, acc[r][v]);
    }
  }
}

/// dgemm_tiled on MR-row register blocks of C; MR is 8 or 4.
template <typename V, std::size_t MR>
[[gnu::always_inline]] inline void tiled(std::size_t m, std::size_t n,
                                         std::size_t k, const double* a,
                                         const double* b, double* c) {
  constexpr std::size_t block = kDefaultBlock;
  constexpr std::size_t cols = kBlockVectors * kLanes<V>;
  for (std::size_t i0 = 0; i0 < m; i0 += block) {
    const std::size_t i1 = std::min(m, i0 + block);
    // Rows [i0, im) take MR-row blocks and [im, i4) one 4-row block, so the
    // vector path covers the same rows for either MR.
    const std::size_t i4 = i0 + (i1 - i0) / 4 * 4;
    const std::size_t im = i0 + (i4 - i0) / MR * MR;
    for (std::size_t p0 = 0; p0 < k; p0 += block) {
      const std::size_t p1 = std::min(k, p0 + block);
      for (std::size_t j0 = 0; j0 < n; j0 += block) {
        const std::size_t j1 = std::min(n, j0 + block);
        const std::size_t jv = j0 + (j1 - j0) / cols * cols;
        for (std::size_t i = i0; i < im; i += MR) {
          for (std::size_t j = j0; j < jv; j += cols) {
            micro<V, MR, kBlockVectors>(i, j, p0, p1, n, k, a, b, c);
          }
        }
        // Runs at most once. Written as a loop, not an if: GCC 12 then
        // keeps the general registers of its inner loop off the stack.
        for (std::size_t i = im; MR > 4 && i < i4; i += 4) {
          for (std::size_t j = j0; j < jv; j += cols) {
            micro<V, 4, kBlockVectors>(i, j, p0, p1, n, k, a, b, c);
          }
        }
        // Tile edges that do not fill a register block use the scalar kernel.
        if (jv < j1) dgemm_tile(i0, i4, jv, j1, p0, p1, n, k, a, b, c);
        if (i4 < i1) dgemm_tile(i4, i1, j0, j1, p0, p1, n, k, a, b, c);
      }
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline double madd_peak(std::size_t iterations, double x,
                                               double y) {
  // Distinct starting values keep the compiler from merging the chains.
  V acc[detail::kPeakChains];
  for (std::size_t ch = 0; ch < detail::kPeakChains; ++ch) {
    acc[ch] = V{} + static_cast<double>(ch) * y;
  }
  for (std::size_t it = 0; it < iterations; ++it) {
    for (V& v : acc) v = v * x + y;
  }
  double sum = 0.0;
  for (const V& v : acc) {
    for (std::size_t lane = 0; lane < kLanes<V>; ++lane) sum += v[lane];
  }
  return sum;
}

void tiled_baseline(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    const double* b, double* c) {
  tiled<Vec2, 4>(m, n, k, a, b, c);
}

double peak_baseline(std::size_t iterations, double x, double y) {
  return madd_peak<Vec2>(iterations, x, y);
}

#if defined(__x86_64__)
[[gnu::target("avx2,fma")]] void tiled_avx2(std::size_t m, std::size_t n,
                                            std::size_t k, const double* a,
                                            const double* b, double* c) {
  tiled<Vec4, 4>(m, n, k, a, b, c);
}

[[gnu::target("avx2,fma")]] double peak_avx2(std::size_t iterations, double x,
                                             double y) {
  return madd_peak<Vec4>(iterations, x, y);
}

[[gnu::target("avx512f")]] void tiled_avx512(std::size_t m, std::size_t n,
                                             std::size_t k, const double* a,
                                             const double* b, double* c) {
  tiled<Vec8, 8>(m, n, k, a, b, c);
}

[[gnu::target("avx512f")]] double peak_avx512(std::size_t iterations, double x,
                                              double y) {
  return madd_peak<Vec8>(iterations, x, y);
}
#endif

// Ordered so that each path's CPU requirement implies the previous one's:
// the supported paths are always a prefix.
constexpr detail::DgemmPath kPaths[] = {
#if defined(__x86_64__)
    {"sse2", kLanes<Vec2>, tiled_baseline, peak_baseline},
    {"avx2", kLanes<Vec4>, tiled_avx2, peak_avx2},
    {"avx512", kLanes<Vec8>, tiled_avx512, peak_avx512},
#else
    {"generic", kLanes<Vec2>, tiled_baseline, peak_baseline},
#endif
};

}  // namespace

void dgemm_blocked(std::size_t m, std::size_t n, std::size_t k, const double* a,
                   const double* b, double* c, std::size_t block) {
  if (block == 0) block = kDefaultBlock;
  dgemm_blocked_rows(0, m, n, k, a, b, c, block);
}

std::span<const detail::DgemmPath> detail::supported_dgemm_paths() {
  static const std::size_t count = [] {
    std::size_t supported = 1;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      supported = __builtin_cpu_supports("avx512f") ? 3 : 2;
    }
#endif
    return supported;
  }();
  return {kPaths, count};
}

void dgemm_tiled(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c) {
  detail::supported_dgemm_paths().back().tiled(m, n, k, a, b, c);
}

void dgemm_batched_ref(std::size_t batch, std::size_t m, std::size_t n,
                       std::size_t k, const double* a, const double* b,
                       double* c) {
  for (std::size_t e = 0; e < batch; ++e) {
    dgemm_naive(m, n, k, a + e * m * k, b + e * k * n, c + e * m * n);
  }
}

void dgemm_batched_small(std::size_t batch, std::size_t m, std::size_t n,
                         std::size_t k, const double* a, const double* b,
                         double* c) {
  // Each element is assumed cache-resident, so the win over the reference
  // is purely the loop order: i-k-j streams B rows and keeps the C row hot,
  // and the j-loop (inside dgemm_tile) autovectorizes.
  for (std::size_t e = 0; e < batch; ++e) {
    dgemm_tile(0, m, 0, n, 0, k, n, k, a + e * m * k, b + e * k * n,
               c + e * m * n);
  }
}

void dgemm_mixed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c) {
  // Demote the inputs once up front: the hot loops then move half the bytes
  // of the double kernels while C still accumulates in double. Products are
  // formed in float, so the per-element error grows linearly in k with a
  // 2^-24 rounding constant (see the header's bound).
  std::vector<float> af(m * k);
  std::vector<float> bf(k * n);
  for (std::size_t i = 0; i < m * k; ++i) af[i] = static_cast<float>(a[i]);
  for (std::size_t i = 0; i < k * n; ++i) bf[i] = static_cast<float>(b[i]);
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = af[i * k + p];
      const float* brow = bf.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += static_cast<double>(aip * brow[j]);
      }
    }
  }
}

void dgemm_parallel(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    const double* b, double* c, std::size_t threads) {
  // Row bands are disjoint in C, so no synchronization beyond the joins.
  const auto run_bands = [&](pdl::util::ThreadPool& pool) {
    const std::size_t bands = pool.size();
    const std::size_t rows_per_band = (m + bands - 1) / bands;
    pool.parallel_for(0, bands, [&](std::size_t band) {
      const std::size_t row_begin = band * rows_per_band;
      const std::size_t row_end = std::min(m, row_begin + rows_per_band);
      if (row_begin < row_end) {
        dgemm_blocked_rows(row_begin, row_end, n, k, a, b, c, kDefaultBlock);
      }
    });
  };
  if (threads == 0) {
    run_bands(pdl::util::global_pool());
  } else {
    pdl::util::ThreadPool pool(threads);
    run_bands(pool);
  }
}

}  // namespace kernels
