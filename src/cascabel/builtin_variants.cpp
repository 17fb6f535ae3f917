#include "cascabel/builtin_variants.hpp"

#include <string>

#include "kernels/cholesky.hpp"
#include "kernels/dgemm.hpp"
#include "kernels/vector_ops.hpp"

namespace cascabel {

namespace {

TaskVariant make_variant(std::string interface_name, std::string variant_name,
                         std::vector<std::string> platforms,
                         std::vector<ParamSpec> params,
                         starvm::ErrorModel model = {}) {
  TaskVariant v;
  v.pragma.task_interface = std::move(interface_name);
  v.pragma.variant_name = std::move(variant_name);
  v.pragma.target_platforms = std::move(platforms);
  v.pragma.params = std::move(params);
  v.function.name = v.pragma.variant_name;  // synthetic: no source text
  v.error_model = model;
  return v;
}

// Declared error models of the builtin kernels (starvm::ErrorModel: one
// execution adds <= coefficient * k * prod|inputs| * epsilon per element).
// Depth (the k extent) comes from the call site / guard, so it is left 0.
//
//   * double GEMM-likes: blocked summation over k is gamma_k ~ k*u; the
//     coefficient 2 covers the product rounding and tile reassociation.
//   * mixed-precision GEMM: the kernel's documented closed form — input
//     demotion + float products, double accumulation (dgemm.hpp).
//   * triangular solve: substitution adds a division per step on top of
//     the multiply-accumulate recurrence.
constexpr double kUlp = starvm::ErrorModel::kUlpDouble;
const starvm::ErrorModel kGemmModel = starvm::ErrorModel::rounding(2.0, kUlp);
const starvm::ErrorModel kMixedModel =
    starvm::ErrorModel::rounding(3.0, starvm::ErrorModel::kUlpSingle);
const starvm::ErrorModel kTrsmModel = starvm::ErrorModel::rounding(4.0, kUlp);
const starvm::ErrorModel kSyrkModel = starvm::ErrorModel::rounding(2.0, kUlp);
const starvm::ErrorModel kVecaddModel =
    starvm::ErrorModel::rounding(1.0, kUlp, 1.0);

std::string shape(std::size_t rows, std::size_t cols, std::size_t ld) {
  return std::to_string(rows) + "x" + std::to_string(cols) + " (ld " +
         std::to_string(ld) + ")";
}

/// The GEMM kernels read C as m x n, A as m x k and B as k x n, all dense
/// (ld == cols), with m, n and k taken from C and A. Fails the task naming
/// the first operand that breaks this, before any element is written.
bool gemm_operands_fit(const starvm::ExecContext& ctx, const char* interface_name) {
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  const struct {
    const char* name;
    const starvm::DataHandle& handle;
    std::size_t rows, cols;
  } operands[] = {{"C", c, m, n}, {"A", a, m, k}, {"B", ctx.handle(2), k, n}};
  for (const auto& op : operands) {
    const auto& h = op.handle;
    if (h.rows() != op.rows || h.cols() != op.cols || h.ld() != h.cols()) {
      ctx.fail(std::string(interface_name) + ": operand " + op.name + " is " +
               shape(h.rows(), h.cols(), h.ld()) + ", expected " +
               shape(op.rows, op.cols, op.cols));
      return false;
    }
  }
  return true;
}

/// C (rows x cols) += A (rows x k) * B (k x cols); geometry from handles.
/// The scalar cache-tiled kernel: the untuned side of the interface.
void dgemm_exec(const starvm::ExecContext& ctx) {
  if (!gemm_operands_fit(ctx, "Idgemm")) return;
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  kernels::dgemm_blocked(c.rows(), c.cols(), a.cols(), ctx.buffer(1), ctx.buffer(2),
                         ctx.buffer(0));
}

/// Same geometry on the SIMD register-blocked kernel (see dgemm_tiled).
void dgemm_tiled_exec(const starvm::ExecContext& ctx) {
  if (!gemm_operands_fit(ctx, "Idgemm")) return;
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  kernels::dgemm_tiled(c.rows(), c.cols(), a.cols(), ctx.buffer(1), ctx.buffer(2),
                       ctx.buffer(0));
}

double dgemm_flops(const std::vector<starvm::BufferView>& buffers) {
  const auto& c = *buffers[0].handle;
  const auto& a = *buffers[1].handle;
  return kernels::dgemm_flops(c.rows(), c.cols(), a.cols());
}

/// Mixed-precision dgemm on the same Idgemm geometry; own interface so
/// measured-rate selection can never swap it in for full-precision callers.
void dgemm_mixed_exec(const starvm::ExecContext& ctx) {
  if (!gemm_operands_fit(ctx, "Idgemm_mixed")) return;
  const auto& c = ctx.handle(0);
  const auto& a = ctx.handle(1);
  kernels::dgemm_mixed(c.rows(), c.cols(), a.cols(), ctx.buffer(1), ctx.buffer(2),
                       ctx.buffer(0));
}

/// Batched square elements, packed convention: every handle is a
/// (batch*t x t) stack of t x t elements with t = cols (row-band
/// decomposition preserves it: a band of b rows is b/t whole elements).
void dgemm_batch_seq_exec(const starvm::ExecContext& ctx) {
  const auto& c = ctx.handle(0);
  const std::size_t t = c.cols();
  const std::size_t batch = t == 0 ? 0 : c.rows() / t;
  kernels::dgemm_batched_ref(batch, t, t, t, ctx.buffer(1), ctx.buffer(2),
                             ctx.buffer(0));
}

void dgemm_batch_small_exec(const starvm::ExecContext& ctx) {
  const auto& c = ctx.handle(0);
  const std::size_t t = c.cols();
  const std::size_t batch = t == 0 ? 0 : c.rows() / t;
  kernels::dgemm_batched_small(batch, t, t, t, ctx.buffer(1), ctx.buffer(2),
                               ctx.buffer(0));
}

double dgemm_batch_flops(const std::vector<starvm::BufferView>& buffers) {
  const auto& c = *buffers[0].handle;
  const std::size_t t = c.cols();
  const std::size_t batch = t == 0 ? 0 : c.rows() / t;
  return kernels::dgemm_batched_flops(batch, t, t, t);
}

/// B (m x n) := B·L⁻ᵀ with L the n x n lower-triangular second operand.
void dtrsm_seq_exec(const starvm::ExecContext& ctx) {
  const auto& bh = ctx.handle(0);
  const auto& lh = ctx.handle(1);
  kernels::trsm_rlt(bh.rows(), lh.rows(), ctx.buffer(1), lh.ld(), ctx.buffer(0),
                    bh.ld());
}

void dtrsm_simd_exec(const starvm::ExecContext& ctx) {
  const auto& bh = ctx.handle(0);
  const auto& lh = ctx.handle(1);
  kernels::trsm_rlt_simd(bh.rows(), lh.rows(), ctx.buffer(1), lh.ld(),
                         ctx.buffer(0), bh.ld());
}

double dtrsm_flops(const std::vector<starvm::BufferView>& buffers) {
  return kernels::trsm_flops(buffers[0].handle->rows(),
                             buffers[1].handle->rows());
}

/// C (n x n) := C - A·Aᵀ on the lower triangle, A an n x k tile.
void dsyrk_seq_exec(const starvm::ExecContext& ctx) {
  const auto& ch = ctx.handle(0);
  const auto& ah = ctx.handle(1);
  kernels::syrk_ln(ch.rows(), ah.cols(), ctx.buffer(1), ah.ld(), ctx.buffer(0),
                   ch.ld());
}

void dsyrk_simd_exec(const starvm::ExecContext& ctx) {
  const auto& ch = ctx.handle(0);
  const auto& ah = ctx.handle(1);
  kernels::syrk_ln_simd(ch.rows(), ah.cols(), ctx.buffer(1), ah.ld(),
                        ctx.buffer(0), ch.ld());
}

double dsyrk_flops(const std::vector<starvm::BufferView>& buffers) {
  return kernels::syrk_flops(buffers[0].handle->rows(),
                             buffers[1].handle->cols());
}

/// A += B over A's length; B must have A's shape.
void vecadd_exec(const starvm::ExecContext& ctx) {
  const auto& a = ctx.handle(0);
  const auto& b = ctx.handle(1);
  if (b.rows() != a.rows() || b.cols() != a.cols()) {
    ctx.fail("Ivecadd: operand B is " + shape(b.rows(), b.cols(), b.ld()) +
             ", expected the shape of A, " + shape(a.rows(), a.cols(), a.ld()));
    return;
  }
  kernels::vector_add(ctx.buffer(0), ctx.buffer(1), a.cols());
}

double vecadd_flops(const std::vector<starvm::BufferView>& buffers) {
  return static_cast<double>(buffers[0].handle->cols());
}

}  // namespace

void register_builtin_variants(TaskRepository& repo) {
  const std::vector<ParamSpec> dgemm_params = {
      {"C", AccessMode::kReadWrite}, {"A", AccessMode::kRead}, {"B", AccessMode::kRead}};
  const std::vector<ParamSpec> vecadd_params = {{"A", AccessMode::kReadWrite},
                                                {"B", AccessMode::kRead}};

  // Sequential fall-back on the scalar kernel: the untuned side the
  // autotuner learns against.
  repo.add_variant(make_variant("Idgemm", "dgemm_seq", {"x86"}, dgemm_params, kGemmModel));
  repo.bind(BoundImpl{"dgemm_seq", starvm::DeviceKind::kCpu, dgemm_exec, dgemm_flops});

  // The SIMD kernel under the same fallback platform: the selector keeps
  // both and the runtime's performance model learns which one wins.
  repo.add_variant(make_variant("Idgemm", "dgemm_tiled", {"x86"}, dgemm_params, kGemmModel));
  repo.bind(BoundImpl{"dgemm_tiled", starvm::DeviceKind::kCpu, dgemm_tiled_exec,
                      dgemm_flops});

  // The stand-ins for the paper's GotoBLAS2 (smp) and CuBLAS (cuda)
  // variants run the SIMD kernel, on the widest instruction set the host
  // CPU supports; simulated accelerators execute on the host.
  repo.add_variant(make_variant("Idgemm", "dgemm_smp", {"smp"}, dgemm_params, kGemmModel));
  repo.bind(BoundImpl{"dgemm_smp", starvm::DeviceKind::kCpu, dgemm_tiled_exec,
                      dgemm_flops});

  repo.add_variant(make_variant("Idgemm", "dgemm_cublas", {"cuda"}, dgemm_params, kGemmModel));
  repo.bind(BoundImpl{"dgemm_cublas", starvm::DeviceKind::kAccelerator,
                      dgemm_tiled_exec, dgemm_flops});

  // Mixed-precision dgemm lives under its own interface: callers opt into
  // the reduced accuracy explicitly, and the measured-rate selector can
  // never flip a full-precision Idgemm call onto it.
  repo.add_variant(make_variant("Idgemm_mixed", "dgemm_mixed", {"x86"}, dgemm_params,
                               kMixedModel));
  repo.bind(BoundImpl{"dgemm_mixed", starvm::DeviceKind::kCpu, dgemm_mixed_exec,
                      dgemm_flops});

  // Batched small-GEMM: reference + cache-resident streaming variant. Both
  // are fall-backs; the perf store learns which wins on the host and the
  // selector flips once the sample threshold is met.
  const std::vector<ParamSpec> batch_params = {
      {"C", AccessMode::kReadWrite}, {"A", AccessMode::kRead}, {"B", AccessMode::kRead}};
  repo.add_variant(make_variant("Idgemm_batch", "dgemm_batch_seq", {"x86"}, batch_params,
                               kGemmModel));
  repo.bind(BoundImpl{"dgemm_batch_seq", starvm::DeviceKind::kCpu,
                      dgemm_batch_seq_exec, dgemm_batch_flops});
  repo.add_variant(
      make_variant("Idgemm_batch", "dgemm_batch_small", {"x86"}, batch_params,
                   kGemmModel));
  repo.bind(BoundImpl{"dgemm_batch_small", starvm::DeviceKind::kCpu,
                      dgemm_batch_small_exec, dgemm_batch_flops});

  // Triangular solve and rank-k update pairs (scalar + SIMD restructure),
  // the tile operations of the Cholesky/LU solvers exposed as repository
  // interfaces so selection flips show up in the decision log.
  const std::vector<ParamSpec> dtrsm_params = {{"B", AccessMode::kReadWrite},
                                               {"L", AccessMode::kRead}};
  repo.add_variant(make_variant("Idtrsm", "dtrsm_seq", {"x86"}, dtrsm_params, kTrsmModel));
  repo.bind(BoundImpl{"dtrsm_seq", starvm::DeviceKind::kCpu, dtrsm_seq_exec,
                      dtrsm_flops});
  repo.add_variant(make_variant("Idtrsm", "dtrsm_simd", {"x86"}, dtrsm_params, kTrsmModel));
  repo.bind(BoundImpl{"dtrsm_simd", starvm::DeviceKind::kCpu, dtrsm_simd_exec,
                      dtrsm_flops});

  const std::vector<ParamSpec> dsyrk_params = {{"C", AccessMode::kReadWrite},
                                               {"A", AccessMode::kRead}};
  repo.add_variant(make_variant("Idsyrk", "dsyrk_seq", {"x86"}, dsyrk_params, kSyrkModel));
  repo.bind(BoundImpl{"dsyrk_seq", starvm::DeviceKind::kCpu, dsyrk_seq_exec,
                      dsyrk_flops});
  repo.add_variant(make_variant("Idsyrk", "dsyrk_simd", {"x86"}, dsyrk_params, kSyrkModel));
  repo.bind(BoundImpl{"dsyrk_simd", starvm::DeviceKind::kCpu, dsyrk_simd_exec,
                      dsyrk_flops});

  repo.add_variant(make_variant("Ivecadd", "vecadd_seq", {"x86"}, vecadd_params, kVecaddModel));
  repo.bind(BoundImpl{"vecadd_seq", starvm::DeviceKind::kCpu, vecadd_exec, vecadd_flops});

  repo.add_variant(make_variant("Ivecadd", "vecadd_smp", {"smp"}, vecadd_params, kVecaddModel));
  repo.bind(BoundImpl{"vecadd_smp", starvm::DeviceKind::kCpu, vecadd_exec, vecadd_flops});

  repo.add_variant(make_variant("Ivecadd", "vecadd_ocl", {"opencl"}, vecadd_params,
                               kVecaddModel));
  repo.bind(BoundImpl{"vecadd_ocl", starvm::DeviceKind::kAccelerator, vecadd_exec,
                      vecadd_flops});
}

}  // namespace cascabel
