// The pure-simulation sweep that rt::Context's partition decision is held
// against (tests/cascabel_rt_test.cpp, bench/bm_partitioning): one call
// site run in kPureSim at each block count of {1, 2, 4, ..., 4 x devices},
// split and submitted the way Context::execute splits and submits it, on
// a fresh engine configured like the context's and running the codelet
// the context built for the site.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "kernels/vector_ops.hpp"

namespace cascabel::rt::sweep {

/// An execute site of examples/{vecadd_offload,dgemm_pipeline,
/// cell_offload}.cpp at its annotated size.
struct ExampleSite {
  const char* example;
  const char* iface;
  const char* group;
  std::size_t n;
};

inline constexpr ExampleSite kExampleSites[] = {
    {"vecadd_offload", "Ivecadd", "executionset01", 4096},
    {"dgemm_pipeline", "Idgemm", "all", 8192},
    {"cell_offload", "Ivecadd", "spe", 65536},
};

/// The built-in variants plus the SPE vecadd that examples/cell_offload
/// contributes.
inline TaskRepository example_repository() {
  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  TaskVariant spe;
  spe.pragma.task_interface = "Ivecadd";
  spe.pragma.variant_name = "vecadd_spe";
  spe.pragma.target_platforms = {"cell"};
  spe.pragma.params = {{"A", AccessMode::kReadWrite}, {"B", AccessMode::kRead}};
  repo.add_variant(spe);
  repo.bind(BoundImpl{"vecadd_spe", starvm::DeviceKind::kAccelerator,
                      [](const starvm::ExecContext& ctx) {
                        kernels::vector_add(ctx.buffer(0), ctx.buffer(1),
                                            ctx.handle(0).cols());
                      },
                      [](const std::vector<starvm::BufferView>& buffers) {
                        return static_cast<double>(buffers[0].handle->cols());
                      }});
  return repo;
}

/// The operands of an Idgemm (C += A·B over n x n; C and A row-banded, B
/// whole) or Ivecadd (A += B over n; both split) call. The buffers stay
/// uninitialized: only a run that executes kernels must fill them.
struct Operands {
  std::vector<std::unique_ptr<double[]>> buffers;
  std::vector<Arg> args;
};

inline Operands operands(const std::string& iface, std::size_t n) {
  Operands out;
  const bool dgemm = iface == "Idgemm";
  for (int i = 0; i < (dgemm ? 3 : 2); ++i) {
    out.buffers.emplace_back(new double[dgemm ? n * n : n]);
  }
  if (dgemm) {
    out.args = {arg_matrix(out.buffers[0].get(), n, n, AccessMode::kReadWrite,
                           DistributionKind::kBlock),
                arg_matrix(out.buffers[1].get(), n, n, AccessMode::kRead,
                           DistributionKind::kBlock),
                arg_matrix(out.buffers[2].get(), n, n, AccessMode::kRead,
                           DistributionKind::kNone)};
  } else {
    out.args = {arg(out.buffers[0].get(), n, AccessMode::kReadWrite,
                    DistributionKind::kBlock),
                arg(out.buffers[1].get(), n, AccessMode::kRead,
                    DistributionKind::kBlock)};
  }
  return out;
}

/// The kPureSim makespan of `args` split into `count` blocks with
/// `codelet`; negative when a task failed.
inline double puresim_makespan(Context& ctx, const starvm::Codelet& codelet,
                               const std::vector<Arg>& args, int count) {
  starvm::EngineConfig config = ctx.engine().config();
  config.mode = starvm::ExecutionMode::kPureSim;
  config.flight_records_per_device = 0;
  starvm::Engine engine(std::move(config));
  std::vector<starvm::DataHandle*> whole;
  std::vector<std::vector<starvm::DataHandle*>> blocks;
  for (const Arg& a : args) {
    starvm::DataHandle* h = a.rows <= 1 ? engine.register_vector(a.ptr, a.cols)
                                        : engine.register_matrix(a.ptr, a.rows, a.cols);
    whole.push_back(h);
    blocks.emplace_back();
    if (a.dist != DistributionKind::kNone && count > 1) {
      blocks.back() = a.rows <= 1 ? engine.partition_vector(h, count)
                                  : engine.partition_rows(h, count);
    }
  }
  const std::size_t extent = args[0].rows > 1 ? args[0].rows : args[0].cols;
  const int filled = std::max(1, starvm::filled_blocks(extent, count));
  for (int b = 0; b < filled; ++b) {
    starvm::TaskDesc desc;
    desc.codelet = &codelet;
    for (std::size_t i = 0; i < args.size(); ++i) {
      desc.buffers.push_back(
          {blocks[i].empty() ? whole[i] : blocks[i][static_cast<std::size_t>(b)],
           to_starvm(args[i].mode)});
    }
    engine.submit(std::move(desc));
  }
  if (!engine.wait_all().ok()) return -1.0;
  return engine.stats().makespan_seconds;
}

/// (count, kPureSim makespan) over {1, 2, 4, ..., 4 x devices} for the site
/// `iface`@`group` that `ctx` has executed with `args`.
inline std::vector<std::pair<int, double>> puresim_sweep(Context& ctx,
                                                         const std::string& iface,
                                                         const std::string& group,
                                                         const std::vector<Arg>& args) {
  const starvm::Codelet& codelet = *ctx.codelet(iface, group);
  const int per_device = 4 * static_cast<int>(ctx.engine().device_count());
  std::vector<std::pair<int, double>> out;
  for (int count = 1;; count = std::min(2 * count, per_device)) {
    out.emplace_back(count, puresim_makespan(ctx, codelet, args, count));
    if (count == per_device) break;
  }
  return out;
}

/// The sweep's fastest point, the fewest blocks on ties.
inline std::pair<int, double> best_of(const std::vector<std::pair<int, double>>& sweep) {
  std::pair<int, double> best = sweep.front();
  for (const auto& point : sweep) {
    if (point.second < best.second) best = point;
  }
  return best;
}

}  // namespace cascabel::rt::sweep
