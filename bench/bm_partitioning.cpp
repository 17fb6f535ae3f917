// ABL2 — partitioning granularity (DESIGN.md).
//
// The paper's execute annotations carry BLOCK distribution specifiers but
// leave the granularity to the toolchain (§IV-C step 3). rt::Context
// derives it from the description: the fewest blocks whose modeled
// makespan is within 2% of the best count of {1, 2, 4, ..., 4 x devices}.
// This harness checks that choice against pure simulation:
//   1. the chosen count beside the kPureSim sweep for the Fig-5 DGEMM
//      (starpu+2gpu, N = 256 and 4096), perfbench's `wide` vecadd (N =
//      4096 on 1000 x86 cores) and the Cell vecadd (N = 65536, 8 SPEs);
//   2. one row per example execute site and platforms/*.pdl.xml: the
//      chosen count, its makespan and the sweep's best count;
//   3. the per-device sweep of the N = 4096 DGEMM
//      (Options::blocks_per_device): too few blocks starve the device mix,
//      too many drown in per-task overhead and transfers.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "discovery/presets.hpp"
#include "partition_sweep.hpp"
#include "pdl/parser.hpp"
#include "util/string_util.hpp"
#include "wide_platform.hpp"

namespace {

namespace rt = cascabel::rt;
namespace sweep = cascabel::rt::sweep;

rt::Options puresim() {
  rt::Options options;
  options.mode = starvm::ExecutionMode::kPureSim;
  return options;
}

/// The chosen count's run and the sweep beside it.
void report(const char* title, const pdl::Platform& platform, const char* iface,
            const char* group, std::size_t n) {
  rt::Context ctx(platform, sweep::example_repository(), puresim());
  const sweep::Operands ops = sweep::operands(iface, n);
  if (!ctx.execute(iface, group, ops.args).ok() || !ctx.wait().ok()) {
    std::printf("%s: does not run\n", title);
    return;
  }
  const auto stats = ctx.stats();
  std::printf("\n--- %s, %zu device(s) ---\n", title, ctx.engine().device_count());
  std::printf("%8s %8s %14s\n", "blocks", "tasks", "makespan [ms]");
  const std::size_t extent = ops.args[0].rows > 1 ? ops.args[0].rows : ops.args[0].cols;
  const auto points = sweep::puresim_sweep(ctx, iface, group, ops.args);
  for (const auto& [count, seconds] : points) {
    std::printf("%8d %8d %14.4f\n", count,
                std::max(1, starvm::filled_blocks(extent, count)), seconds * 1e3);
  }
  const auto best = sweep::best_of(points);
  std::printf("chosen: %llu block(s), %.4f ms; sweep best: %d block(s), %.4f ms\n",
              static_cast<unsigned long long>(stats.tasks_submitted),
              stats.makespan_seconds * 1e3, best.first, best.second * 1e3);
  for (const auto& d : ctx.diagnostics()) {
    if (d.message.rfind("partition: ", 0) == 0) std::printf("  %s\n", d.message.c_str());
  }
}

/// One row per example site and platform.
void example_table() {
  std::vector<std::filesystem::path> platforms;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PDL_SOURCE_DIR) + "/platforms")) {
    platforms.push_back(entry.path());
  }
  std::sort(platforms.begin(), platforms.end());
  std::printf("\n%-15s %-28s %7s %12s %7s %12s %12s\n", "example", "platform",
              "chosen", "[ms]", "best", "[ms]", "4/dev [ms]");
  for (const sweep::ExampleSite& site : sweep::kExampleSites) {
    const sweep::Operands ops = sweep::operands(site.iface, site.n);
    for (const auto& path : platforms) {
      const auto text = pdl::util::read_file(path.string());
      pdl::Diagnostics diags;
      auto platform = pdl::parse_platform(text.value_or(""), diags, path.string());
      if (!platform) continue;
      rt::Context ctx(platform.value(), sweep::example_repository(), puresim());
      if (!ctx.execute(site.iface, site.group, ops.args).ok() || !ctx.wait().ok()) {
        std::printf("%-15s %-28s %7s\n", site.example, path.filename().c_str(), "-");
        continue;
      }
      const auto points = sweep::puresim_sweep(ctx, site.iface, site.group, ops.args);
      const auto best = sweep::best_of(points);
      const auto stats = ctx.stats();
      std::printf("%-15s %-28s %7llu %12.4f %7d %12.4f %12.4f\n", site.example,
                  path.filename().c_str(),
                  static_cast<unsigned long long>(stats.tasks_submitted),
                  stats.makespan_seconds * 1e3, best.first, best.second * 1e3,
                  points.back().second * 1e3);
    }
  }
}

/// The N = 4096 DGEMM at a fixed number of blocks per device.
double per_device(int blocks_per_device, std::size_t n) {
  rt::Options options = puresim();
  options.blocks_per_device = blocks_per_device;
  rt::Context ctx(pdl::discovery::paper_platform_starpu_2gpu(),
                  sweep::example_repository(), options);
  const sweep::Operands ops = sweep::operands("Idgemm", n);
  if (!ctx.execute("Idgemm", "all", ops.args).ok()) std::exit(1);
  (void)ctx.wait();
  const auto stats = ctx.stats();
  std::printf("%8d %10llu %14.3f %14.3f\n", blocks_per_device,
              static_cast<unsigned long long>(stats.tasks_completed),
              stats.makespan_seconds,
              static_cast<double>(stats.transfer_bytes) / (1 << 20));
  return stats.makespan_seconds;
}

}  // namespace

int main() {
  std::printf("=== ABL2: block count from the description vs the kPureSim sweep ===\n");
  report("Fig-5 DGEMM N=256 on starpu+2gpu",
         pdl::discovery::paper_platform_starpu_2gpu(), "Idgemm", "all", 256);
  report("Fig-5 DGEMM N=4096 on starpu+2gpu",
         pdl::discovery::paper_platform_starpu_2gpu(), "Idgemm", "all", 4096);
  report("wide: vecadd N=4096 on 1000 x86 cores", pdl::fixtures::wide_platform(),
         "Ivecadd", "all", 4096);
  report("Cell vecadd N=65536 on cell-be", pdl::discovery::cell_be_platform(),
         "Ivecadd", "spe", 65536);

  std::printf("\n=== ABL2: example execute sites on platforms/*.pdl.xml ===\n");
  example_table();

  const std::size_t n = 4096;
  std::printf("\n=== ABL2: blocks per device (DGEMM N=%zu, starpu+2gpu, pure sim) ===\n",
              n);
  std::printf("%8s %10s %14s %14s\n", "blk/dev", "tasks", "makespan [s]",
              "xfer [MiB]");
  double best = 1e30;
  int best_blocks = 0;
  for (int blocks : {1, 2, 4, 8, 16, 32, 64}) {
    const double t = per_device(blocks, n);
    if (t < best) {
      best = t;
      best_blocks = blocks;
    }
  }
  std::printf("\nbest granularity: %d block(s) per device (%.3f s)\n", best_blocks,
              best);
  return 0;
}
