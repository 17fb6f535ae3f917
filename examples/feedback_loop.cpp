// The paper's §VI future work, demonstrated: run a workload for real,
// observe the per-device rates the runtime actually achieved, write them
// back into the platform description as *unfixed* properties (the PDL's
// to-be-instantiated-by-a-runtime mechanism, §III-B), and compare the
// schedules the descriptor predicts before and after.
//
// The testbed descriptor claims 9.8 GFLOPS per CPU core (GotoBLAS2 on a
// Xeon X5550); the machine this example runs on is whatever it is. Round 1
// executes the case-study DGEMM in hybrid mode — CPU costs are *measured*
// — and persists the learned per-(variant, device class) rates to a perf
// store; the feedback pass instantiates each PU's class rate from that
// store. Round 2 shows how the modeled schedule shifts once the descriptor
// tells the truth; round 3 warms a fresh runtime from the same store.
//
//   $ ./feedback_loop
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/feedback.hpp"
#include "cascabel/rt.hpp"
#include "discovery/presets.hpp"
#include "kernels/matrix.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "starvm/trace_export.hpp"

namespace {

starvm::EngineStats run_dgemm(const pdl::Platform& target, std::size_t n,
                              starvm::ExecutionMode mode,
                              const std::string& store_path = "") {
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);
  cascabel::rt::Options options;
  options.mode = mode;
  options.perf_store_path = store_path;
  cascabel::rt::Context ctx(target, std::move(repo), options);

  kernels::Matrix a(n, n), b(n, n), c(n, n);
  if (mode == starvm::ExecutionMode::kHybrid) {
    a.fill_random(1);
    b.fill_random(2);
  }
  auto status = ctx.execute(
      "Idgemm", "all",
      {cascabel::rt::arg_matrix(c.data(), n, n, cascabel::AccessMode::kReadWrite,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(a.data(), n, n, cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kBlock),
       cascabel::rt::arg_matrix(b.data(), n, n, cascabel::AccessMode::kRead,
                                cascabel::DistributionKind::kNone)});
  if (!status.ok()) {
    std::fprintf(stderr, "execute failed: %s\n", status.error().str().c_str());
    std::exit(1);
  }
  (void)ctx.wait();
  return ctx.stats();
}

void print_rates(const pdl::Platform& platform, const char* title) {
  std::printf("%s\n", title);
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    const pdl::Property* sustained =
        pu->descriptor().find(pdl::props::kSustainedGflops);
    const pdl::Property* measured =
        pu->descriptor().find(pdl::props::kMeasuredGflops);
    if (sustained == nullptr && measured == nullptr) continue;
    std::printf("  %-10s sustained=%-10s measured=%s\n", pu->id().c_str(),
                sustained ? sustained->value.c_str() : "-",
                measured ? measured->value.c_str() : "-");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // The descriptor author marks the CPU rate as unfixed: "measure me".
  pdl::Platform target = pdl::discovery::paper_platform_starpu_2gpu();
  auto* cores =
      const_cast<pdl::ProcessingUnit*>(pdl::find_pu(target, "cpu_cores"));
  if (auto* p = cores->descriptor().find(pdl::props::kSustainedGflops)) {
    p->fixed = false;
  }
  print_rates(target, "=== descriptor before feedback (datasheet rates) ===");

  std::printf("=== round 1: real execution (hybrid), DGEMM N=512 ===\n");
  const std::string store_path = "feedback_loop.perfstore";
  std::remove(store_path.c_str());
  const starvm::EngineStats observed =
      run_dgemm(target, 512, starvm::ExecutionMode::kHybrid, store_path);
  std::printf("%s\n", starvm::to_ascii_gantt(observed).c_str());

  // The engine saved what it measured on shutdown; the feedback pass reads
  // each PU's class rate from that store.
  const starvm::perf_store::LoadResult learned = starvm::perf_store::load(store_path);
  cascabel::RefineReport report;
  pdl::Platform refined =
      cascabel::refine_platform(target, learned.store, &report);
  std::printf("feedback: %d PU(s) annotated, %d unfixed SUSTAINED_GFLOPS "
              "re-instantiated\n\n",
              report.pus_updated, report.sustained_updated);
  print_rates(refined, "=== descriptor after feedback (measured rates) ===");

  std::printf("=== round 2: modeled schedules at paper scale (N=8192) ===\n");
  const double before =
      run_dgemm(target, 8192, starvm::ExecutionMode::kPureSim).makespan_seconds;
  const double after =
      run_dgemm(refined, 8192, starvm::ExecutionMode::kPureSim).makespan_seconds;
  std::printf("predicted makespan, datasheet descriptor: %8.3f s\n", before);
  std::printf("predicted makespan, measured descriptor:  %8.3f s\n", after);
  std::printf("\nthe refined descriptor predicts with this machine's real CPU "
              "rate\ninstead of the 2011 testbed's — the §VI loop is closed.\n");

  // Round 3: the loop closed *inside* the runtime. A fresh context pointed
  // at round 1's store starts with warm HEFT estimates and ranks variants
  // by measured rate instead of declared specificity.
  std::printf("\n=== round 3: persisted perf store drives variant selection ===\n");

  {
    cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
    cascabel::register_builtin_variants(repo);
    cascabel::rt::Options warm_options;
    warm_options.mode = starvm::ExecutionMode::kHybrid;
    warm_options.perf_store_path = store_path;
    cascabel::rt::Context warm(target, std::move(repo), warm_options);
    const starvm::perf_store::Store* store = warm.perf_store();
    std::printf("store reloaded: %s (%zu learned rate cell(s))\n",
                store != nullptr ? "yes" : "no",
                store != nullptr ? store->entries.size() : std::size_t{0});

    kernels::Matrix a(512, 512), b(512, 512), c(512, 512);
    a.fill_random(1);
    b.fill_random(2);
    (void)warm.execute(
        "Idgemm", "all",
        {cascabel::rt::arg_matrix(c.data(), 512, 512,
                                  cascabel::AccessMode::kReadWrite,
                                  cascabel::DistributionKind::kBlock),
         cascabel::rt::arg_matrix(a.data(), 512, 512, cascabel::AccessMode::kRead,
                                  cascabel::DistributionKind::kBlock),
         cascabel::rt::arg_matrix(b.data(), 512, 512, cascabel::AccessMode::kRead,
                                  cascabel::DistributionKind::kNone)});
    (void)warm.wait();
    for (const auto& d : warm.diagnostics()) {
      const std::string text = d.str();
      if (text.find("perf store") != std::string::npos) {
        std::printf("  %s\n", text.c_str());
      }
    }
    const starvm::EngineStats warm_stats = warm.stats();
    std::printf("engine preloaded %llu store cell(s); measured rates now rank "
                "the Idgemm variants.\n",
                static_cast<unsigned long long>(warm_stats.perf_store_entries));
  }  // the warm context's engine re-saves the store here, on shutdown
  std::remove(store_path.c_str());
  std::remove((store_path + ".tmp").c_str());
  return 0;
}
