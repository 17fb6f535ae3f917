// pdltool — command-line utility over the PDL library.
//
//   pdltool validate <platform.xml>          structural + subschema checks
//   pdltool lint <platform.xml>              validate + A1xx analysis rules
//   pdltool plan <platform.xml> <graph>      schedule-aware capacity &
//                                            interference analysis (A5xx)
//                                            of a task-graph fixture
//   pdltool profile <platform.xml> <graph>   run the graph on a pure-sim
//                                            engine built from the platform
//                                            (the run `plan` reads) and
//                                            print the measured critical
//                                            path + rate drift
//   pdltool perf dump <store>                print a persisted perf store
//   pdltool perf check <store> <platform.xml>
//                                            verify every entry prices a
//                                            device class of the platform
//   pdltool perf clear <store>               delete a persisted perf store
//   pdltool query <platform.xml> <what>      what: summary | groups |
//                                            workers | interconnects
//   pdltool match <platform.xml> <pattern>   compact-syntax pattern match
//   pdltool discover [--gpus]                emit PDL for this host
//   pdltool presets                          print the shipped platforms/ files
//
// The "namespace for reference to architectural properties" usage scenario
// of paper §II, as a tool.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/accuracy.hpp"
#include "analysis/capacity.hpp"
#include "starvm/bridge.hpp"
#include "starvm/perf_store.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/profile.hpp"
#include "analysis/report.hpp"
#include "analysis/schedule_sim.hpp"
#include "discovery/discovery.hpp"
#include "obs/env.hpp"
#include "obs/metrics.hpp"
#include "discovery/presets.hpp"
#include "pdl/diff.hpp"
#include "pdl/extension.hpp"
#include "pdl/schema_export.hpp"
#include "pdl/parser.hpp"
#include "pdl/pattern.hpp"
#include "pdl/query.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s validate <platform.xml>\n"
               "  %s lint <platform.xml>\n"
               "  %s plan <platform.xml> <graph-file>\n"
               "  %s profile <platform.xml> <graph-file>\n"
               "  %s perf dump|check|clear <store> [platform.xml]\n"
               "  %s query <platform.xml> summary|groups|workers|interconnects\n"
               "  %s match <platform.xml> <compact-pattern>\n"
               "  %s discover [--gpus]\n"
               "  %s presets\n"
               "  %s xsd\n"
               "  %s diff <old.xml> <new.xml>\n"
               "  %s path <platform.xml> <fromPu> <toPu> [bytes]\n"
               "options: --metrics-out <file>   write an obs metrics snapshot"
               " (also: PDL_METRICS)\n"
               "         --perf-store <file>    feed measured rates into plan/"
               "profile\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0);
}

int load(const char* path, pdl::Platform& out) {
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform_file(path, diags);
  if (!platform) {
    std::fprintf(stderr, "pdltool: %s\n", platform.error().str().c_str());
    return 1;
  }
  for (const auto& d : diags) std::fprintf(stderr, "  %s\n", d.str().c_str());
  if (pdl::has_errors(diags)) return 1;
  out = std::move(platform).value();
  return 0;
}

int cmd_validate(const char* path) {
  pdl::Platform platform;
  if (load(path, platform) != 0) return 1;
  pdl::Diagnostics diags;
  const bool structure = pdl::validate(platform, diags);
  const bool schema = pdl::builtin_registry().validate_properties(platform, diags);
  for (const auto& d : diags) std::printf("%s\n", d.str().c_str());
  std::printf("%s: structure %s, subschemas %s (%zu diagnostic(s))\n", path,
              structure ? "OK" : "INVALID", schema ? "OK" : "INVALID", diags.size());
  return structure && schema ? 0 : 1;
}

/// The analyzer gate as a subcommand: structure + subschemas + A1xx rules
/// with pdlcheck's normalized text report (the full cross-layer analysis,
/// including program checks, lives in the pdlcheck binary).
int cmd_lint(const char* path) {
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform_file(path, diags);
  if (!platform) {
    std::fprintf(stderr, "pdltool: %s\n", platform.error().str().c_str());
    return 1;
  }
  pdl::validate(platform.value(), diags);
  pdl::builtin_registry().validate_properties(platform.value(), diags);
  analysis::analyze_platform(platform.value(), analysis::AnalysisOptions{}, diags);
  pdl::normalize(diags);
  std::printf("%s", analysis::render_text(diags).c_str());
  return analysis::exit_code(diags, /*werror=*/false);
}

/// The devices `pdltool plan|profile` run a platform on: every PU, none
/// set aside as an accelerator driver.
pdl::util::Result<starvm::EngineConfig> every_pu_config(
    const pdl::Platform& platform) {
  starvm::BridgeOptions options;
  options.dedicate_driver_cores = false;
  return starvm::engine_config_from_platform(platform, options);
}

/// Load a perf store for a platform: returns true and fills `store` only
/// when the file loads cleanly AND holds a rate of one of the platform's
/// device classes. Every rejection is explained on stderr; the caller
/// falls back to declared rates.
bool load_store_for_platform(const std::string& store_path,
                             const pdl::Platform& platform,
                             starvm::perf_store::Store& store) {
  if (store_path.empty()) return false;
  starvm::perf_store::LoadResult loaded = starvm::perf_store::load(store_path);
  if (loaded.status == starvm::perf_store::LoadStatus::kMissing) {
    std::fprintf(stderr, "pdltool: perf store '%s' not found\n", store_path.c_str());
    return false;
  }
  if (loaded.status != starvm::perf_store::LoadStatus::kLoaded) {
    std::fprintf(stderr,
                 "pdltool: perf store '%s' rejected (unsupported version or "
                 "corrupt); using declared rates\n",
                 store_path.c_str());
    return false;
  }
  auto config = every_pu_config(platform);
  if (!config.ok()) return false;
  if (starvm::perf_store::applicable(loaded.store, config.value().devices) == 0) {
    std::fprintf(stderr,
                 "pdltool: perf store '%s' holds no rate of this platform's "
                 "device classes; using declared rates\n",
                 store_path.c_str());
    return false;
  }
  store = std::move(loaded.store);
  return true;
}

/// Schedule-aware analysis of a task-graph fixture against a platform:
/// prints the plan (makespan, loads, peaks) and the A5xx findings, with
/// pdlcheck's exit-code contract. A matching perf store prices compute at
/// its learned rates instead of the declared ones.
int cmd_plan(const char* platform_path, const char* graph_path,
             const std::string& store_path) {
  pdl::Platform platform;
  if (load(platform_path, platform) != 0) return 1;
  auto graph = analysis::load_graph_file(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "pdltool: %s\n", graph.error().str().c_str());
    return 1;
  }
  starvm::perf_store::Store store;
  const bool have_store = load_store_for_platform(store_path, platform, store);
  const analysis::AnalysisOptions options;
  pdl::Diagnostics diags;
  analysis::analyze_task_graph(graph.value(), options, diags);
  analysis::analyze_accuracy(graph.value(), options, diags,
                             analysis::accuracy_epsilon_floor(platform));
  const analysis::SchedulePlan plan = analysis::analyze_schedule(
      graph.value(), platform, options, diags, have_store ? &store : nullptr);
  pdl::normalize(diags);
  std::printf("%s", analysis::render_plan_text(plan, graph.value()).c_str());
  std::printf("%s", analysis::render_text(diags).c_str());
  return analysis::exit_code(diags, /*werror=*/false);
}

/// Profiling of a task-graph fixture: execute the graph on the pure-sim
/// engine built from the platform (flight recorder on) — the run `pdltool
/// plan` reads its schedule from — then print the critical path and the
/// per-(task, device) rate drift.
int cmd_profile(const char* platform_path, const char* graph_path,
                const std::string& store_path) {
  pdl::Platform platform;
  if (load(platform_path, platform) != 0) return 1;
  auto graph = analysis::load_graph_file(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "pdltool: %s\n", graph.error().str().c_str());
    return 1;
  }
  starvm::perf_store::Store store;
  const bool have_store = load_store_for_platform(store_path, platform, store);
  auto stats = analysis::run_graph_on_platform(graph.value(), platform,
                                               have_store ? &store : nullptr);
  if (!stats.ok()) {
    std::fprintf(stderr, "pdltool: %s\n", stats.error().str().c_str());
    return 1;
  }
  analysis::RunProfile profile = analysis::profile_run(stats.value());
  // Third drift column: measured vs the store's learned rate, flagging
  // decayed entries.
  if (have_store) analysis::apply_store_rates(profile, stats.value(), store);
  std::printf("%s", analysis::render_profile_text(profile).c_str());
  for (const auto& error : stats.value().errors) {
    std::fprintf(stderr, "pdltool: %s\n", error.c_str());
  }
  return stats.value().failed_tasks == 0 ? 0 : 1;
}

/// Inspect / verify / delete a persisted perf store.
int cmd_perf(const std::string& action, const char* store_path,
             const char* platform_path) {
  if (action == "clear") {
    const starvm::perf_store::LoadResult probe = starvm::perf_store::load(store_path);
    if (probe.status == starvm::perf_store::LoadStatus::kMissing) {
      std::printf("perf store '%s' already absent\n", store_path);
      return 0;
    }
    if (std::remove(store_path) != 0) {
      std::fprintf(stderr, "pdltool: cannot remove '%s'\n", store_path);
      return 1;
    }
    std::printf("perf store '%s' cleared\n", store_path);
    return 0;
  }

  starvm::perf_store::LoadResult loaded = starvm::perf_store::load(store_path);
  switch (loaded.status) {
    case starvm::perf_store::LoadStatus::kMissing:
      std::fprintf(stderr, "pdltool: perf store '%s' not found\n", store_path);
      return 1;
    case starvm::perf_store::LoadStatus::kBadVersion:
      std::fprintf(stderr, "pdltool: perf store '%s' has an unsupported version\n",
                   store_path);
      return 1;
    case starvm::perf_store::LoadStatus::kCorrupt:
      std::fprintf(stderr, "pdltool: perf store '%s' is corrupt\n", store_path);
      return 1;
    case starvm::perf_store::LoadStatus::kLoaded:
      break;
  }

  const auto print_entry = [](const char* mark,
                               const starvm::perf_store::Entry& e) {
    std::printf("%s%s @ class %016llx: ema %.3g s over %llu sample(s)", mark,
                e.codelet.c_str(), static_cast<unsigned long long>(e.class_key),
                e.ema_seconds, static_cast<unsigned long long>(e.count));
    if (e.ema_gflops > 0.0) std::printf(", %.2f GFLOPS", e.ema_gflops);
    std::printf("\n");
  };
  const std::vector<starvm::perf_store::Entry>& entries = loaded.store.entries;
  if (action == "dump") {
    std::printf("perf store '%s': %zu entr%s\n", store_path, entries.size(),
                entries.size() == 1 ? "y" : "ies");
    for (const starvm::perf_store::Entry& e : entries) print_entry("  ", e);
    return 0;
  }

  if (action == "check") {
    if (platform_path == nullptr) {
      std::fprintf(stderr, "pdltool: perf check needs a platform.xml\n");
      return 2;
    }
    pdl::Platform platform;
    if (load(platform_path, platform) != 0) return 1;
    auto config = every_pu_config(platform);
    if (!config.ok()) {
      std::fprintf(stderr, "pdltool: %s\n", config.error().str().c_str());
      return 1;
    }
    // Every entry prices the devices of its class; one of a class the
    // platform lacks prices nothing there.
    const std::size_t matched =
        starvm::perf_store::applicable(loaded.store, config.value().devices);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      print_entry(i < matched ? "  MATCH " : "  NO CLASS ", entries[i]);
    }
    std::printf("%s: %zu of %zu entr%s of store '%s' price a device class of "
                "platform '%s'\n",
                matched == entries.size() ? "MATCH" : "MISMATCH", matched,
                entries.size(), entries.size() == 1 ? "y" : "ies", store_path,
                platform.name().c_str());
    return matched == entries.size() ? 0 : 1;
  }

  std::fprintf(stderr, "pdltool: unknown perf action '%s' (dump|check|clear)\n",
               action.c_str());
  return 2;
}

int cmd_query(const char* path, const std::string& what) {
  pdl::Platform platform;
  if (load(path, platform) != 0) return 1;
  if (what == "summary") {
    std::printf("name: %s\n", platform.name().c_str());
    std::printf("masters: %zu\n", platform.masters().size());
    std::printf("total PUs (quantities): %d\n", pdl::total_pu_count(platform));
    std::printf("workers: %d\n", pdl::worker_count(platform));
    std::printf("hierarchy depth: %d\n", pdl::hierarchy_depth(platform));
    for (const auto& master : platform.masters()) {
      std::printf("structure: %s\n", pdl::pattern_to_string(*master).c_str());
    }
  } else if (what == "groups") {
    for (const auto& group : pdl::logic_groups(platform)) {
      std::printf("%s:", group.c_str());
      for (const auto* pu : pdl::group_members(platform, group)) {
        std::printf(" %s", pu->id().c_str());
      }
      std::printf("\n");
    }
  } else if (what == "workers") {
    for (const auto* pu : pdl::pus_of_kind(platform, pdl::PuKind::kWorker)) {
      std::printf("%s x%d arch=%s path=%s\n", pu->id().c_str(), pu->quantity(),
                  pdl::resolved_value(*pu, "ARCHITECTURE").c_str(),
                  pu->path().c_str());
    }
  } else if (what == "interconnects") {
    for (const auto* ic : pdl::all_interconnects(platform)) {
      std::printf("%s -> %s type=%s scheme=%s\n", ic->from.c_str(), ic->to.c_str(),
                  ic->type.c_str(), ic->scheme.c_str());
    }
  } else {
    std::fprintf(stderr, "pdltool: unknown query '%s'\n", what.c_str());
    return 2;
  }
  return 0;
}

int cmd_match(const char* path, const char* pattern) {
  pdl::Platform platform;
  if (load(path, platform) != 0) return 1;
  const pdl::MatchResult result = pdl::match(pattern, platform);
  if (result) {
    std::printf("MATCH (%zu binding(s))\n", result.bindings.size());
    return 0;
  }
  std::printf("NO MATCH: %s\n", result.reason.c_str());
  return 1;
}

int cmd_discover(bool with_gpus) {
  pdl::Platform platform =
      with_gpus
          ? pdl::discovery::make_gpgpu_platform(
                pdl::discovery::read_host_cpu(),
                pdl::discovery::read_host_cpu().physical_cores,
                {"GeForce GTX 480", "GeForce GTX 285"})
          : pdl::discovery::discover_host();
  std::printf("%s", pdl::serialize(platform).c_str());
  return 0;
}

int cmd_presets() {
  for (const auto& [stem, text] : pdl::discovery::preset_files()) {
    std::printf("<!-- preset: %.*s -->\n", static_cast<int>(stem.size()), stem.data());
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return 0;
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // PDL_METRICS provides the default; --metrics-out (anywhere on the
  // command line, "--metrics-out f" or "--metrics-out=f") overrides it.
  obs::init_from_env();
  std::string metrics_path = obs::env_metrics_path();
  // --perf-store feeds the plan and profile subcommands; like pdlcheck
  // --plan, they read no PDL_PERF_STORE.
  std::string perf_store_path;
  std::vector<char*> args;
  for (int i = 0; i < raw_argc; ++i) {
    std::string flag = raw_argv[i];
    if (flag == "--metrics-out" && i + 1 < raw_argc) {
      metrics_path = raw_argv[++i];
      continue;
    }
    if (flag.rfind("--metrics-out=", 0) == 0) {
      metrics_path = flag.substr(std::strlen("--metrics-out="));
      continue;
    }
    if (flag == "--perf-store" && i + 1 < raw_argc) {
      perf_store_path = raw_argv[++i];
      continue;
    }
    if (flag.rfind("--perf-store=", 0) == 0) {
      perf_store_path = flag.substr(std::strlen("--perf-store="));
      continue;
    }
    args.push_back(raw_argv[i]);
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (!metrics_path.empty()) obs::set_metrics_enabled(true);
  // Write the snapshot on every exit path once the command has run.
  struct MetricsFlusher {
    std::string path;
    ~MetricsFlusher() {
      if (!path.empty() && !obs::write_metrics_file(path)) {
        std::fprintf(stderr, "pdltool: cannot write '%s'\n", path.c_str());
      }
    }
  } flusher{metrics_path};

  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "validate" && argc == 3) return cmd_validate(argv[2]);
  if (cmd == "lint" && argc == 3) return cmd_lint(argv[2]);
  if (cmd == "plan" && argc == 4) return cmd_plan(argv[2], argv[3], perf_store_path);
  if (cmd == "profile" && argc == 4) {
    return cmd_profile(argv[2], argv[3], perf_store_path);
  }
  if (cmd == "perf" && (argc == 4 || argc == 5)) {
    return cmd_perf(argv[2], argv[3], argc == 5 ? argv[4] : nullptr);
  }
  if (cmd == "query" && argc == 4) return cmd_query(argv[2], argv[3]);
  if (cmd == "match" && argc == 4) return cmd_match(argv[2], argv[3]);
  if (cmd == "discover") {
    return cmd_discover(argc >= 3 && std::strcmp(argv[2], "--gpus") == 0);
  }
  if (cmd == "presets") return cmd_presets();
  if (cmd == "path" && (argc == 5 || argc == 6)) {
    pdl::Platform platform;
    if (load(argv[2], platform) != 0) return 1;
    const std::size_t bytes =
        argc == 6 ? static_cast<std::size_t>(std::strtoull(argv[5], nullptr, 10))
                  : 1 << 20;
    const auto path = pdl::data_path(platform, argv[3], argv[4]);
    if (path.empty()) {
      std::printf("no path from '%s' to '%s'\n", argv[3], argv[4]);
      return 1;
    }
    for (const auto& hop : path) {
      std::printf("%s -> %s via %s\n", hop.from->id().c_str(), hop.to->id().c_str(),
                  hop.interconnect != nullptr ? hop.interconnect->type.c_str()
                                              : "control link");
    }
    if (auto seconds = pdl::data_path_seconds(platform, argv[3], argv[4], bytes)) {
      std::printf("modeled transfer of %zu bytes: %.3f us\n", bytes,
                  *seconds * 1e6);
    }
    return 0;
  }
  if (cmd == "diff" && argc == 4) {
    pdl::Platform old_platform, new_platform;
    if (load(argv[2], old_platform) != 0 || load(argv[3], new_platform) != 0) {
      return 1;
    }
    const auto entries = pdl::diff(old_platform, new_platform);
    std::printf("%s", pdl::to_string(entries).c_str());
    return entries.empty() ? 0 : 1;
  }
  if (cmd == "xsd") {
    // The derived XML Schema Definition (paper §III-B).
    std::printf("%s", pdl::export_xsd(pdl::builtin_registry()).c_str());
    return 0;
  }
  usage(argv[0]);
  return 2;
}
