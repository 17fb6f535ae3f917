// pdlcheck — the cross-layer static analyzer for the PDL toolchain.
//
//   pdlcheck [options] <platform.xml>...
//
//   --program <file>   also analyze an annotated Cascabel program against
//                      every given platform (variant matching, execute-site
//                      checks, static task-graph hazard analysis)
//   --format=text|json|sarif
//                      output format (default text); sarif emits a SARIF
//                      2.1.0 document for CI code-scanning upload
//   --rule <id>=<sev>  per-rule severity override: error|warning|info|off
//                      (id is "A301-dead-variant" or bare "A301"; repeatable)
//   --werror           exit nonzero on warnings too
//   --relaxed          analyze task hazards under relaxed consistency
//                      (only declared dependencies order tasks)
//   --graph <file>     analyze a task-graph fixture (graph_io.hpp text
//                      format) instead of / in addition to --program
//   --plan             schedule-aware capacity & interference analysis
//                      (A5xx): run the graph(s) on the runtime's pure-sim
//                      engine for each platform; text format also prints
//                      the plan
//   --perf-store <file>
//                      feed measured rates from a persisted perf store into
//                      the --plan run: each entry prices the devices of
//                      its class; a platform with none of the store's
//                      classes uses declared rates (with a warning)
//   --explore          model-check the graph(s) with the starmc explorer
//                      (A6xx): exhaustively run every reduced interleaving
//                      of the deterministic engine and report invariant
//                      violations with replayable decision traces; a
//                      platform file is optional in this mode
//   --explore-budget <n>
//                      engine-execution budget for --explore (default 20000)
//   --list-rules       print the rule catalog and exit
//
// Exit codes: 0 clean, 1 findings at error severity (or warnings with
// --werror), 2 usage error. Structural validation (V1-V12), subschema
// checks and every analysis rule (A1xx/A3xx/A4xx/A5xx) land in one
// normalized, deterministic report.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/accuracy.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "analysis/sarif.hpp"
#include "analysis/schedule_sim.hpp"
#include "mc/explorer.hpp"
#include "mc/graph_program.hpp"
#include "mc/report.hpp"
#include "annot/annotated_program.hpp"
#include "cascabel/repository.hpp"
#include "obs/env.hpp"
#include "pdl/extension.hpp"
#include "starvm/bridge.hpp"
#include "starvm/perf_store.hpp"
#include "pdl/parser.hpp"
#include "pdl/validate.hpp"
#include "util/string_util.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <platform.xml>...\n"
               "  --program <file>    analyze an annotated program against the "
               "platform(s)\n"
               "  --format=text|json|sarif  output format (default: text)\n"
               "  --rule <id>=<sev>   override a rule: error|warning|info|off\n"
               "  --werror            treat warnings as errors for the exit code\n"
               "  --relaxed           hazard analysis under relaxed consistency\n"
               "  --graph <file>      analyze a task-graph fixture file\n"
               "  --plan              schedule-aware A5xx analysis (and plan "
               "summary)\n"
               "  --perf-store <file> feed a persisted perf store's measured "
               "rates into --plan\n"
               "  --explore           model-check the graph(s) with the starmc "
               "explorer (A6xx)\n"
               "  --explore-budget <n>  engine-execution budget for --explore\n"
               "  --list-rules        print the rule catalog and exit\n",
               argv0);
}

int list_rules() {
  for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
    std::printf("%-36s %-8s %s\n", rule.id, pdl::to_string(rule.default_severity),
                rule.summary);
  }
  return 0;
}

/// "--rule A301=off" / "A103-property-sanity=error" -> options entry.
bool apply_rule_option(const std::string& spec, analysis::AnalysisOptions& options) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) return false;
  const std::string id = spec.substr(0, eq);
  const std::string value = spec.substr(eq + 1);
  const analysis::RuleInfo* rule = analysis::find_rule(id);
  if (rule == nullptr) {
    const std::string suggestion = analysis::suggest_rule(id);
    if (suggestion.empty()) {
      std::fprintf(stderr, "pdlcheck: unknown rule '%s'\n", id.c_str());
    } else {
      std::fprintf(stderr, "pdlcheck: unknown rule '%s'; did you mean '%s'?\n",
                   id.c_str(), suggestion.c_str());
    }
    return false;
  }
  if (value == "off") {
    options.disabled.insert(rule->id);
    return true;
  }
  pdl::Severity severity;
  if (value == "error") {
    severity = pdl::Severity::kError;
  } else if (value == "warning") {
    severity = pdl::Severity::kWarning;
  } else if (value == "info") {
    severity = pdl::Severity::kInfo;
  } else {
    std::fprintf(stderr, "pdlcheck: invalid severity '%s' (use error|warning|info|off)\n",
                 value.c_str());
    return false;
  }
  options.severity_overrides[rule->id] = severity;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  analysis::AnalysisOptions options;
  std::string format = "text";
  std::string program_path;
  std::string graph_path;
  std::string perf_store_path;
  bool plan = false;
  bool explore = false;
  std::size_t explore_budget = 20000;
  bool werror = false;
  std::vector<std::string> platform_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") return list_rules();
    if (arg == "--werror") {
      werror = true;
    } else if (arg == "--relaxed") {
      options.relaxed = true;
    } else if (arg == "--program" && i + 1 < argc) {
      program_path = argv[++i];
    } else if (arg.rfind("--program=", 0) == 0) {
      program_path = arg.substr(std::strlen("--program="));
    } else if (arg == "--plan") {
      plan = true;
    } else if (arg == "--explore") {
      explore = true;
    } else if (arg == "--explore-budget" && i + 1 < argc) {
      explore_budget = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--explore-budget=", 0) == 0) {
      explore_budget = static_cast<std::size_t>(
          std::atoll(arg.substr(std::strlen("--explore-budget=")).c_str()));
    } else if (arg == "--graph" && i + 1 < argc) {
      graph_path = argv[++i];
    } else if (arg.rfind("--graph=", 0) == 0) {
      graph_path = arg.substr(std::strlen("--graph="));
    } else if (arg == "--perf-store" && i + 1 < argc) {
      perf_store_path = argv[++i];
    } else if (arg.rfind("--perf-store=", 0) == 0) {
      perf_store_path = arg.substr(std::strlen("--perf-store="));
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(std::strlen("--format="));
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "pdlcheck: unknown format '%s'\n", format.c_str());
        return 2;
      }
    } else if (arg == "--rule" && i + 1 < argc) {
      if (!apply_rule_option(argv[++i], options)) return 2;
    } else if (arg.rfind("--rule=", 0) == 0) {
      if (!apply_rule_option(arg.substr(std::strlen("--rule=")), options)) return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pdlcheck: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      platform_paths.push_back(arg);
    }
  }
  // --explore model-checks the engine itself; a graph fixture alone is a
  // complete input for it. Every other mode needs a platform.
  if (platform_paths.empty() && !(explore && !graph_path.empty())) {
    usage(argv[0]);
    return 2;
  }

  pdl::Diagnostics diags;
  std::vector<pdl::Platform> platforms;
  std::vector<std::string> parsed_paths;  // parallel to `platforms`
  for (const std::string& path : platform_paths) {
    auto platform = pdl::parse_platform_file(path, diags);
    if (!platform) {
      pdl::add_finding(diags, pdl::Severity::kError, {}, platform.error().str(),
                       pdl::SourceLoc{path, 1, 1});
      continue;
    }
    // The full platform gate: structure (V1-V12), extension subschemas,
    // then the analyzer's A1xx rules.
    pdl::validate(platform.value(), diags);
    pdl::builtin_registry().validate_properties(platform.value(), diags);
    analysis::analyze_platform(platform.value(), options, diags);
    platforms.push_back(std::move(platform).value());
    parsed_paths.push_back(path);
  }

  // --perf-store: measured rates for the A5xx schedule run. An entry prices
  // every device of its class, on whichever platform declares one; a
  // platform with none of the store's classes falls back to declared rates
  // (with a warning).
  std::vector<const starvm::perf_store::Store*> platform_stores(
      platforms.size(), nullptr);
  starvm::perf_store::LoadResult loaded;
  if (!perf_store_path.empty()) {
    loaded = starvm::perf_store::load(perf_store_path);
    switch (loaded.status) {
      case starvm::perf_store::LoadStatus::kLoaded:
        for (std::size_t p = 0; p < platforms.size(); ++p) {
          // Every PU: the A5xx run sets no cores aside as drivers.
          starvm::BridgeOptions every_pu;
          every_pu.dedicate_driver_cores = false;
          auto config = starvm::engine_config_from_platform(platforms[p], every_pu);
          if (!config.ok()) continue;
          if (starvm::perf_store::applicable(loaded.store,
                                             config.value().devices) == 0) {
            pdl::add_finding(diags, pdl::Severity::kWarning, {},
                             "perf store '" + perf_store_path +
                                 "' holds no rate of a device class of '" +
                                 parsed_paths[p] + "'; using declared rates",
                             pdl::SourceLoc{perf_store_path, 1, 1});
            continue;
          }
          platform_stores[p] = &loaded.store;
        }
        break;
      case starvm::perf_store::LoadStatus::kMissing:
        pdl::add_finding(diags, pdl::Severity::kWarning, {},
                         "perf store '" + perf_store_path + "' not found",
                         pdl::SourceLoc{perf_store_path, 1, 1});
        break;
      case starvm::perf_store::LoadStatus::kBadVersion:
      case starvm::perf_store::LoadStatus::kCorrupt:
        pdl::add_finding(diags, pdl::Severity::kWarning, {},
                         "perf store '" + perf_store_path +
                             "' rejected (unsupported version or corrupt); "
                             "using declared rates",
                         pdl::SourceLoc{perf_store_path, 1, 1});
        break;
    }
  }

  // Graphs to run the A4xx (and, with --plan, A5xx) analyses over, paired
  // with a label for the plan summary.
  std::vector<std::pair<std::string, starvm::TaskGraph>> graphs;
  if (!program_path.empty()) {
    const auto source = pdl::util::read_file(program_path);
    if (!source) {
      pdl::add_finding(diags, pdl::Severity::kError, {},
                       "cannot open program '" + program_path + "'",
                       pdl::SourceLoc{program_path, 1, 1});
    } else {
      auto program = cascabel::parse_annotated_source(*source, program_path, diags);
      if (program.ok()) {
        cascabel::TaskRepository repository = cascabel::TaskRepository::with_defaults();
        repository.register_program(program.value());
        for (const pdl::Platform& platform : platforms) {
          analysis::analyze_program(program.value(), repository, platform, options,
                                    diags);
        }
        graphs.emplace_back(program_path, analysis::graph_from_program(
                                              program.value(), repository));
      }
    }
  }
  if (!graph_path.empty()) {
    auto graph = analysis::load_graph_file(graph_path);
    if (!graph.ok()) {
      pdl::add_finding(diags, pdl::Severity::kError, {}, graph.error().str(),
                       pdl::SourceLoc{graph_path, 1, 1});
    } else {
      graphs.emplace_back(graph_path, std::move(graph).value());
    }
  }
  // A7xx bounds are judged at the loosest arithmetic any analyzed platform
  // declares (ACCURACY property): a dynamic scheduler may place any task on
  // any capable PU, so the worst PU's roundoff is the honest floor. With no
  // platforms (pure --graph runs) the kernels' own declared epsilons stand.
  double epsilon_floor = 0.0;
  for (const pdl::Platform& platform : platforms) {
    epsilon_floor =
        std::max(epsilon_floor, analysis::accuracy_epsilon_floor(platform));
  }
  std::string plan_text;
  for (const auto& [label, graph] : graphs) {
    analysis::analyze_task_graph(graph, options, diags);
    analysis::analyze_accuracy(graph, options, diags, epsilon_floor);
    if (explore) {
      mc::GraphProgramOptions program_options;
      auto program = mc::make_graph_program(graph, program_options);
      if (!program.ok()) {
        pdl::add_finding(diags, pdl::Severity::kError, {},
                         program.error().str(), pdl::SourceLoc{label, 1, 1});
      } else {
        mc::Options explore_options;
        explore_options.max_runs = explore_budget;
        mc::Explorer explorer(std::move(program).value(), explore_options);
        mc::report_findings(explorer.explore(), label, options, diags);
      }
    }
    if (!plan) continue;
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      const analysis::SchedulePlan schedule = analysis::analyze_schedule(
          graph, platforms[p], options, diags, platform_stores[p]);
      plan_text += "== " + label + " on " + parsed_paths[p] + " ==\n";
      plan_text += analysis::render_plan_text(schedule, graph);
    }
  }

  pdl::normalize(diags);
  if (format == "json") {
    std::printf("%s\n", analysis::render_json(diags).c_str());
  } else if (format == "sarif") {
    std::printf("%s\n", analysis::render_sarif(diags).c_str());
  } else {
    std::printf("%s", plan_text.c_str());
    std::printf("%s", analysis::render_text(diags).c_str());
  }
  return analysis::exit_code(diags, werror);
}
