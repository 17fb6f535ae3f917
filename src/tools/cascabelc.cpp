// cascabelc — the Cascabel source-to-source compiler driver (paper §IV-C,
// Figure 4).
//
//   cascabelc --pdl <platform.xml> --input <annotated.cpp>
//             [--variants <variants.cpp>]...
//             [--output <generated.cpp>] [--makefile <Makefile>]
//             [--exe <name>] [--no-sync] [--print-selection] [--verbose]
//             [--trace-out <trace.json>] [--metrics-out <metrics.json>]
//             [--fault-plan <spec>] [--analyze] [--profile]
//
// --profile runs the schedule preview and prints its profile
// (docs/OBSERVABILITY.md "Flight recorder & profiling"): the measured
// critical path with queue-wait/transfer/compute attribution and the
// per-(task, device) rate drift against the declared GFLOPS.
//
// --analyze runs the cross-layer static analyzer (src/analysis) instead of
// writing outputs: platform lint, variant/execute-site matching and task-
// graph hazard analysis, printed as a normalized report. Exit 1 on
// error-severity findings — the same gate `pdlcheck --program` applies.
//
// Reads an annotated serial task-based C/C++ program and a target PDL
// descriptor, runs task registration, static pre-selection, output
// generation and compile-plan derivation, and writes the generated source
// plus the Makefile realizing the compilation plan. Retargeting = rerun
// with a different --pdl; the input is never modified.
//
// --trace-out writes a Chrome trace-event file merging the toolchain's
// wall-time spans with a virtual-clock *schedule preview*: the translated
// program's call sites executed on synthetic data in a pure-simulation
// engine, including the scheduler's placement decisions. --metrics-out
// writes the metrics registry snapshot. PDL_TRACE / PDL_METRICS are the
// environment equivalents (docs/OBSERVABILITY.md).
//
// --fault-plan injects deterministic faults into the schedule preview
// (docs/RUNTIME.md "Failure semantics"), so recovery decisions — retries,
// reroutes, blacklists — appear in the exported trace. PDL_FAULT_PLAN is
// the environment equivalent.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/accuracy.hpp"
#include "analysis/capacity.hpp"
#include "analysis/profile.hpp"
#include "analysis/report.hpp"
#include "cascabel/rt.hpp"
#include "cascabel/translator.hpp"
#include "obs/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdl/parser.hpp"
#include "pdl/validate.hpp"
#include "starvm/trace_export.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --pdl <platform.xml> --input <annotated.cpp>\n"
               "          [--variants <variants.cpp>]...\n"
               "          [--output <generated.cpp>] [--makefile <Makefile>]\n"
               "          [--exe <name>] [--no-sync] [--print-selection]"
               " [--verbose]\n"
               "          [--trace-out <trace.json>]"
               " [--metrics-out <metrics.json>] [--fault-plan <spec>]\n"
               "          [--analyze] [--profile]\n",
               argv0);
}

/// Run the translated program's call sites on synthetic data in a pure-
/// simulation engine: source-only variants get no-op stand-in
/// implementations, so the preview exercises the real pre-selection,
/// decomposition and placement paths and yields a virtual-clock schedule
/// with the scheduler's decision log.
starvm::EngineStats schedule_preview(
    const cascabel::TranslationResult& result, const pdl::Platform& platform,
    std::shared_ptr<const starvm::FaultPlan> fault_plan) {
  obs::Span span("cascabelc.schedule_preview");

  cascabel::TaskRepository repo = result.repository;
  for (const auto& variant : repo.variants()) {
    if (repo.bound(variant.pragma.variant_name) != nullptr) continue;
    cascabel::BoundImpl impl;
    impl.variant_name = variant.pragma.variant_name;
    impl.device_kind =
        variant.pragma.target_platforms.empty()
            ? starvm::DeviceKind::kCpu
            : cascabel::device_kind_for_target(variant.pragma.target_platforms[0]);
    impl.fn = [](const starvm::ExecContext&) {};
    impl.flops = [](const std::vector<starvm::BufferView>& buffers) {
      double elements = 0.0;
      for (const auto& view : buffers) {
        elements += static_cast<double>(view.handle->rows() *
                                        view.handle->cols());
      }
      return 2.0 * elements;
    };
    repo.bind(std::move(impl));
  }

  cascabel::rt::Options options;
  options.scheduler = starvm::SchedulerKind::kHeft;
  options.mode = starvm::ExecutionMode::kPureSim;
  options.bridge.record_decisions = true;
  // Driver-core dedication is a hybrid-execution concern; in a simulated
  // preview it could leave small hosts with zero CPU devices.
  options.bridge.dedicate_driver_cores = false;
  options.fault_plan = std::move(fault_plan);
  cascabel::rt::Context ctx(platform, std::move(repo), options);

  // Synthetic buffers, filled through the shared thread pool (which also
  // exercises its queue/wait instrumentation).
  constexpr std::size_t kExtent = 256;
  pdl::util::ThreadPool pool(2);
  std::vector<std::unique_ptr<std::vector<double>>> storage;

  for (const auto& call : result.program.calls) {
    const auto* candidates = result.selection.candidates(call.pragma.task_interface);
    if (candidates == nullptr || candidates->empty()) continue;
    const auto& params = candidates->front().variant->pragma.params;

    std::vector<cascabel::rt::Arg> args;
    for (std::size_t i = 0; i < params.size(); ++i) {
      cascabel::DistributionKind dist = cascabel::DistributionKind::kNone;
      std::size_t rows = 1;
      // Distributions name call-site arguments; fall back to the formal
      // parameter name for pragma/argument mismatches.
      const std::string& arg_name =
          i < call.args.size() ? call.args[i] : params[i].name;
      for (const auto& d : call.pragma.distributions) {
        if (d.param == arg_name || d.param == params[i].name) {
          dist = d.kind;
          if (d.sizes.size() == 2) rows = kExtent;
          break;
        }
      }
      storage.push_back(std::make_unique<std::vector<double>>(rows * kExtent));
      std::vector<double>& buffer = *storage.back();
      pool.parallel_for(0, buffer.size(), [&buffer](std::size_t j) {
        buffer[j] = 0.5 * static_cast<double>(j % 7);
      });
      args.push_back(
          cascabel::rt::Arg{buffer.data(), rows, kExtent, params[i].mode, dist});
    }
    auto status = ctx.execute(call.pragma.task_interface,
                              call.pragma.execution_group, args);
    if (!status.ok() && !call.pragma.execution_group.empty()) {
      // The execution group may exclude every device of this platform;
      // preview the placement over all PUs instead of dropping the site.
      status = ctx.execute(call.pragma.task_interface, "", args);
    }
    if (!status.ok()) {
      PDL_LOG_WARN << "schedule preview skipped call site '"
                   << call.pragma.task_interface
                   << "': " << status.error().str();
    }
  }
  if (auto status = ctx.wait(); !status.ok()) {
    // Expected under an injected fault plan: the preview's value is the
    // recovery decisions in the trace, not the failed tasks themselves.
    PDL_LOG_WARN << "schedule preview: " << status.error().str();
  }
  return ctx.stats();
}

}  // namespace

int main(int argc, char** argv) {
  std::string pdl_path, input_path, output_path, makefile_path;
  std::vector<std::string> variant_paths;
  std::string exe_name = "a.out";
  bool sync_each_call = true;
  bool print_selection = false;
  bool verbose = false;
  bool analyze_only = false;
  bool profile = false;
  // PDL_TRACE / PDL_METRICS provide defaults; flags override below.
  obs::init_from_env();
  std::string trace_path = obs::env_trace_path();
  std::string metrics_path = obs::env_metrics_path();
  std::string fault_plan_spec;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    // Long flags accept both "--flag value" and "--flag=value".
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline_value = true;
    }
    const auto need_value = [&]() -> std::string {
      if (has_inline_value) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--pdl") {
      pdl_path = need_value();
    } else if (flag == "--input") {
      input_path = need_value();
    } else if (flag == "--variants") {
      variant_paths.emplace_back(need_value());
    } else if (flag == "--output") {
      output_path = need_value();
    } else if (flag == "--makefile") {
      makefile_path = need_value();
    } else if (flag == "--exe") {
      exe_name = need_value();
    } else if (flag == "--trace-out") {
      trace_path = need_value();
    } else if (flag == "--metrics-out") {
      metrics_path = need_value();
    } else if (flag == "--fault-plan") {
      fault_plan_spec = need_value();
    } else if (flag == "--no-sync") {
      sync_each_call = false;
    } else if (flag == "--print-selection") {
      print_selection = true;
    } else if (flag == "--analyze") {
      analyze_only = true;
    } else if (flag == "--profile") {
      profile = true;
    } else if (flag == "--verbose") {
      verbose = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (pdl_path.empty() || input_path.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (output_path.empty()) output_path = input_path + ".cascabel.cpp";
  if (verbose) pdl::util::set_log_level(pdl::util::LogLevel::kInfo);
  std::shared_ptr<const starvm::FaultPlan> fault_plan;
  if (!fault_plan_spec.empty()) {
    auto parsed = starvm::FaultPlan::parse(fault_plan_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cascabelc: bad --fault-plan: %s\n",
                   parsed.error().str().c_str());
      return 2;
    }
    fault_plan =
        std::make_shared<const starvm::FaultPlan>(std::move(parsed).value());
    std::printf("cascabelc: fault plan with %zu rule(s) active in preview\n",
                fault_plan->rule_count());
  }
  if (!trace_path.empty()) obs::Tracer::instance().set_enabled(true);
  if (!trace_path.empty() || !metrics_path.empty()) obs::set_metrics_enabled(true);

  // Target platform.
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform_file(pdl_path, diags);
  if (!platform) {
    std::fprintf(stderr, "cascabelc: cannot parse PDL: %s\n",
                 platform.error().str().c_str());
    return 1;
  }
  if (!pdl::validate(platform.value(), diags)) {
    std::fprintf(stderr, "cascabelc: invalid platform description:\n");
    for (const auto& d : diags) std::fprintf(stderr, "  %s\n", d.str().c_str());
    return 1;
  }

  // Input program.
  auto source = pdl::util::read_file(input_path);
  if (!source) {
    std::fprintf(stderr, "cascabelc: cannot read '%s'\n", input_path.c_str());
    return 1;
  }

  // Translate (paper §IV-C steps 1–4).
  cascabel::TranslationOptions options;
  options.codegen.program_name = input_path;
  options.codegen.sync_each_call = sync_each_call;
  options.executable_name = exe_name;
  for (const auto& path : variant_paths) {
    auto text = pdl::util::read_file(path);
    if (!text) {
      std::fprintf(stderr, "cascabelc: cannot read variants file '%s'\n",
                   path.c_str());
      return 1;
    }
    options.variant_sources.emplace_back(path, std::move(*text));
  }
  auto result = cascabel::translate(*source, input_path, platform.value(), options);

  const auto print_diags = [&](const pdl::Diagnostics& list) {
    for (const auto& d : list) {
      if (d.severity != pdl::Severity::kInfo || verbose) {
        std::fprintf(stderr, "  %s\n", d.str().c_str());
      }
    }
  };
  if (!result) {
    std::fprintf(stderr, "cascabelc: translation failed: %s\n",
                 result.error().str().c_str());
    return 1;
  }
  print_diags(result.value().diagnostics);

  if (analyze_only) {
    pdl::Diagnostics findings;
    const analysis::AnalysisOptions analysis_options;
    analysis::analyze_platform(platform.value(), analysis_options, findings);
    analysis::analyze_program(result.value().program, result.value().repository,
                              platform.value(), analysis_options, findings);
    const starvm::TaskGraph graph = analysis::graph_from_program(
        result.value().program, result.value().repository);
    analysis::analyze_task_graph(graph, analysis_options, findings);
    // A7xx accuracy bounds at the platform's declared arithmetic floor.
    analysis::analyze_accuracy(graph, analysis_options, findings,
                               analysis::accuracy_epsilon_floor(platform.value()));
    // Schedule-aware capacity & interference rules (A5xx) over the
    // runtime's pure-sim run of the extracted graph on the target platform.
    analysis::analyze_schedule(graph, platform.value(), analysis_options,
                               findings);
    pdl::normalize(findings);
    std::printf("%s", analysis::render_text(findings).c_str());
    return analysis::exit_code(findings, /*werror=*/false);
  }

  if (print_selection) {
    // The §IV-C step-2 report: which variants survived for this target.
    std::printf("selection for target '%s':\n",
                platform.value().name().empty() ? pdl_path.c_str()
                                                : platform.value().name().c_str());
    for (const auto& [interface_name, candidates] :
         result.value().selection.by_interface) {
      std::printf("  %s:\n", interface_name.c_str());
      for (const auto& c : candidates) {
        std::printf("    %-24s via %-32s %s, %zu PU(s), specificity %d\n",
                    c.variant->pragma.variant_name.c_str(),
                    c.matched_platform.c_str(),
                    c.is_fallback ? "fallback" : "specific", c.mapped_pus.size(),
                    c.specificity);
      }
    }
  }

  if (!pdl::util::write_file(output_path, result.value().output_source)) {
    std::fprintf(stderr, "cascabelc: cannot write '%s'\n", output_path.c_str());
    return 1;
  }
  std::printf("cascabelc: %s -> %s (%zu variant(s), %zu call site(s))\n",
              input_path.c_str(), output_path.c_str(),
              result.value().program.variants.size(),
              result.value().program.calls.size());

  if (!makefile_path.empty()) {
    if (!pdl::util::write_file(makefile_path,
                               result.value().compile_plan.to_makefile())) {
      std::fprintf(stderr, "cascabelc: cannot write '%s'\n", makefile_path.c_str());
      return 1;
    }
    std::printf("cascabelc: compile plan -> %s\n", makefile_path.c_str());
  }

  if (!trace_path.empty() || !metrics_path.empty() || profile) {
    const starvm::EngineStats preview =
        schedule_preview(result.value(), platform.value(), fault_plan);
    if (profile) {
      std::printf("%s", analysis::render_profile_text(
                            analysis::profile_run(preview))
                            .c_str());
    }
    if (preview.task_failures > 0) {
      std::printf(
          "cascabelc: preview faults: %llu failure(s), %llu retried, "
          "%llu rerouted, %llu device(s) blacklisted, %llu task(s) lost\n",
          static_cast<unsigned long long>(preview.task_failures),
          static_cast<unsigned long long>(preview.retries),
          static_cast<unsigned long long>(preview.reroutes),
          static_cast<unsigned long long>(preview.devices_blacklisted),
          static_cast<unsigned long long>(preview.failed_tasks +
                                          preview.cancelled_tasks));
    }
    if (!trace_path.empty()) {
      const std::string trace = starvm::merged_chrome_trace(
          obs::Tracer::instance().snapshot(), &preview);
      if (!obs::write_text_file(trace_path, trace)) {
        std::fprintf(stderr, "cascabelc: cannot write '%s'\n", trace_path.c_str());
        return 1;
      }
      std::printf("cascabelc: trace -> %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!obs::write_metrics_file(metrics_path)) {
        std::fprintf(stderr, "cascabelc: cannot write '%s'\n",
                     metrics_path.c_str());
        return 1;
      }
      std::printf("cascabelc: metrics -> %s\n", metrics_path.c_str());
    }
  }
  return 0;
}
