// End-to-end benchmark driver for the translate-and-run path (paper §IV-C):
// PDL XML text + annotated serial source in, verified results out.
//
// One "program" is what a user of the toolchain pays for once per target:
//   toolchain  parse the PDL description, validate it, translate the
//              annotated source (scan, pre-selection, codegen, compile plan);
//   runtime    build the cascabel::rt context from the description, run
//              every translated call site (execute + wait, the generated
//              code's sync_each_call semantics) and tear the context down.
// The benchmark then checks every output element against a reference the
// driver computes itself with plain loops. Inputs are integer-valued, so
// every correct result is exact whatever the summation order.
//
//   e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports end-to-end times (tracing off),
// each as a ratio to a fixed calibration work timed right after it;
// --trace 1 turns on the obs tracer and metrics and reports the per-layer
// breakdown instead. --setup-only builds the inputs, runs one verified
// program and exits (run.py times whole processes of this mode).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "cascabel/translator.hpp"
#include "discovery/presets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "pdl/well_known.hpp"

namespace {

// --- Workloads ----------------------------------------------------------------

/// One array of the annotated program: a vector (rows == 1) or a square
/// row-major matrix.
struct ArraySpec {
  std::string name;
  std::size_t rows = 1;
  std::size_t cols = 0;
};

/// One annotated call site: "Ivecadd" (A += B) or "Idgemm" (C += A * B).
struct CallSpec {
  std::string iface;
  std::vector<std::string> args;
};

struct WorkloadSpec {
  std::string name;
  std::function<pdl::Platform()> platform;
  std::vector<ArraySpec> arrays;
  std::vector<CallSpec> calls;
  starvm::ExecutionMode mode = starvm::ExecutionMode::kHybrid;
};

/// A 1000-core x86 machine described PU by PU (no quantity shorthand), so
/// parsing, validating and pattern-matching the description is real work.
/// 1000 is the large side of the 1000:4-device ratio the DAG-scheduling
/// bench (bench/bm_dag_scheduling, BM_DagSubmitDrain/1000) already
/// measures; the cores are x86 so the builtin x86 variants apply.
pdl::Platform wide_platform() {
  namespace props = pdl::props;
  pdl::Platform platform("wide-x86");
  pdl::ProcessingUnit* master = platform.add_master("m0");
  master->descriptor().add(props::kArchitecture, props::kArchX86);
  master->descriptor().add(props::kFrequencyMhz, "2660");
  master->descriptor().add(props::kSustainedGflops, "9.8");
  for (int core = 0; core < 1000; ++core) {
    pdl::ProcessingUnit* worker =
        master->add_child(pdl::PuKind::kWorker, "core" + std::to_string(core));
    worker->descriptor().add(props::kArchitecture, "x86_core");
    worker->descriptor().add(props::kFrequencyMhz, "2660");
    worker->descriptor().add(props::kPeakGflops, "10.64");
    worker->descriptor().add(props::kSustainedGflops, "9.8");
    worker->logic_groups().push_back("all");
  }
  return platform;
}

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> out;
  // The Fig-5 case-study DGEMM on the 2-GPU testbed, at the size the Fig-5
  // bench's --quick mode runs for real (bench/fig5_dgemm_speedup, n = 256):
  // the kernel layer dominates. Both workloads use the deterministic mode,
  // which runs the kernels on the calling thread: the hybrid mode's ten
  // device threads on a few shared cores measure the host's scheduler, and
  // moved the run time by 23% between batches where serial code moved 8%.
  out.push_back({"dgemm", pdl::discovery::paper_platform_starpu_2gpu,
                 {{"C", 256, 256}, {"A", 256, 256}, {"B", 256, 256}},
                 {{"Idgemm", {"C", "A", "B"}}},
                 starvm::ExecutionMode::kDeterministic});
  // Paper Listings 3/4, at examples/vecadd_offload's N = 4096, against a
  // 1000-core description written out PU by PU: the description layers (XML, validation, pattern match) and
  // engine set-up over 1000 devices dominate.
  out.push_back({"wide", wide_platform,
                 {{"A", 1, 4096}, {"B", 1, 4096}},
                 {{"Ivecadd", {"A", "B"}}},
                 starvm::ExecutionMode::kDeterministic});
  return out;
}

/// The annotated serial program of a workload (paper Listings 3/4 style).
std::string annotated_source(const WorkloadSpec& w) {
  bool uses_vecadd = false;
  bool uses_dgemm = false;
  for (const auto& c : w.calls) {
    uses_vecadd |= c.iface == "Ivecadd";
    uses_dgemm |= c.iface == "Idgemm";
  }
  std::string s = "// " + w.name + ": generated annotated serial program.\n";
  if (uses_vecadd) {
    s += "#pragma cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B: read )\n"
         "void vectoradd(double *A, double *B, int n) {\n"
         "  for (int i = 0; i < n; ++i) A[i] += B[i];\n"
         "}\n\n";
  }
  if (uses_dgemm) {
    s += "#pragma cascabel task : x86 : Idgemm : dgemm_input : ( C: readwrite, A: read, "
         "B: read )\n"
         "void dgemm_serial(double *C, double *A, double *B, int n) {\n"
         "  for (int i = 0; i < n; ++i)\n"
         "    for (int j = 0; j < n; ++j) {\n"
         "      double sum = 0.0;\n"
         "      for (int k = 0; k < n; ++k) sum += A[i*n+k] * B[k*n+j];\n"
         "      C[i*n+j] += sum;\n"
         "    }\n"
         "}\n\n";
  }
  s += "int main() {\n";
  for (const auto& a : w.arrays) {
    s += "  static double " + a.name + "[" + std::to_string(a.rows * a.cols) + "];\n";
  }
  std::map<std::string, const ArraySpec*> by_name;
  for (const auto& a : w.arrays) by_name[a.name] = &a;
  for (const auto& c : w.calls) {
    const ArraySpec& first = *by_name.at(c.args[0]);
    if (c.iface == "Ivecadd") {
      const std::string n = std::to_string(first.cols);
      s += "#pragma cascabel execute Ivecadd : all (" + c.args[0] + ":BLOCK:" + n + ", " +
           c.args[1] + ":BLOCK:" + n + ")\n";
      s += "  vectoradd(" + c.args[0] + ", " + c.args[1] + ", " + n + ");\n";
    } else {
      const std::string n = std::to_string(first.rows);
      const std::string ext = ":" + n + ":" + n;
      s += "#pragma cascabel execute Idgemm : all (" + c.args[0] + ":BLOCK" + ext + ", " +
           c.args[1] + ":BLOCK" + ext + ", " + c.args[2] + ":WHOLE" + ext + ")\n";
      s += "  dgemm_serial(" + c.args[0] + ", " + c.args[1] + ", " + c.args[2] + ", " +
           n + ");\n";
    }
  }
  s += "  return 0;\n}\n";
  return s;
}

// --- Data and reference -------------------------------------------------------

using Arrays = std::map<std::string, std::vector<double>>;

/// Seeded integer-valued inputs: small enough that every sum the workloads
/// form stays an exact double.
Arrays make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Arrays out;
  for (const auto& a : w.arrays) {
    std::vector<double> v(a.rows * a.cols);
    const bool matrix = a.rows > 1;
    for (double& x : v) {
      x = matrix ? static_cast<double>(static_cast<int>(rng() % 9) - 4)
                 : static_cast<double>(rng() % 1000);
    }
    out[a.name] = std::move(v);
  }
  return out;
}

/// The serial program's semantics, computed independently of the toolchain.
Arrays reference_outputs(const WorkloadSpec& w, Arrays data) {
  for (const auto& c : w.calls) {
    if (c.iface == "Ivecadd") {
      std::vector<double>& a = data.at(c.args[0]);
      const std::vector<double>& b = data.at(c.args[1]);
      for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    } else {
      const std::vector<double>& a = data.at(c.args[1]);
      const std::vector<double>& b = data.at(c.args[2]);
      std::vector<double>& cm = data.at(c.args[0]);
      std::size_t n = 1;
      while (n * n < cm.size()) ++n;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double sum = 0.0;
          for (std::size_t k = 0; k < n; ++k) sum += a[i * n + k] * b[k * n + j];
          cm[i * n + j] += sum;
        }
      }
    }
  }
  return data;
}

// --- Clocks --------------------------------------------------------------------

double wall_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch()).count();
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

// --- Layers --------------------------------------------------------------------

/// Per-program self times, ms. The phases are timed by this driver around
/// each call into a layer; where the program already records obs spans
/// inside a phase (xml.parse, cascabel.parse/preselect/codegen/
/// compile_plan), they split the phase further and the phase keeps the
/// remainder. The entries add up to the whole program.
enum Layer {
  kXmlParse,      // xml.parse inside pdl::parse_platform
  kPdlModel,      // rest of pdl::parse_platform: DOM -> Platform model
  kPdlValidate,   // pdl::validate
  kScan,          // cascabel.parse: pragma scanner + annotated-program model
  kPreselect,     // cascabel.preselect during translation
  kCodegen,       // cascabel.codegen
  kCompilePlan,   // cascabel.compile_plan
  kRepository,    // rest of cascabel::translate: repository assembly
  kRtPreselect,   // cascabel.preselect inside rt::Context construction
  kEngineInit,    // rest of rt::Context construction: bridge, engine, workers
  kSubmit,        // rt::Context::execute: decomposition, wiring, submission
  kDrain,         // rt::Context::wait: placement, transfers, kernels
  kTeardown,      // rt::Context destruction: worker join, release
  kLayerCount,
};

const char* const kLayerNames[kLayerCount] = {
    "xml_parse_ms", "pdl_model_ms", "pdl_validate_ms", "scan_ms",
    "preselect_ms", "codegen_ms",   "compile_plan_ms", "repository_ms",
    "rt_preselect_ms", "engine_init_ms", "submit_ms", "drain_ms", "teardown_ms"};

struct Measurement {
  bool ok = false;
  std::string error;
  double e2e_ms = 0.0;
  double translate_ms = 0.0;
  double run_ms = 0.0;
  double calibration_ms = 0.0;  // time_calibration() right after the program
  // --trace 1 only:
  double layers[kLayerCount] = {};
  double toolchain_cpu_ms = 0.0;
  double runtime_cpu_ms = 0.0;
  // Engine view of the runtime (EngineStats): kernel time of CPU tasks as
  // the engine timed them (hybrid mode measures, the deterministic mode
  // reports the model), and the modeled next to the measured makespan.
  double cpu_kernel_ms = 0.0;
  double cpu_kernel_flops = 0.0;
  double modeled_makespan_ms = 0.0;
  double measured_makespan_ms = 0.0;
  double modeled_transfer_ms = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t transfers = 0;
  std::size_t generated_bytes = 0;
};

using SpanLayers = std::map<std::string, Layer>;
const SpanLayers kNoSpans;
const SpanLayers kParseSpans = {{"xml.parse", kXmlParse}};
const SpanLayers kTranslateSpans = {{"cascabel.parse", kScan},
                                    {"cascabel.preselect", kPreselect},
                                    {"cascabel.codegen", kCodegen},
                                    {"cascabel.compile_plan", kCompilePlan}};
const SpanLayers kContextSpans = {{"cascabel.preselect", kRtPreselect}};

/// Attribute one phase's wall time: with tracing on, the named spans the
/// program recorded since the last call go to their layers and `self`
/// keeps the remainder. Returns the time spent here, which the caller
/// excludes from the program's wall time.
double split_phase(Measurement& m, bool trace, Layer self, double phase_ms,
                   const SpanLayers& children) {
  if (!trace) {
    m.layers[self] += phase_ms;
    return 0.0;
  }
  const double start = wall_ms();
  double child_ms = 0.0;
  for (const auto& span : obs::Tracer::instance().snapshot()) {
    const auto it = children.find(span.name);
    if (it == children.end()) continue;
    m.layers[it->second] += span.dur_us * 1e-3;
    child_ms += span.dur_us * 1e-3;
  }
  obs::Tracer::instance().clear();
  m.layers[self] += std::max(0.0, phase_ms - child_ms);
  return wall_ms() - start;
}

void record_engine_stats(Measurement& m, const starvm::EngineStats& stats) {
  for (const auto& task : stats.trace) {
    const auto d = static_cast<std::size_t>(task.device);
    if (d < stats.devices.size() && stats.devices[d].kind == starvm::DeviceKind::kCpu) {
      m.cpu_kernel_ms += task.exec_seconds * 1e3;
      m.cpu_kernel_flops += task.flops;
    }
    m.modeled_transfer_ms += task.transfer_seconds * 1e3;
  }
  m.modeled_makespan_ms = stats.makespan_seconds * 1e3;
  m.measured_makespan_ms = stats.wall_seconds * 1e3;
  m.tasks = stats.tasks_completed;
  m.transfers = stats.transfers;
}

struct Input {
  const WorkloadSpec* spec = nullptr;
  std::string pdl_xml;
  std::string source;
  Arrays initial;
  Arrays expected;
};

/// One translate-and-run program over freshly reset data, then verify.
Measurement run_program(const Input& in, Arrays& data, bool trace) {
  Measurement m;
  for (auto& [name, values] : data) {
    const std::vector<double>& init = in.initial.at(name);
    std::copy(init.begin(), init.end(), values.begin());
  }
  if (trace) obs::Tracer::instance().clear();

  double excluded = 0.0;  // span and stats bookkeeping, not program time
  const double cpu0 = cpu_ms();
  const double t_start = wall_ms();

  // Toolchain: description, validation, translation.
  pdl::Diagnostics diags;
  double t = wall_ms();
  auto platform = pdl::parse_platform(in.pdl_xml, diags, in.spec->name + ".pdl.xml");
  double phase = wall_ms() - t;
  excluded += split_phase(m, trace, kPdlModel, phase, kParseSpans);
  if (!platform) {
    m.error = "pdl parse: " + platform.error().str();
    return m;
  }
  t = wall_ms();
  const bool valid = pdl::validate(platform.value(), diags);
  phase = wall_ms() - t;
  excluded += split_phase(m, trace, kPdlValidate, phase, kNoSpans);
  if (!valid) {
    m.error = "pdl validation failed";
    return m;
  }
  cascabel::TranslationOptions topts;
  topts.codegen.program_name = in.spec->name;
  t = wall_ms();
  auto translation =
      cascabel::translate(in.source, in.spec->name + ".cpp", platform.value(), topts);
  phase = wall_ms() - t;
  excluded += split_phase(m, trace, kRepository, phase, kTranslateSpans);
  if (!translation) {
    m.error = "translate: " + translation.error().str();
    return m;
  }
  const cascabel::TranslationResult& tr = translation.value();
  const double t_translated = wall_ms();
  const double cpu_translated = cpu_ms();
  const double excluded_toolchain = excluded;

  // Runtime: what the generated program's initialize()/execute()/wait()
  // sequence does, on the benchmark's buffers.
  cascabel::rt::Options ropts;
  ropts.mode = in.spec->mode;
  t = wall_ms();
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);
  auto ctx =
      std::make_unique<cascabel::rt::Context>(platform.value(), std::move(repo), ropts);
  phase = wall_ms() - t;
  excluded += split_phase(m, trace, kEngineInit, phase, kContextSpans);

  for (const auto& call : tr.program.calls) {
    t = wall_ms();
    const auto variants = tr.program.variants_of(call.pragma.task_interface);
    if (variants.empty()) {
      m.error = "no in-source variant for " + call.pragma.task_interface;
      return m;
    }
    const auto& params = variants.front()->pragma.params;
    std::vector<cascabel::rt::Arg> args;
    for (std::size_t i = 0; i < params.size() && i < call.args.size(); ++i) {
      const auto it = data.find(call.args[i]);
      if (it == data.end()) {
        m.error = "unknown call-site argument " + call.args[i];
        return m;
      }
      cascabel::rt::Arg arg;
      arg.ptr = it->second.data();
      arg.mode = params[i].mode;
      for (const auto& d : call.pragma.distributions) {
        if (d.param != call.args[i]) continue;
        arg.dist = d.kind;
        arg.rows = d.sizes.size() == 2 ? std::stoul(d.sizes[0]) : 1;
      }
      arg.cols = it->second.size() / arg.rows;
      args.push_back(arg);
    }
    auto status = ctx->execute(call.pragma.task_interface, call.pragma.execution_group,
                               std::move(args));
    const double t_submitted = wall_ms();
    m.layers[kSubmit] += t_submitted - t;
    if (!status.ok()) {
      m.error = "execute: " + status.error().str();
      return m;
    }
    status = ctx->wait();
    m.layers[kDrain] += wall_ms() - t_submitted;
    if (!status.ok()) {
      m.error = "wait: " + status.error().str();
      return m;
    }
  }
  if (trace) {
    const double s = wall_ms();
    obs::Tracer::instance().clear();  // rt.execute spans duplicate kSubmit
    record_engine_stats(m, ctx->stats());
    excluded += wall_ms() - s;
  }
  t = wall_ms();
  ctx.reset();
  m.layers[kTeardown] += wall_ms() - t;
  const double t_end = wall_ms();
  const double cpu_end = cpu_ms();

  // The toolchain phases end at t_translated; bookkeeping done in
  // them is excluded from the toolchain share, the rest from the runtime's.
  m.e2e_ms = t_end - t_start - excluded;
  m.translate_ms = t_translated - t_start - excluded_toolchain;
  m.run_ms = m.e2e_ms - m.translate_ms;
  m.toolchain_cpu_ms = cpu_translated - cpu0;
  m.runtime_cpu_ms = cpu_end - cpu_translated;
  m.generated_bytes = tr.output_source.size();

  for (const auto& [name, values] : data) {
    const std::vector<double>& want = in.expected.at(name);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != want[i]) {
        m.error = "wrong result: " + name + "[" + std::to_string(i) + "] = " +
                  std::to_string(values[i]) + ", expected " + std::to_string(want[i]);
        return m;
      }
    }
  }
  m.ok = true;
  return m;
}

// --- Calibration ----------------------------------------------------------------

volatile double g_calibration_sink = 0.0;

/// Times a fixed amount of cache-resident work that uses none of the
/// repository's code: 2000 string keys into a std::map (allocation and
/// branches, like the toolchain layers) and a 64^3 plain-loop matrix
/// product (like the kernels). It runs right after every measured program,
/// and the end-to-end metrics are program time over this time. On a shared
/// host the speed of the whole machine drifts by 20% and more within
/// minutes, for serial code too; the program and the calibration slow down
/// together, so their ratio keeps what the program's own code costs.
double time_calibration() {
  const double start = wall_ms();
  std::map<std::string, std::uint64_t> keys;
  std::uint64_t x = 1;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys["key" + std::to_string(x % 100003)] += static_cast<std::uint64_t>(i);
  }
  constexpr int n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (int i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>((i * 7) % 9) - 4;
    b[i] = static_cast<double>((i * 5) % 9) - 4;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) sum += a[i * n + k] * b[k * n + j];
      c[i * n + j] = sum;
    }
  }
  g_calibration_sink = c[n + 1] + static_cast<double>(keys.size());
  return wall_ms() - start;
}

// --- Statistics and output ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e --workload <dgemm|wide> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  const std::vector<WorkloadSpec> specs = workloads();
  const auto spec = std::find_if(specs.begin(), specs.end(),
                                 [&](const WorkloadSpec& w) { return w.name == workload; });
  if (spec == specs.end() || (!setup_only && seconds <= 0.0)) return usage();

  // Set-up: the inputs (description text, annotated source, data) and the
  // reference results.
  Input in;
  in.spec = &*spec;
  in.pdl_xml = pdl::serialize(spec->platform());
  in.source = annotated_source(*spec);
  in.initial = make_inputs(*spec, seed);
  in.expected = reference_outputs(*spec, in.initial);
  Arrays data = in.initial;

  const bool traced = trace != 0;
  if (traced) {
    obs::Tracer::instance().set_enabled(true);
    obs::set_metrics_enabled(true);
  }

  // Warm-up (and, with --setup-only, the whole run): lazy initialization
  // and first-touch costs land here, not in the measured programs.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Measurement> runs;
  const auto attempt = [&](bool keep) {
    Measurement m = run_program(in, data, traced);
    ++attempted;
    if (!m.ok) {
      std::fprintf(stderr, "e2e: program failed: %s\n", m.error.c_str());
      ++failed;
    } else if (keep) {
      m.calibration_ms = time_calibration();
      runs.push_back(std::move(m));
    }
  };
  for (int i = 0; i < (setup_only ? 1 : 3); ++i) attempt(false);
  if (setup_only) {
    print_result(failed == 0, attempted, failed, {});
    return 0;
  }
  const double deadline = wall_ms() + seconds * 1e3;
  do attempt(true); while (wall_ms() < deadline);

  using Field = double (*)(const Measurement&);
  const auto med = [&](Field f) {
    std::vector<double> v;
    v.reserve(runs.size());
    for (const auto& m : runs) v.push_back(f(m));
    return median(std::move(v));
  };
  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"e2e_cal", med([](const Measurement& m) {
                         return m.e2e_ms / m.calibration_ms;
                       }), "cal"});
    metrics.push_back({"translate_cal", med([](const Measurement& m) {
                         return m.translate_ms / m.calibration_ms;
                       }), "cal"});
    metrics.push_back({"run_cal", med([](const Measurement& m) {
                         return m.run_ms / m.calibration_ms;
                       }), "cal"});
  } else {
    for (int l = 0; l < kLayerCount; ++l) {
      std::vector<double> v;
      for (const auto& m : runs) v.push_back(m.layers[l]);
      metrics.push_back({kLayerNames[l], median(std::move(v)), "ms"});
    }
    const struct {
      const char* name;
      const char* unit;
      Field field;
    } fields[] = {
        {"traced_e2e_ms", "ms", [](const Measurement& m) { return m.e2e_ms; }},
        {"calibration_ms", "ms", [](const Measurement& m) { return m.calibration_ms; }},
        {"toolchain_cpu_ms", "ms", [](const Measurement& m) { return m.toolchain_cpu_ms; }},
        {"runtime_cpu_ms", "ms", [](const Measurement& m) { return m.runtime_cpu_ms; }},
        {"cpu_kernel_ms", "ms", [](const Measurement& m) { return m.cpu_kernel_ms; }},
        {"cpu_kernel_gflops", "GFLOPS",
         [](const Measurement& m) {
           return m.cpu_kernel_ms > 0.0 ? m.cpu_kernel_flops / (m.cpu_kernel_ms * 1e6) : 0.0;
         }},
        {"modeled_makespan_ms", "ms", [](const Measurement& m) { return m.modeled_makespan_ms; }},
        {"measured_makespan_ms", "ms", [](const Measurement& m) { return m.measured_makespan_ms; }},
        {"modeled_transfer_ms", "ms", [](const Measurement& m) { return m.modeled_transfer_ms; }},
        {"tasks", "count", [](const Measurement& m) { return static_cast<double>(m.tasks); }},
        {"transfers", "count", [](const Measurement& m) { return static_cast<double>(m.transfers); }},
        {"generated_bytes", "bytes",
         [](const Measurement& m) { return static_cast<double>(m.generated_bytes); }},
    };
    for (const auto& f : fields) metrics.push_back({f.name, med(f.field), f.unit});
    // The tail is reported here, with no bound: on a shared host the p90 of
    // untraced programs spread by more than 25% of its median between runs.
    std::vector<double> e2e;
    for (const auto& m : runs) e2e.push_back(m.e2e_ms);
    metrics.push_back({"traced_e2e_p90_ms", quantile(std::move(e2e), 0.9), "ms"});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
