// Smoke tests for the command-line tools: drive real binaries end-to-end
// through the shell, the way a downstream user would.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "json_checker.hpp"
#include "pdl/parser.hpp"
#include "starvm/bridge.hpp"
#include "starvm/perf_store.hpp"
#include "util/string_util.hpp"

namespace {

const std::string kCascabelc = std::string(PDL_BINARY_DIR) + "/src/tools/cascabelc";
const std::string kPdltool = std::string(PDL_BINARY_DIR) + "/src/tools/pdltool";
const std::string kPdlcheck = std::string(PDL_BINARY_DIR) + "/src/tools/pdlcheck";
const std::string kStarmc = std::string(PDL_BINARY_DIR) + "/src/tools/starmc";

std::string temp_path(const std::string& name) {
  // PID-qualified: ctest runs each test in its own process, often in
  // parallel, and a shared fixed name lets concurrent tests clobber each
  // other's files.
  return testing::TempDir() + "/" + std::to_string(getpid()) + "." + name;
}

/// Run a command, capture stdout+stderr, return exit code.
int run(const std::string& command, std::string* output = nullptr) {
  const std::string out_file = temp_path("tool_output.txt");
  const int rc = std::system((command + " > " + out_file + " 2>&1").c_str());
  if (output != nullptr) {
    *output = pdl::util::read_file(out_file).value_or("");
  }
  return WEXITSTATUS(rc);
}

constexpr const char* kAnnotatedProgram = R"(
#pragma cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B: read )
void vectoradd(double *A, double *B, int n) {
  for (int i = 0; i < n; ++i) A[i] += B[i];
}
int main() {
  const int N = 64;
  double A[64] = {0};
  double B[64] = {0};
#pragma cascabel execute Ivecadd : cpu (A:BLOCK:N, B:BLOCK:N)
  vectoradd(A, B, N);
  return 0;
}
)";

class ToolsTest : public testing::Test {
 protected:
  void SetUp() override {
    // A target PDL produced by pdltool itself (plain system(): the run()
    // helper adds its own stdout redirect).
    pdl_path_ = temp_path("target.pdl.xml");
    ASSERT_EQ(
        std::system((kPdltool + " discover --gpus > " + pdl_path_).c_str()), 0);
    input_path_ = temp_path("input.cpp");
    ASSERT_TRUE(pdl::util::write_file(input_path_, kAnnotatedProgram));
  }
  std::string pdl_path_;
  std::string input_path_;
};

TEST_F(ToolsTest, PdltoolValidateAcceptsDiscoveredPlatform) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " validate " + pdl_path_, &output), 0) << output;
  EXPECT_NE(output.find("structure OK"), std::string::npos);
}

TEST_F(ToolsTest, PdltoolQuerySummary) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " query " + pdl_path_ + " summary", &output), 0);
  EXPECT_NE(output.find("workers:"), std::string::npos);
  EXPECT_EQ(run(kPdltool + " query " + pdl_path_ + " workers", &output), 0);
  EXPECT_NE(output.find("arch=gpu"), std::string::npos);
  EXPECT_EQ(run(kPdltool + " query " + pdl_path_ + " interconnects", &output), 0);
  EXPECT_NE(output.find("PCIe"), std::string::npos);
}

TEST_F(ToolsTest, PdltoolMatch) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " match " + pdl_path_ + " 'M[W(ARCHITECTURE=gpu)x2]'",
                &output),
            0);
  EXPECT_NE(output.find("MATCH"), std::string::npos);

  EXPECT_EQ(run(kPdltool + " match " + pdl_path_ + " 'M[W(ARCHITECTURE=spe)]'",
                &output),
            1);
  EXPECT_NE(output.find("NO MATCH"), std::string::npos);
}

TEST_F(ToolsTest, PdltoolRejectsInvalidUsage) {
  EXPECT_EQ(run(kPdltool.c_str()), 2);
  EXPECT_EQ(run(kPdltool + " validate /does/not/exist.xml"), 1);
  EXPECT_EQ(run(kPdltool + " query " + pdl_path_ + " nonsense"), 2);
}

TEST_F(ToolsTest, PdltoolPathShowsHopsAndCost) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " path " + pdl_path_ + " 0 gpu1 1048576", &output), 0)
      << output;
  EXPECT_NE(output.find("0 -> gpu1 via PCIe"), std::string::npos);
  EXPECT_NE(output.find("modeled transfer of 1048576 bytes"), std::string::npos);

  EXPECT_EQ(run(kPdltool + " path " + pdl_path_ + " 0 ghost", &output), 1);
  EXPECT_NE(output.find("no path"), std::string::npos);
}

TEST_F(ToolsTest, PdltoolXsdIsWellFormed) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " xsd", &output), 0);
  EXPECT_NE(output.find("<xs:schema"), std::string::npos);
  EXPECT_NE(output.find("oclDevicePropertyType"), std::string::npos);
}

TEST_F(ToolsTest, PdltoolPresetsPrintsEveryShippedFile) {
  // Each platforms/<stem>.pdl.xml byte for byte, after a line naming it,
  // in the order of the stems.
  constexpr std::string_view kSuffix = ".pdl.xml";
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(PDL_SOURCE_DIR) + "/platforms")) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(kSuffix)) continue;
    const auto text = pdl::util::read_file(entry.path().string());
    ASSERT_TRUE(text.has_value()) << name;
    files[name.substr(0, name.size() - kSuffix.size())] = *text;
  }
  std::string expected;
  for (const auto& [stem, text] : files) expected += "<!-- preset: " + stem + " -->\n" + text;
  std::string output;
  EXPECT_EQ(run(kPdltool + " presets", &output), 0);
  EXPECT_EQ(output, expected);
}

TEST_F(ToolsTest, PdltoolDiffDetectsChanges) {
  // Identical files: exit 0, "(no differences)".
  std::string output;
  EXPECT_EQ(run(kPdltool + " diff " + pdl_path_ + " " + pdl_path_, &output), 0);
  EXPECT_NE(output.find("(no differences)"), std::string::npos);

  // A modified copy: exit 1 with a property-changed line.
  const std::string modified = temp_path("modified.pdl.xml");
  auto text = pdl::util::read_file(pdl_path_);
  ASSERT_TRUE(text.has_value());
  ASSERT_TRUE(pdl::util::write_file(
      modified, pdl::util::replace_all(*text, ">x86<", ">arm<")));
  EXPECT_EQ(run(kPdltool + " diff " + pdl_path_ + " " + modified, &output), 1);
  EXPECT_NE(output.find("property-changed"), std::string::npos);
}

TEST_F(ToolsTest, CascabelcVariantsFlagMergesExpertFile) {
  const std::string variants_path = temp_path("expert.cpp");
  ASSERT_TRUE(pdl::util::write_file(variants_path, R"(
#pragma cascabel task : cuda : Ivecadd : vecadd_expert : ( A: readwrite, B: read )
void vecadd_expert_impl(double *A, double *B, int n) { (void)A; (void)B; (void)n; }
)"));
  const std::string out_cpp = temp_path("gen_with_variants.cpp");
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + input_path_ +
                    " --variants " + variants_path + " --output " + out_cpp,
                &output),
            0)
      << output;
}

TEST_F(ToolsTest, CascabelcTranslatesAndWritesOutputs) {
  const std::string out_cpp = temp_path("generated.cpp");
  const std::string makefile = temp_path("Makefile.generated");
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + input_path_ +
                    " --output " + out_cpp + " --makefile " + makefile +
                    " --exe vecadd_prog",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("1 variant(s), 1 call site(s)"), std::string::npos);

  const auto generated = pdl::util::read_file(out_cpp);
  ASSERT_TRUE(generated.has_value());
  EXPECT_NE(generated->find("::cascabel::rt::execute"), std::string::npos);

  const auto plan = pdl::util::read_file(makefile);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE(plan->find("vecadd_prog"), std::string::npos);
  EXPECT_NE(plan->find("nvcc"), std::string::npos);  // gpu workers in the PDL
}

TEST_F(ToolsTest, CascabelcPrintsSelectionReport) {
  const std::string out_cpp = temp_path("gen_sel.cpp");
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + input_path_ +
                    " --output " + out_cpp + " --print-selection",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("selection for target"), std::string::npos);
  EXPECT_NE(output.find("Ivecadd:"), std::string::npos);
  EXPECT_NE(output.find("fallback"), std::string::npos);
}

TEST_F(ToolsTest, CascabelcWritesMergedTraceAndMetrics) {
  const std::string out_cpp = temp_path("gen_obs.cpp");
  const std::string trace = temp_path("trace.json");
  const std::string metrics = temp_path("metrics.json");
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + input_path_ +
                    " --output " + out_cpp + " --trace-out=" + trace +
                    " --metrics-out " + metrics,
                &output),
            0)
      << output;

  // The trace is one Chrome trace with both clock lanes and at least one
  // scheduler decision from the schedule preview.
  const auto trace_text = pdl::util::read_file(trace);
  ASSERT_TRUE(trace_text.has_value());
  const auto trace_json = testjson::parse(*trace_text);
  ASSERT_TRUE(trace_json.ok) << trace_json.error;
  EXPECT_TRUE(testjson::contains_string(trace_json, "toolchain wall time"));
  EXPECT_TRUE(testjson::contains_string(trace_json, "engine virtual time"));
  EXPECT_TRUE(testjson::contains_string(trace_json, "cascabel.translate"));
  EXPECT_NE(trace_text->find("\"ph\":\"i\""), std::string::npos) << *trace_text;

  // The metrics snapshot parses and carries counters from several layers.
  const auto metrics_text = pdl::util::read_file(metrics);
  ASSERT_TRUE(metrics_text.has_value());
  const auto metrics_json = testjson::parse(*metrics_text);
  ASSERT_TRUE(metrics_json.ok) << metrics_json.error;
  for (const char* name :
       {"xml.documents_parsed", "pdl.validations", "cascabel.translations",
        "starvm.tasks_completed", "thread_pool.tasks_executed"}) {
    EXPECT_TRUE(testjson::contains_string(metrics_json, name))
        << name << " missing from " << *metrics_text;
  }
}

TEST_F(ToolsTest, PdltoolWritesMetricsSnapshot) {
  const std::string metrics = temp_path("pdltool_metrics.json");
  std::string output;
  EXPECT_EQ(run(kPdltool + " validate " + pdl_path_ +
                    " --metrics-out=" + metrics,
                &output),
            0)
      << output;
  const auto text = pdl::util::read_file(metrics);
  ASSERT_TRUE(text.has_value());
  const auto parsed = testjson::parse(*text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "pdl.validations"));
  EXPECT_TRUE(testjson::contains_string(parsed, "xml.nodes_parsed"));
}

TEST_F(ToolsTest, EnvVarsDriveObservabilityWithoutFlags) {
  const std::string out_cpp = temp_path("gen_env.cpp");
  const std::string trace = temp_path("env_trace.json");
  std::string output;
  EXPECT_EQ(run("PDL_TRACE=" + trace + " " + kCascabelc + " --pdl " +
                    pdl_path_ + " --input " + input_path_ + " --output " +
                    out_cpp,
                &output),
            0)
      << output;
  const auto text = pdl::util::read_file(trace);
  ASSERT_TRUE(text.has_value());
  const auto parsed = testjson::parse(*text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "toolchain wall time"));
}

TEST_F(ToolsTest, PdltoolLintPassesCleanPlatform) {
  std::string output;
  EXPECT_EQ(run(kPdltool + " lint " + pdl_path_, &output), 0) << output;
  EXPECT_NE(output.find("0 error(s)"), std::string::npos);
}

TEST_F(ToolsTest, CascabelcAnalyzeReportsInsteadOfTranslating) {
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + input_path_ +
                    " --analyze",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("error(s)"), std::string::npos);
}

TEST_F(ToolsTest, PdlcheckLintsCleanPlatform) {
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " " + pdl_path_, &output), 0) << output;
  EXPECT_NE(output.find("0 error(s), 0 warning(s)"), std::string::npos);
}

TEST_F(ToolsTest, PdlcheckFlagsStructuralErrorsWithRuleIds) {
  const std::string bad = temp_path("bad_platform.pdl.xml");
  ASSERT_TRUE(pdl::util::write_file(bad, R"(<?xml version="1.0"?>
<Platform name="bad" version="1.0">
  <Master id="m0" quantity="1">
    <Worker id="w" quantity="1"></Worker>
    <Worker id="w" quantity="1"></Worker>
  </Master>
</Platform>)"));
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " " + bad, &output), 1);
  EXPECT_NE(output.find("[V6]"), std::string::npos) << output;
  EXPECT_NE(output.find("bad_platform.pdl.xml:"), std::string::npos) << output;
}

/// A platform whose only finding is the warning-severity A101 (worker
/// memory without a declared interconnect path).
std::string write_warning_platform() {
  const std::string path = temp_path("warn_platform.pdl.xml");
  EXPECT_TRUE(pdl::util::write_file(path, R"(<?xml version="1.0"?>
<Platform name="warn" version="1.0">
  <Master id="m0" quantity="1">
    <Worker id="w0" quantity="1">
      <MemoryRegion id="mr_w0"></MemoryRegion>
    </Worker>
  </Master>
</Platform>)"));
  return path;
}

TEST_F(ToolsTest, PdlcheckWerrorPromotesWarnings) {
  const std::string path = write_warning_platform();
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " " + path, &output), 0) << output;
  EXPECT_NE(output.find("[A101-unreachable-worker-memory]"), std::string::npos);
  EXPECT_EQ(run(kPdlcheck + " --werror " + path, &output), 1);
}

TEST_F(ToolsTest, PdlcheckRuleFlagOverridesSeverityAndDisables) {
  const std::string path = write_warning_platform();
  std::string output;
  // Promote the single warning to an error: exit 1.
  EXPECT_EQ(run(kPdlcheck + " --rule A101=error " + path, &output), 1);
  EXPECT_NE(output.find("error:"), std::string::npos);
  // Turn the rule off entirely: clean output.
  EXPECT_EQ(run(kPdlcheck + " --rule A101=off " + path, &output), 0);
  EXPECT_NE(output.find("0 error(s), 0 warning(s)"), std::string::npos);
  // Unknown rules are rejected with usage exit code 2.
  EXPECT_EQ(run(kPdlcheck + " --rule A999=off " + path, &output), 2);
}

TEST_F(ToolsTest, PdlcheckUnknownRuleSuggestsNearestId) {
  std::string output;
  // Bare-number typo: suggested in bare-number form.
  EXPECT_EQ(run(kPdlcheck + " --rule A510=off " + pdl_path_, &output), 2);
  EXPECT_NE(output.find("unknown rule 'A510'"), std::string::npos) << output;
  EXPECT_NE(output.find("did you mean 'A501'"), std::string::npos) << output;
  // Full-id typo: suggested in full-id form.
  EXPECT_EQ(
      run(kPdlcheck + " --rule A403-partiton-aliasing=error " + pdl_path_,
          &output),
      2);
  EXPECT_NE(output.find("did you mean 'A403-partition-aliasing'"),
            std::string::npos)
      << output;
  // Nothing plausibly close: a plain unknown-rule error, no suggestion.
  EXPECT_EQ(run(kPdlcheck + " --rule zzz-unrelated=off " + pdl_path_, &output),
            2);
  EXPECT_EQ(output.find("did you mean"), std::string::npos) << output;
}

TEST_F(ToolsTest, PdlcheckPlanFiresCapacityRulesOnFixtures) {
  const std::string platform =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/undersized.pdl.xml";
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/oversubscribed.graph";
  std::string output;
  // A501 is an error: exit 1.
  EXPECT_EQ(
      run(kPdlcheck + " --plan --graph " + graph + " " + platform, &output), 1);
  EXPECT_NE(output.find("schedule plan:"), std::string::npos) << output;
  EXPECT_NE(output.find("makespan:"), std::string::npos);
  EXPECT_NE(output.find("[A501-memory-capacity-exceeded]"), std::string::npos)
      << output;
  EXPECT_NE(output.find("[A503-transfer-bound-task]"), std::string::npos);
  EXPECT_NE(output.find("[A505-interconnect-oversubscribed]"),
            std::string::npos);
  // Byte-identical across runs: the modeled schedule is deterministic.
  std::string again;
  EXPECT_EQ(
      run(kPdlcheck + " --plan --graph " + graph + " " + platform, &again), 1);
  EXPECT_EQ(output, again);
  // Shipped platforms stay clean under --plan (no graph: lint only).
  const std::string testbed = std::string(PDL_SOURCE_DIR) +
                              "/platforms/testbed-starpu-2gpu.pdl.xml";
  EXPECT_EQ(run(kPdlcheck + " --plan " + testbed, &output), 0) << output;
}

TEST_F(ToolsTest, PdlcheckPlanReportsAccuracyRulesIdenticallyAcrossFormats) {
  // The committed A7xx fixture pair: a 10-step recurrence whose bound
  // (floored by the platform's fp32 ACCURACY) breaks the tolerance. The
  // same two findings must surface in text, JSON and SARIF — same rules,
  // same count, same locations — and A701 is an error, so exit 1.
  const std::string platform =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/fp32-testbed.pdl.xml";
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/tolerance.graph";

  std::string text;
  EXPECT_EQ(run(kPdlcheck + " --plan --graph " + graph + " " + platform, &text),
            1);
  EXPECT_NE(text.find("[A701-tolerance-exceeded]"), std::string::npos) << text;
  EXPECT_NE(text.find("[A703-accumulation-blowup]"), std::string::npos) << text;
  // The text findings carry the fixture's file:line anchors.
  EXPECT_NE(text.find("tolerance.graph:15:"), std::string::npos) << text;
  EXPECT_NE(text.find("tolerance.graph:27:"), std::string::npos) << text;

  std::string json;
  EXPECT_EQ(run(kPdlcheck + " --format=json --plan --graph " + graph + " " +
                    platform,
                &json),
            1);
  const testjson::ParseResult parsed_json = testjson::parse(json);
  ASSERT_TRUE(parsed_json.ok) << parsed_json.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed_json, "A701-tolerance-exceeded"));
  EXPECT_TRUE(testjson::contains_string(parsed_json, "A703-accumulation-blowup"));

  std::string sarif;
  EXPECT_EQ(run(kPdlcheck + " --format=sarif --plan --graph " + graph + " " +
                    platform,
                &sarif),
            1);
  const testjson::ParseResult parsed_sarif = testjson::parse(sarif);
  ASSERT_TRUE(parsed_sarif.ok) << parsed_sarif.error << "\n" << sarif;
  EXPECT_TRUE(testjson::contains_string(parsed_sarif, "A701-tolerance-exceeded"));
  EXPECT_TRUE(testjson::contains_string(parsed_sarif, "A703-accumulation-blowup"));
  // The A703 accumulation chain rides along as a SARIF logical location.
  EXPECT_TRUE(testjson::contains_string(
      parsed_sarif, "s0->s1->s2->s3->s4->s5->s6->s7->s8->s9"))
      << sarif;

  // Identical finding multiset across formats: count occurrences per rule.
  for (const char* rule :
       {"A701-tolerance-exceeded", "A703-accumulation-blowup"}) {
    std::size_t in_text = 0, in_json = 0, in_sarif = 0;
    for (std::size_t p = text.find(rule); p != std::string::npos;
         p = text.find(rule, p + 1))
      ++in_text;
    for (std::size_t p = json.find(rule); p != std::string::npos;
         p = json.find(rule, p + 1))
      ++in_json;
    // SARIF mentions each rule in the result and once in the rules table.
    for (std::size_t p = sarif.find(std::string("\"ruleId\":\"") + rule);
         p != std::string::npos;
         p = sarif.find(std::string("\"ruleId\":\"") + rule, p + 1))
      ++in_sarif;
    EXPECT_EQ(in_text, 1u) << rule;
    EXPECT_EQ(in_json, 1u) << rule;
    EXPECT_EQ(in_sarif, 1u) << rule;
  }

  // pdltool plan surfaces the same analysis.
  std::string plan;
  EXPECT_EQ(run(kPdltool + " plan " + platform + " " + graph, &plan), 1);
  EXPECT_NE(plan.find("[A701-tolerance-exceeded]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("[A703-accumulation-blowup]"), std::string::npos);

  // Demoting A701 drops the exit code: the guard is tunable like every
  // other rule family.
  EXPECT_EQ(run(kPdlcheck + " --rule A701=info --plan --graph " + graph + " " +
                platform),
            0);
}

TEST_F(ToolsTest, PdlcheckSarifOutputIsValidJson) {
  const std::string platform =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/undersized.pdl.xml";
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/oversubscribed.graph";
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --format=sarif --plan --graph " + graph + " " +
                    platform,
                &output),
            1);
  const testjson::ParseResult parsed = testjson::parse(output);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << output;
  EXPECT_TRUE(testjson::contains_string(parsed, "2.1.0"));
  EXPECT_TRUE(testjson::contains_string(parsed, "pdlcheck"));
  EXPECT_TRUE(
      testjson::contains_string(parsed, "A501-memory-capacity-exceeded"));
  EXPECT_TRUE(
      testjson::contains_string(parsed, "A505-interconnect-oversubscribed"));
  // A clean run still renders a valid (empty-results) SARIF document.
  EXPECT_EQ(run(kPdlcheck + " --format=sarif " + pdl_path_, &output), 0);
  EXPECT_TRUE(testjson::parse(output).ok) << output;
}

TEST_F(ToolsTest, PdltoolPlanSubcommand) {
  const std::string platform =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/undersized.pdl.xml";
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/oversubscribed.graph";
  std::string output;
  EXPECT_EQ(run(kPdltool + " plan " + platform + " " + graph, &output), 1);
  EXPECT_NE(output.find("schedule plan:"), std::string::npos) << output;
  EXPECT_NE(output.find("critical path:"), std::string::npos);
  EXPECT_NE(output.find("[A501-memory-capacity-exceeded]"), std::string::npos);
  // Bad inputs fail cleanly.
  EXPECT_EQ(run(kPdltool + " plan " + platform + " /does/not/exist.graph"), 1);
  EXPECT_EQ(run(kPdltool + " plan"), 2);
}

TEST_F(ToolsTest, PdlcheckJsonValidatesAndCarriesFindings) {
  const std::string path = write_warning_platform();
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --format=json " + path, &output), 0) << output;
  const auto parsed = testjson::parse(output);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << output;
  EXPECT_TRUE(testjson::contains_string(parsed, "findings"));
  EXPECT_TRUE(testjson::contains_string(parsed, "summary"));
  EXPECT_TRUE(testjson::contains_string(parsed, "A101-unreachable-worker-memory"));
}

TEST_F(ToolsTest, PdlcheckListRulesShowsCatalog) {
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --list-rules", &output), 0);
  for (const char* id :
       {"A101-unreachable-worker-memory", "A301-dead-variant",
        "A403-partition-aliasing", "A404-dependency-cycle"}) {
    EXPECT_NE(output.find(id), std::string::npos) << id;
  }
}

TEST_F(ToolsTest, PdlcheckAnalyzesProgramAgainstPlatform) {
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --program " + input_path_ + " " + pdl_path_, &output),
            0)
      << output;
}

TEST_F(ToolsTest, PdlcheckDetectsSeededRaceUnderRelaxedModel) {
  // Two unordered execute sites writing the same buffer: clean under the
  // engine's sequential-consistency model, a write-write race when only
  // declared dependencies order tasks.
  const std::string racy = temp_path("racy.cpp");
  ASSERT_TRUE(pdl::util::write_file(racy, R"(
#pragma cascabel task : x86 : Ifill : fill01 : ( A: write )
void fill(double *A, int n) { for (int i = 0; i < n; ++i) A[i] = 7.0; }
int main() {
  const int N = 64;
  double A[64] = {0};
#pragma cascabel execute Ifill : cpu (A:BLOCK:N)
  fill(A, N);
#pragma cascabel execute Ifill : cpu (A:BLOCK:N)
  fill(A, N);
  return 0;
}
)"));
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --program " + racy + " " + pdl_path_, &output), 0)
      << output;
  EXPECT_EQ(run(kPdlcheck + " --relaxed --program " + racy + " " + pdl_path_,
                &output),
            1)
      << output;
  EXPECT_NE(output.find("[A401-unordered-write-write]"), std::string::npos) << output;
}

TEST_F(ToolsTest, PdlcheckGoldenLintShippedPlatformsAndExamples) {
  // Every platform description the repo ships must lint without errors —
  // the same gate CI runs.
  const std::string platforms = std::string(PDL_SOURCE_DIR) + "/platforms";
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " " + platforms + "/cell-be.pdl.xml " + platforms +
                    "/hierarchical.pdl.xml " + platforms +
                    "/testbed-single.pdl.xml " + platforms +
                    "/testbed-starpu.pdl.xml " + platforms +
                    "/testbed-starpu-2gpu.pdl.xml",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("0 error(s)"), std::string::npos);

  // The example programs must analyze cleanly against the paper testbed.
  const std::string testbed = platforms + "/testbed-starpu-2gpu.pdl.xml";
  for (const char* example :
       {"vecadd_offload.cpp", "dgemm_pipeline.cpp", "cell_offload.cpp",
        "cholesky_dag.cpp"}) {
    const std::string program =
        std::string(PDL_SOURCE_DIR) + "/examples/" + example;
    EXPECT_EQ(run(kPdlcheck + " --program " + program + " " + testbed, &output), 0)
        << example << ":\n" << output;
  }
}

TEST_F(ToolsTest, PdlcheckRejectsUnknownFlagsAndMissingFiles) {
  std::string output;
  EXPECT_EQ(run(kPdlcheck.c_str(), &output), 2);
  EXPECT_EQ(run(kPdlcheck + " --nonsense " + pdl_path_, &output), 2);
  EXPECT_EQ(run(kPdlcheck + " /does/not/exist.xml", &output), 1);
}

TEST_F(ToolsTest, CascabelcFailsCleanlyOnBadInputs) {
  EXPECT_EQ(run(kCascabelc.c_str()), 2);
  EXPECT_EQ(run(kCascabelc + " --pdl /nope.xml --input " + input_path_), 1);
  const std::string bad_input = temp_path("bad.cpp");
  ASSERT_TRUE(pdl::util::write_file(
      bad_input, "#pragma cascabel task : x86 : I : v : (A: read)\nint x;\n"));
  EXPECT_EQ(run(kCascabelc + " --pdl " + pdl_path_ + " --input " + bad_input), 1);
}

TEST_F(ToolsTest, SimulatedRunsLeaveThePersistedPerfStoreUntouched) {
  // The pure-sim preview (PDL_PERF_STORE set) and `pdltool profile`
  // (--perf-store) read the store but must not rewrite its learned rates.
  const std::string root = PDL_SOURCE_DIR;
  const auto fixture =
      pdl::util::read_file(root + "/tests/fixtures/testbed-starpu-2gpu.perfstore");
  ASSERT_TRUE(fixture.has_value());
  const std::string store = temp_path("readonly.perfstore");
  ASSERT_TRUE(pdl::util::write_file(store, *fixture));
  const std::string platform = root + "/platforms/testbed-starpu-2gpu.pdl.xml";
  std::string output;
  EXPECT_EQ(run("PDL_PERF_STORE=" + store + " " + kCascabelc + " --pdl " +
                    platform + " --input " + root +
                    "/tests/fixtures/dgemm_pipeline.cascabel.cpp --output " +
                    temp_path("readonly_gen.cpp") + " --profile",
                &output),
            0)
      << output;
  EXPECT_EQ(pdl::util::read_file(store), fixture);
  EXPECT_EQ(run(kPdltool + " --perf-store " + store + " profile " + platform +
                    " " + root + "/tests/fixtures/dgemm_pipeline.graph",
                &output),
            0)
      << output;
  EXPECT_EQ(pdl::util::read_file(store), fixture);
}

TEST_F(ToolsTest, CommittedPerfStorePricesGpu1InTheEveryPuPlan) {
  // The plan schedules every PU, so gpu1 is device 8 there and device 6 in
  // the runtime's list; the fixture keys its rates by gpu1's class, which
  // prices it in both. 1.534 GFLOP at the learned 153.4 GFLOPS is 10 ms;
  // the declared 104.16 GFLOPS would take 14.727 ms.
  const std::string root = PDL_SOURCE_DIR;
  const std::string store = root + "/tests/fixtures/testbed-starpu-2gpu.perfstore";
  const std::string platform = root + "/platforms/testbed-starpu-2gpu.pdl.xml";
  const std::string graph = temp_path("gpu1.graph");
  ASSERT_TRUE(pdl::util::write_file(
      graph, "buffer x 1MB\ntask dgemm_cuda write=x flops=1.534e9\n"));
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --plan --graph " + graph + " --perf-store " + store +
                    " " + platform,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("critical-path lower bound: 10.000 ms"), std::string::npos)
      << output;
  EXPECT_NE(output.find("device gpu1: busy 10.010 ms"), std::string::npos) << output;
  EXPECT_EQ(run(kPdlcheck + " --plan --graph " + graph + " " + platform, &output), 0);
  EXPECT_NE(output.find("critical-path lower bound: 14.727 ms"), std::string::npos)
      << output;

  // `perf check` passes only when every entry prices a class of the
  // platform: the single-core testbed has no GPU class.
  EXPECT_EQ(run(kPdltool + " perf check " + store + " " + platform, &output), 0)
      << output;
  EXPECT_NE(output.find("MATCH: 6 of 6 entries"), std::string::npos) << output;
  EXPECT_EQ(run(kPdltool + " perf check " + store + " " + root +
                    "/platforms/testbed-single.pdl.xml",
                &output),
            1);
  EXPECT_NE(output.find("NO CLASS dgemm_cuda"), std::string::npos) << output;
}

TEST_F(ToolsTest, PdlcheckPlanReportsAPlatformTheRuntimeRefuses) {
  // 64 GPU instances need 65 memory nodes; the engine tracks 64. The A5xx
  // pass reports why instead of letting the engine's exception escape.
  const std::string xml = R"(<?xml version="1.0"?>
<Platform name="gpu-farm" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
    <Worker id="gpu" quantity="64">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
      </PUDescriptor>
    </Worker>
    <Interconnect type="PCIe" from="m" to="gpu" scheme="rDMA"/>
  </Master>
</Platform>)";
  const std::string platform = temp_path("gpu_farm.pdl.xml");
  ASSERT_TRUE(pdl::util::write_file(platform, xml));
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/diamond.graph";
  std::string output;
  EXPECT_EQ(run(kPdlcheck + " --plan --graph " + graph + " " + platform, &output),
            1);
  EXPECT_NE(output.find("schedule analysis skipped"), std::string::npos)
      << output;
  EXPECT_NE(output.find("63 accelerator memory nodes"), std::string::npos);
  EXPECT_EQ(run(kPdltool + " plan " + platform + " " + graph, &output), 1);
  EXPECT_NE(output.find("63 accelerator memory nodes"), std::string::npos)
      << output;
}

TEST_F(ToolsTest, PdlcheckPlanIgnoresTheFaultInjectionEnvironment) {
  // The plan is a fault-free run of the graph: a runtime test hook in the
  // environment must not turn the analysis into a report on failed tasks.
  const std::string root = PDL_SOURCE_DIR;
  const std::string args = " --plan --graph " + root +
                           "/tests/fixtures/diamond.graph " + root +
                           "/tests/fixtures/undersized.pdl.xml";
  std::string clean;
  std::string faulted;
  const int rc = run(kPdlcheck + args, &clean);
  EXPECT_EQ(run("PDL_FAULT_PLAN='fail:task=1,attempts=9' " + kPdlcheck + args,
                &faulted),
            rc);
  EXPECT_EQ(faulted, clean);
}

TEST_F(ToolsTest, PdlcheckPlanIgnoresThePerfStoreEnvironment) {
  // A store that matches the plan's every-PU device list and charges the
  // task 0.5 s instead of the declared ~0.1 s: `pdlcheck --plan` and
  // `pdltool plan` price from the caller's --perf-store only, so the
  // environment must move neither.
  const std::string root = PDL_SOURCE_DIR;
  const std::string platform = root + "/platforms/testbed-single.pdl.xml";
  auto parsed = pdl::parse_platform_file(platform);
  ASSERT_TRUE(parsed.ok());
  starvm::BridgeOptions bridge;
  bridge.mode = starvm::ExecutionMode::kPureSim;
  bridge.dedicate_driver_cores = false;
  auto config = starvm::engine_config_from_platform(parsed.value(), bridge);
  ASSERT_TRUE(config.ok());
  starvm::perf_store::Store store;
  for (const std::uint64_t key : starvm::device_classes(config.value().devices).keys) {
    store.entries.push_back({"t", key, 0.5, 100, 2.0});
  }
  const std::string store_path = temp_path("matching.perfstore");
  ASSERT_TRUE(starvm::perf_store::save(store, store_path));
  const std::string graph = temp_path("one_task.graph");
  ASSERT_TRUE(pdl::util::write_file(graph, "buffer x 1MB\ntask t write=x flops=1e9\n"));

  const std::string args = " --plan --graph " + graph + " " + platform;
  std::string clean;
  std::string stored;
  const int rc = run(kPdlcheck + args, &clean);
  EXPECT_EQ(run("PDL_PERF_STORE=" + store_path + " " + kPdlcheck + args, &stored),
            rc);
  EXPECT_EQ(stored, clean);
  EXPECT_NE(clean.find("schedule plan: 1 task(s)"), std::string::npos) << clean;

  const std::string plan_args = " plan " + platform + " " + graph;
  const int plan_rc = run(kPdltool + plan_args, &clean);
  EXPECT_EQ(run("PDL_PERF_STORE=" + store_path + " " + kPdltool + plan_args,
                &stored),
            plan_rc);
  EXPECT_EQ(stored, clean);
}

TEST_F(ToolsTest, StarmcIgnoresTheFaultInjectionEnvironment) {
  // An exploration checks the program it is given: a runtime test hook in
  // the environment must not cut it down to the runs of a failing task.
  const std::string args = " --graph " + std::string(PDL_SOURCE_DIR) +
                           "/tests/fixtures/diamond.graph --devices 2";
  std::string clean;
  std::string faulted;
  const int rc = run(kStarmc + args, &clean);
  EXPECT_EQ(run("PDL_FAULT_PLAN='fail:task=1,attempts=9' " + kStarmc + args,
                &faulted),
            rc);
  EXPECT_EQ(faulted, clean);
  EXPECT_NE(clean.find("37 engine runs, 12 terminal states"), std::string::npos)
      << clean;
}

TEST_F(ToolsTest, PdltoolProfileReportsCriticalPathAndDrift) {
  const std::string platform =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/undersized.pdl.xml";
  const std::string graph =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/dgemm_pipeline.graph";
  std::string output;
  EXPECT_EQ(run(kPdltool + " profile " + platform + " " + graph, &output), 0)
      << output;
  EXPECT_NE(output.find("measured critical path"), std::string::npos);
  EXPECT_NE(output.find("critical-path attribution"), std::string::npos);
  EXPECT_NE(output.find("rate drift"), std::string::npos);
  // The instance labels collapse to one dgemm codelet per device row.
  EXPECT_NE(output.find("dgemm @ "), std::string::npos);
  EXPECT_NE(output.find("reduce"), std::string::npos);
  // One schedule model: `pdltool plan` reads its schedule off the run the
  // profile reports, so both print the same makespan.
  const std::size_t at = output.find("makespan ");
  ASSERT_NE(at, std::string::npos) << output;
  const std::string makespan =
      output.substr(at + 9, output.find(" ms", at) - (at + 9));
  std::string plan;
  run(kPdltool + " plan " + platform + " " + graph, &plan);
  EXPECT_NE(plan.find("makespan: " + makespan + " ms"), std::string::npos)
      << makespan << "\n" << plan;

  EXPECT_EQ(run(kPdltool + " profile " + platform + " /no/such.graph"), 1);
}

TEST_F(ToolsTest, CascabelcProfileAndFlightDump) {
  const std::string platform = std::string(PDL_SOURCE_DIR) +
                               "/platforms/testbed-starpu-2gpu.pdl.xml";
  const std::string input = std::string(PDL_SOURCE_DIR) +
                            "/tests/fixtures/dgemm_pipeline.cascabel.cpp";
  const std::string out_cpp = temp_path("profile_gen.cpp");
  std::string output;
  EXPECT_EQ(run(kCascabelc + " --pdl " + platform + " --input " + input +
                    " --output " + out_cpp + " --profile",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("measured critical path"), std::string::npos);
  EXPECT_NE(output.find("rate drift"), std::string::npos);
  EXPECT_NE(output.find("flight recorder:"), std::string::npos);
  // No plan of the translated program exists to diff against: the report
  // is the preview run's alone, and its makespan is its critical path's
  // last finish.
  EXPECT_EQ(output.find("model vs measured"), std::string::npos);
  const std::size_t at = output.find("makespan ");
  ASSERT_NE(at, std::string::npos) << output;
  const std::string makespan =
      output.substr(at + 9, output.find(" ms", at) - (at + 9));
  const std::size_t attribution = output.find("critical-path attribution");
  ASSERT_NE(attribution, std::string::npos);
  EXPECT_NE(output.rfind("finish " + makespan + " ms", attribution),
            std::string::npos)
      << output;

  // A fault plan that outlives the retry budget forces the preview's
  // wait_all to fail; PDL_FLIGHT_DUMP must leave the post-mortem behind.
  const std::string prefix = temp_path("tool_flight");
  EXPECT_EQ(run("PDL_FLIGHT_DUMP=" + prefix + " " + kCascabelc + " --pdl " +
                    platform + " --input " + input + " --output " + out_cpp +
                    " --profile --fault-plan 'fail:task=2,attempts=9'",
                &output),
            0)
      << output;
  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value()) << "flight dump missing";
  EXPECT_NE(jsonl->find("\"reason\":\"wait_all_failure\""), std::string::npos);
  const auto trace = pdl::util::read_file(prefix + ".trace.json");
  ASSERT_TRUE(trace.has_value());
  EXPECT_NE(trace->find("flight recorder"), std::string::npos);
}

TEST_F(ToolsTest, PrometheusFileHoldsThePreviewsEngineSamples) {
  // PDL_METRICS_PROM is written at exit, after the preview's engine has
  // published its run's totals to the registry.
  const std::string platform = std::string(PDL_SOURCE_DIR) +
                               "/platforms/testbed-starpu-2gpu.pdl.xml";
  const std::string input = std::string(PDL_SOURCE_DIR) +
                            "/tests/fixtures/dgemm_pipeline.cascabel.cpp";
  const std::string out_cpp = temp_path("prom_gen.cpp");
  const std::string prom = temp_path("preview.prom");
  std::string output;
  EXPECT_EQ(run("PDL_METRICS_PROM=" + prom + " " + kCascabelc + " --pdl " + platform +
                    " --input " + input + " --output " + out_cpp + " --profile",
                &output),
            0)
      << output;
  const auto text = pdl::util::read_file(prom);
  ASSERT_TRUE(text.has_value()) << "Prometheus file missing";
  EXPECT_NE(text->find("\npdl_starvm_tasks_completed 32\n"), std::string::npos) << *text;
  EXPECT_NE(text->find("\npdl_starvm_task_exec_us_count 32\n"), std::string::npos)
      << *text;
}

}  // namespace
