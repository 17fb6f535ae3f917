// Golden rendering of every translation output. `render()` translates each
// annotated source of kSources against each platforms/*.pdl.xml, the way
// cascabelc does (parse, validate, cascabel::translate with default
// options), and prints per pair the diagnostics, the generated source,
// CompilePlan::to_makefile() and CompilePlan::to_script(). A last entry
// translates kWideVecaddProgram onto wide_platform()
// (tests/wide_platform.hpp) and prints only the size and FNV-1a-64 hash of
// its generated source, which embeds a 617 KB description.
//
// tests/fixtures/translate.golden holds the text;
// `translate_golden_record <file>` (tests/translate_golden_record.cpp)
// rewrites it from the code it was built from, and test_cascabel compares
// later builds against it byte for byte.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "cascabel/translator.hpp"
#include "pdl/parser.hpp"
#include "pdl/validate.hpp"
#include "util/string_util.hpp"
#include "wide_platform.hpp"

namespace cascabel::golden {

/// The annotated sources, relative to the source directory.
inline constexpr const char* kSources[] = {
    "examples/vecadd_offload.cpp",
    "examples/dgemm_pipeline.cpp",
    "examples/cell_offload.cpp",
    "tests/fixtures/dgemm_pipeline.cascabel.cpp",
};

inline std::uint64_t fnv1a_64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline void render_diagnostics(std::string& out, const pdl::Diagnostics& diags) {
  out += "-- diagnostics (" + std::to_string(diags.size()) + ") --\n";
  for (const auto& d : diags) out += d.str() + "\n";
}

/// Translates `source` (named `source_name`) for `target` and prints what
/// the translation yields; `whole` false prints the generated source's size
/// and hash instead of its text.
inline void render_translation(std::string& out, std::string_view source,
                               const std::string& source_name,
                               const pdl::Platform& target, bool whole) {
  out += "== " + source_name + " on " + target.name() + " ==\n";
  TranslationOptions options;
  options.codegen.program_name = source_name;
  auto result = translate(source, source_name, target, options);
  if (!result) {
    out += "translation failed: " + result.error().str() + "\n";
    return;
  }
  const TranslationResult& t = result.value();
  render_diagnostics(out, t.diagnostics);
  if (whole) {
    out += "-- source (" + std::to_string(t.output_source.size()) + " bytes) --\n";
    out += t.output_source;
    out += "\n-- makefile --\n" + t.compile_plan.to_makefile();
    out += "-- script --\n" + t.compile_plan.to_script();
    return;
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, fnv1a_64(t.output_source));
  out += "-- source: " + std::to_string(t.output_source.size()) + " bytes, fnv1a64 " +
         hash + " --\n";
}

inline std::string render(const std::string& source_dir) {
  std::vector<std::filesystem::path> platforms;
  for (const auto& entry :
       std::filesystem::directory_iterator(source_dir + "/platforms")) {
    if (pdl::util::ends_with(entry.path().filename().string(), ".pdl.xml")) {
      platforms.push_back(entry.path());
    }
  }
  std::sort(platforms.begin(), platforms.end());

  std::string out;
  for (const auto& path : platforms) {
    const std::string name = "platforms/" + path.filename().string();
    out += "=== " + name + " ===\n";
    const auto text = pdl::util::read_file(path.string());
    if (!text) return out + "cannot read " + name + "\n";
    pdl::Diagnostics diags;
    auto platform = pdl::parse_platform(*text, diags, name);
    if (!platform) {
      out += "parse failed: " + platform.error().str() + "\n";
      continue;
    }
    pdl::validate(platform.value(), diags);
    render_diagnostics(out, diags);
    for (const char* source_name : kSources) {
      const auto source = pdl::util::read_file(source_dir + "/" + source_name);
      if (!source) return out + "cannot read " + source_name + "\n";
      render_translation(out, *source, source_name, platform.value(), true);
    }
  }
  out += "=== wide_platform() ===\n";
  render_translation(out, pdl::fixtures::kWideVecaddProgram, "wide_vecadd.cpp",
                     pdl::fixtures::wide_platform(), false);
  return out;
}

}  // namespace cascabel::golden
