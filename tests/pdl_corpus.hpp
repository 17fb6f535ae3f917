// Golden rendering of the PDL corpus: the edge documents of
// tests/fixtures/pdl_corpus, the shipped descriptions in platforms/ and the
// test descriptions in tests/fixtures, each read where it lives. Every
// document `<name>.xml` has its golden in tests/fixtures/pdl_corpus as
// `<name>.xml.golden`, holding what `render` prints for it: the parse error,
// or the diagnostics in the order the parser reported them, the SourceLoc of
// every processing unit, property, memory region and interconnect, and
// `pdl::serialize` under all four option combinations.
//
// `pdl_corpus_record <root>` (tests/pdl_corpus_record.cpp) rewrites the
// goldens from the code it was built from; `test_pdl` compares against them.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"

namespace pdl::corpus {

/// Appends `<label> "<name>" @ <loc>` on its own line, indented by `depth`.
inline void render_entity(std::string& out, int depth, std::string_view label,
                          std::string_view name, const SourceLoc& loc) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out.append(label).append(" \"").append(name).append("\" @ ").append(loc.str());
  out += '\n';
}

inline void render_descriptor(std::string& out, const Descriptor& d, int depth) {
  for (const auto& p : d.properties()) render_entity(out, depth, "property", p.name, p.loc);
}

inline void render_pu(std::string& out, const ProcessingUnit& pu, int depth) {
  render_entity(out, depth, to_string(pu.kind()), pu.id(), pu.loc());
  render_descriptor(out, pu.descriptor(), depth + 1);
  for (const auto& mr : pu.memory_regions()) {
    render_entity(out, depth + 1, "memory", mr.id, mr.loc);
    render_descriptor(out, mr.descriptor, depth + 2);
  }
  for (const auto& ic : pu.interconnects()) {
    render_entity(out, depth + 1, "interconnect", ic.from + "\" -> \"" + ic.to, ic.loc);
    render_descriptor(out, ic.descriptor, depth + 2);
  }
  for (const auto& child : pu.children()) render_pu(out, *child, depth + 1);
}

/// Everything observable about parsing `text` as a document named
/// `source_name`.
inline std::string render(std::string_view text, const std::string& source_name) {
  Diagnostics diags;
  auto platform = parse_platform(text, diags, source_name);
  if (!platform) return "== error ==\n" + platform.error().str() + "\n";
  std::string out = "== diagnostics (" + std::to_string(diags.size()) + ") ==\n";
  for (const auto& d : diags) out += d.str() + "\n";
  out += "== locations ==\n";
  for (const auto& m : platform.value().masters()) render_pu(out, *m, 0);
  for (const bool pretty : {true, false}) {
    for (const bool bare : {false, true}) {
      out += "== serialize pretty=" + std::string(pretty ? "1" : "0") +
             " bare_master_root=" + (bare ? "1" : "0") + " ==\n";
      SerializeOptions options;
      options.pretty = pretty;
      options.bare_master_root = bare;
      out += serialize(platform.value(), options);
      out += "\n";
    }
  }
  return out;
}

/// The corpus documents (`*.xml`) under the source root `root`, sorted by
/// file name (which names each one's golden).
inline std::vector<std::filesystem::path> documents(const std::filesystem::path& root) {
  std::vector<std::filesystem::path> out;
  for (const char* dir : {"tests/fixtures/pdl_corpus", "platforms", "tests/fixtures"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() == ".xml") out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.filename() < b.filename(); });
  return out;
}

/// The golden of corpus document `doc`.
inline std::filesystem::path golden(const std::filesystem::path& root,
                                    const std::filesystem::path& doc) {
  return root / "tests/fixtures/pdl_corpus" / (doc.filename().string() + ".golden");
}

}  // namespace pdl::corpus
