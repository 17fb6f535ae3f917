#include "discovery/presets.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "pdl/parser.hpp"

namespace pdl::discovery {

namespace {

// Generated from platforms/*.pdl.xml by src/discovery/CMakeLists.txt.
constexpr std::pair<std::string_view, std::string_view> kPresetFiles[] = {
#include "preset_files.inc"
};

/// The platform that the embedded `platforms/<stem>.pdl.xml` describes.
Platform parse_preset(std::string_view stem) {
  const std::string source = "platforms/" + std::string(stem) + ".pdl.xml";
  const auto* file = std::find_if(std::begin(kPresetFiles), std::end(kPresetFiles),
                                  [&](const auto& entry) { return entry.first == stem; });
  if (file == std::end(kPresetFiles)) throw std::logic_error(source + " is not embedded");
  Diagnostics diags;
  auto platform = parse_platform(file->second, diags, source);
  if (!platform.ok()) throw std::logic_error(source + ": " + platform.error().str());
  return std::move(platform).value();
}

}  // namespace

std::span<const std::pair<std::string_view, std::string_view>> preset_files() {
  return kPresetFiles;
}

Platform paper_platform_single() { return parse_preset("testbed-single"); }

Platform paper_platform_starpu_cpu() { return parse_preset("testbed-starpu"); }

Platform paper_platform_starpu_2gpu() { return parse_preset("testbed-starpu-2gpu"); }

Platform cell_be_platform() { return parse_preset("cell-be"); }

Platform manycore_platform(int workers) {
  Platform platform = parse_preset("manycore-1k");
  // The file's one Master controls one Worker, `minion`.
  platform.masters().front()->children().front()->set_quantity(workers);
  return platform;
}

Platform hierarchical_hybrid_platform() { return parse_preset("hierarchical"); }

}  // namespace pdl::discovery
