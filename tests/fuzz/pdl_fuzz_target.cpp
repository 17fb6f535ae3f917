#include "fuzz/pdl_fuzz_target.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "xml/parser.hpp"

namespace pdl::fuzz {

namespace {

std::string check(std::string_view input) {
  auto doc = xml::parse(input);
  if (!doc && doc.error().message.empty()) return "xml::parse failed without a message";

  Diagnostics diags;
  auto platform = parse_platform(input, diags);
  if (!platform) {
    if (platform.error().message.empty()) return "parse_platform failed without a message";
    return {};
  }
  validate(platform.value(), diags);

  for (const bool pretty : {true, false}) {
    for (const bool bare : {false, true}) {
      SerializeOptions options;
      options.pretty = pretty;
      options.bare_master_root = bare;
      const std::string first = serialize(platform.value(), options);
      Diagnostics again_diags;
      auto again = parse_platform(first, again_diags);
      const std::string label = std::string(" (pretty=") + (pretty ? "1" : "0") +
                                ", bare_master_root=" + (bare ? "1" : "0") + ")";
      if (!again) {
        return "serialized platform does not parse: " + again.error().str() + label;
      }
      if (serialize(again.value(), options) != first) {
        return "serialize(parse(serialize(p))) != serialize(p)" + label;
      }
    }
  }
  return {};
}

}  // namespace

std::string check_pdl_input(std::string_view input) {
  try {
    return check(input);
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  } catch (...) {
    return "threw a non-standard exception";
  }
}

}  // namespace pdl::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string finding = pdl::fuzz::check_pdl_input(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (!finding.empty()) {
    std::fprintf(stderr, "pdl fuzz finding: %s\n", finding.c_str());
    std::abort();
  }
  return 0;
}
