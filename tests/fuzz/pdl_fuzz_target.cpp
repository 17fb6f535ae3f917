#include "fuzz/pdl_fuzz_target.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "xml/reader.hpp"

namespace pdl::fuzz {

namespace {

/// Walks `input` with an xml::Reader and checks every token against the
/// open start tags seen so far.
std::string check_tokens(std::string_view input) {
  xml::Reader reader(input);
  std::vector<std::string> open;  // innermost last
  xml::SourcePos last{1, 1};
  while (true) {
    const xml::Token token = reader.next();
    if (token == xml::Token::kError) {
      return reader.error().message.empty() ? "xml::Reader failed without a message" : "";
    }
    switch (token) {
      case xml::Token::kStartElement:
        open.emplace_back(reader.name());
        break;
      case xml::Token::kEndElement:
        if (open.empty() || open.back() != reader.name()) {
          return "end tag </" + std::string(reader.name()) +
                 "> does not close the innermost open start tag";
        }
        open.pop_back();
        break;
      case xml::Token::kText:
      case xml::Token::kCData:
      case xml::Token::kComment:
        if (reader.depth() < 1) return "content token outside the root element";
        break;
      case xml::Token::kEnd:
        if (!open.empty() || reader.depth() != 0) return "kEnd with an element still open";
        return {};
      case xml::Token::kError:
        break;
    }
    if (reader.depth() != open.size()) {
      return "depth() is " + std::to_string(reader.depth()) + " with " +
             std::to_string(open.size()) + " start tags open";
    }
    const xml::SourcePos pos = reader.pos();
    if (pos.line < last.line || (pos.line == last.line && pos.column < last.column)) {
      return "pos() moved backwards";
    }
    last = pos;
  }
}

std::string check(std::string_view input) {
  if (std::string finding = check_tokens(input); !finding.empty()) return finding;

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
