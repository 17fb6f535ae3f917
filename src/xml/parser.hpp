// XML text -> pdl::xml::Document, built from xml::Reader's tokens.
//
// Accepts what Reader accepts (see xml/reader.hpp); errors carry 1-based
// line:column positions.
#pragma once

#include <string>
#include <string_view>

#include "util/result.hpp"
#include "xml/dom.hpp"
#include "xml/reader.hpp"

namespace pdl::xml {

struct ParseOptions {
  /// Keep whitespace-only text nodes (default: dropped — PDL is data XML).
  bool keep_whitespace_text = false;
  /// Keep comment nodes in the tree.
  bool keep_comments = false;
  /// Name used in error locations ("<memory>" when parsing from a string).
  std::string source_name = "<memory>";
};

/// Parse a complete document from text.
util::Result<Document> parse(std::string_view text, const ParseOptions& options = {});

/// Parse a document from a file on disk.
util::Result<Document> parse_file(const std::string& path, ParseOptions options = {});

}  // namespace pdl::xml
