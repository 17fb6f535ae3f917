// PDL document parsing: XML text -> pdl::Platform.
//
// Accepted document shapes (both appear in the paper):
//   * a <Platform> root wrapping one or more <Master> elements, or
//   * a bare <Master> root (paper Listing 1).
//
// Parse errors (malformed XML, wrong element structure) fail the Result;
// recoverable issues (unknown elements, missing optional attributes) are
// appended to the Diagnostics out-parameter so tools can surface them. A
// malformed document appends nothing: its XML error is the whole report.
// The text is read in one pass of xml::Reader tokens, without a DOM.
#pragma once

#include <string>
#include <string_view>

#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "util/result.hpp"

namespace pdl {

/// Parse a platform from PDL XML text. `source_name` becomes the file part
/// of every diagnostic location and of the model entities' SourceLocs.
util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags,
                                      std::string source_name);
util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags);

/// Parse a platform from a PDL file (locations carry `path`).
util::Result<Platform> parse_platform_file(const std::string& path, Diagnostics& diags);

/// Convenience overloads that discard diagnostics.
util::Result<Platform> parse_platform(std::string_view xml_text);
util::Result<Platform> parse_platform_file(const std::string& path);

}  // namespace pdl
