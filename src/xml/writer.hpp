// XML text output: Emitter streams markup into a string, and write() drives
// it over a Document/Element tree. pdl::serialize drives the same Emitter
// straight from a Platform, so both produce identical text.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "xml/dom.hpp"

namespace pdl::xml {

struct WriteOptions {
  bool pretty = true;        ///< Indent nested elements, one per line.
  int indent_width = 2;      ///< Spaces per nesting level when pretty.
  bool declaration = true;   ///< Emit <?xml version=... encoding=...?>.
};

/// Appends markup to a string. Each element is start(), any attribute()s,
/// then either end_empty(), or begin_content(), its content and end().
/// When pretty, elements with element children put each child on its own
/// indented line; text-only elements stay on one line.
class Emitter {
 public:
  Emitter(std::string& out, bool pretty, int indent_width = 2);

  void declaration(std::string_view version, std::string_view encoding);
  void start(std::string_view name);
  void attribute(std::string_view name, std::string_view value);
  /// Closes a start tag with no content: "/>".
  void end_empty();
  /// Closes a start tag whose content follows; `nested` when the content
  /// holds child elements.
  void begin_content(bool nested);
  void text(std::string_view text);
  void cdata(std::string_view text);
  void comment(std::string_view text);
  void processing_instruction(std::string_view text);
  void end(std::string_view name);

 private:
  bool nested_line() const { return pretty_ && !open_.empty() && open_.back(); }
  void indent(std::size_t depth);
  void newline_if_nested();

  std::string& out_;
  bool pretty_;
  std::size_t indent_width_;
  std::vector<bool> open_;  // per element with content: nested?
};

/// Serialize a whole document.
std::string write(const Document& doc, const WriteOptions& options = {});

/// Serialize a single element subtree (no declaration).
std::string write(const Element& element, const WriteOptions& options = {});

}  // namespace pdl::xml
