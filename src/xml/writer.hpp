// XML text output: Emitter streams markup into a string. pdl::serialize
// drives it straight from a Platform, and xml::Reader (reader.hpp) reads
// the text back.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pdl::xml {

/// Appends markup to a string. Each element is start(), any attribute()s,
/// then either end_empty(), or begin_content(), its content and end().
/// When pretty, elements with element children put each child on its own
/// line, indented two spaces per level; text-only elements stay on one line.
class Emitter {
 public:
  Emitter(std::string& out, bool pretty);

  void declaration(std::string_view version, std::string_view encoding);
  void start(std::string_view name);
  void attribute(std::string_view name, std::string_view value);
  /// Closes a start tag with no content: "/>".
  void end_empty();
  /// Closes a start tag whose content follows; `nested` when the content
  /// holds child elements.
  void begin_content(bool nested);
  void text(std::string_view text);
  void end(std::string_view name);

 private:
  bool nested_line() const { return pretty_ && !open_.empty() && open_.back(); }
  void indent(std::size_t depth);
  void newline_if_nested();

  std::string& out_;
  bool pretty_;
  std::vector<bool> open_;  // per element with content: nested?
};

}  // namespace pdl::xml
