// Pull tokenizer for XML text: the one XML scanner of the toolchain.
//
// Reader walks a document once, front to back, and stops at each token:
// start tag, end tag, text, CDATA section, comment. It keeps the stack of
// open elements itself (no recursion, nesting is capped at kMaxDepth),
// hands out names, attribute values and text as views that stay valid
// until the next call to next(), and works out line:column only when a
// caller asks for a position. pdl::parse_platform reads a Platform straight
// from these tokens, and xml::Emitter (writer.hpp) writes the text back.
//
// Supported surface: XML declaration, comments, CDATA, processing
// instructions and DOCTYPE (both skipped), namespaced names, single- or
// double-quoted attributes, the five predefined entities and numeric
// character references. Errors carry 1-based line:column positions.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace pdl::xml {

/// Deepest element nesting a document may have. The PDL model and its
/// serializer walk the PU tree recursively; past this depth the reader fails
/// with a positioned error instead.
inline constexpr std::size_t kMaxDepth = 1024;

/// 1-based position in the source text.
struct SourcePos {
  int line = 0;
  int column = 0;
};

enum class Token {
  kStartElement,  ///< name(), attributes(); `<a/>` is followed by its kEndElement
  kEndElement,    ///< name() of the element that closed
  kText,          ///< text(): character data up to the next markup, entities decoded
  kCData,         ///< text(): content of a CDATA section
  kComment,       ///< text(): content of a comment
  kEnd,           ///< the document is complete and well-formed
  kError,         ///< error() holds the first problem; next() stays here
};

struct AttributeView {
  std::string_view name;   ///< Qualified name as written.
  std::string_view value;  ///< Entity-decoded value.
};

class Reader {
 public:
  /// `source_name` is the file part of error locations.
  explicit Reader(std::string_view text, std::string source_name = "<memory>");

  /// Advances to the next token.
  Token next();

  /// Element name of the current start or end tag.
  std::string_view name() const { return name_; }
  /// Attributes of the current start tag, in document order.
  const std::vector<AttributeView>& attributes() const { return attributes_; }
  /// Value of the current start tag's attribute `name`; nullopt if absent.
  std::optional<std::string_view> attribute(std::string_view name) const;
  /// Content of the current text, CDATA or comment token.
  std::string_view text() const { return text_; }

  /// Position of the current token's first byte (its '<' for markup).
  SourcePos pos() const { return position_of(token_begin_); }
  /// Open elements, counting the current start tag.
  std::size_t depth() const { return open_.size(); }

  /// Failure description; meaningful once next() returned kError.
  const util::Error& error() const { return error_; }
  /// Start tags whose name was read, the xml.nodes_parsed unit.
  std::size_t elements() const { return elements_; }
  std::size_t size() const { return input_.size(); }

 private:
  enum class State { kProlog, kContent, kEpilog, kDone, kFailed };

  bool at_end() const { return pos_ >= input_.size(); }
  char peek() const { return at_end() ? '\0' : input_[pos_]; }
  bool match(std::string_view s) const { return input_.substr(pos_, s.size()) == s; }
  void skip_ws();
  std::string_view read_name();
  /// Reads a quoted value at pos_; decoded bytes land at the end of
  /// scratch_. Returns false (error set) on failure.
  bool read_quoted(std::string_view& raw, std::size_t& decoded_from);

  Token fail(std::string message) { return fail_at(pos_, std::move(message)); }
  Token fail_at(std::size_t offset, std::string message);
  SourcePos position_of(std::size_t offset) const;

  Token read_prolog();
  /// Skips whitespace, comments, processing instructions and DOCTYPE.
  bool skip_misc();
  bool skip_doctype();
  bool skip_past(std::string_view terminator, std::size_t skip, const char* what);
  Token read_start_tag();
  Token read_end_tag();
  Token read_text();
  Token read_content();
  bool has_duplicate(std::string_view attribute_name);

  std::string_view input_;
  std::string source_name_;
  std::size_t pos_ = 0;
  State state_ = State::kProlog;
  bool pending_end_ = false;  // the current start tag was `<name .../>`

  std::size_t token_begin_ = 0;
  std::string_view name_;
  std::string_view text_;
  std::vector<AttributeView> attributes_;
  // Per attribute: [from, to) of its decoded value in scratch_; from is
  // npos when the value is a view of the input.
  std::vector<std::pair<std::size_t, std::size_t>> decoded_;
  std::string scratch_;  // decoded attribute values or text
  std::unordered_set<std::string_view> seen_;  // duplicate check, wide tags only
  std::vector<std::string_view> open_;

  std::size_t elements_ = 0;
  util::Error error_;

  // Forward-only line cursor behind position_of().
  mutable std::size_t line_scanned_ = 0;
  mutable std::size_t line_start_ = 0;
  mutable int line_ = 1;
};

/// Whether `name` is a name this reader accepts for elements/attributes.
bool is_name(std::string_view name);

/// Adds one finished read to the xml.* counters: xml.bytes_parsed,
/// xml.nodes_parsed, and xml.documents_parsed or xml.parse_errors.
void count_read(const Reader& reader, bool ok);

}  // namespace pdl::xml
