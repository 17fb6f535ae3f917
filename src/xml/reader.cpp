#include "xml/reader.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace pdl::xml {

namespace {

constexpr std::size_t kNone = std::string_view::npos;

/// Name classes by byte: ASCII letters, '_' and ':' start a name; digits,
/// '-' and '.' may follow. Bytes >= 0x80 are never name characters.
struct NameTable {
  bool start[256] = {};
  bool part[256] = {};
  constexpr NameTable() {
    for (int c = 0; c < 256; ++c) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      const bool digit = c >= '0' && c <= '9';
      start[c] = alpha || c == '_' || c == ':';
      part[c] = start[c] || digit || c == '-' || c == '.';
    }
  }
};
constexpr NameTable kNames;

bool name_start(char c) { return kNames.start[static_cast<unsigned char>(c)]; }
bool name_part(char c) { return kNames.part[static_cast<unsigned char>(c)]; }

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

bool contains(std::string_view s, char c) {
  return !s.empty() && std::memchr(s.data(), c, s.size()) != nullptr;
}

/// UTF-8 encode a code point (PDL values may contain arbitrary text).
void append_utf8(std::string& out, unsigned long cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Appends `text` to `out` with entities and character references decoded;
/// returns the error message when one is malformed.
std::optional<std::string> append_decoded(std::string_view text, std::string& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t amp = text.find('&', i);
    out.append(text.substr(i, amp - i));
    if (amp == kNone) break;
    const auto semi = text.find(';', amp + 1);
    if (semi == kNone) return "unterminated entity reference";
    const std::string_view entity = text.substr(amp + 1, semi - amp - 1);
    if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "amp") {
      out += '&';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      std::string_view digits = entity.substr(1);
      int base = 10;
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return "empty character reference";
      unsigned long cp = 0;
      for (char d : digits) {
        int v;
        if (d >= '0' && d <= '9') {
          v = d - '0';
        } else if (base == 16 && d >= 'a' && d <= 'f') {
          v = d - 'a' + 10;
        } else if (base == 16 && d >= 'A' && d <= 'F') {
          v = d - 'A' + 10;
        } else {
          return "malformed character reference '&" + std::string(entity) + ";'";
        }
        cp = cp * static_cast<unsigned long>(base) + static_cast<unsigned long>(v);
        if (cp > 0x10FFFF) return "character reference out of range";
      }
      // XML 1.0 forbids U+0000; UTF-16 surrogates (D800–DFFF) are not
      // Unicode scalar values and would encode as invalid UTF-8 that fails
      // to round-trip through the writer.
      if (cp == 0) return "character reference to U+0000";
      if (cp >= 0xD800 && cp <= 0xDFFF) {
        return "character reference to UTF-16 surrogate '&" + std::string(entity) + ";'";
      }
      append_utf8(out, cp);
    } else {
      return "unknown entity '&" + std::string(entity) + ";'";
    }
    i = semi + 1;
  }
  return std::nullopt;
}

}  // namespace

Reader::Reader(std::string_view text, std::string source_name)
    : input_(text), source_name_(std::move(source_name)) {}

std::optional<std::string_view> Reader::attribute(std::string_view attr_name) const {
  for (const auto& a : attributes_) {
    if (a.name == attr_name) return a.value;
  }
  return std::nullopt;
}

Token Reader::next() {
  if (pending_end_) {
    pending_end_ = false;
    open_.pop_back();
    if (open_.empty()) state_ = State::kEpilog;
    return Token::kEndElement;
  }
  switch (state_) {
    case State::kProlog: return read_prolog();
    case State::kContent: return read_content();
    case State::kEpilog:
      if (!skip_misc()) return Token::kError;
      if (!at_end()) return fail("content after root element");
      state_ = State::kDone;
      return Token::kEnd;
    case State::kDone: return Token::kEnd;
    case State::kFailed: break;
  }
  return Token::kError;
}

// --- Input primitives -----------------------------------------------------

void Reader::skip_ws() {
  while (!at_end() && is_ws(input_[pos_])) ++pos_;
}

std::string_view Reader::read_name() {
  const std::size_t begin = pos_;
  if (at_end() || !name_start(input_[pos_])) return {};
  ++pos_;
  while (!at_end() && name_part(input_[pos_])) ++pos_;
  return input_.substr(begin, pos_ - begin);
}

bool Reader::read_quoted(std::string_view& raw, std::size_t& decoded_from) {
  const char quote = peek();
  if (quote != '"' && quote != '\'') {
    fail("expected quoted value");
    return false;
  }
  const std::size_t begin = ++pos_;
  const std::size_t close = input_.find(quote, begin);
  const std::size_t end = close == kNone ? input_.size() : close;
  raw = input_.substr(begin, end - begin);
  if (const std::size_t lt = raw.find('<'); lt != kNone) {
    fail_at(begin + lt, "'<' not allowed in attribute value");
    return false;
  }
  if (close == kNone) {
    fail_at(input_.size(), "unterminated attribute value");
    return false;
  }
  pos_ = close + 1;
  decoded_from = kNone;
  if (contains(raw, '&')) {
    decoded_from = scratch_.size();
    if (auto message = append_decoded(raw, scratch_)) {
      fail(std::move(*message));
      return false;
    }
  }
  return true;
}

Token Reader::fail_at(std::size_t offset, std::string message) {
  state_ = State::kFailed;
  const SourcePos at = position_of(offset);
  error_ = util::Error{std::move(message),
                       util::location_string(source_name_, at.line, at.column)};
  return Token::kError;
}

SourcePos Reader::position_of(std::size_t offset) const {
  if (offset < line_scanned_) {
    line_scanned_ = 0;
    line_start_ = 0;
    line_ = 1;
  }
  const char* base = input_.data();
  const char* p = base + line_scanned_;
  const char* const end = base + offset;
  while (p < end) {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    if (nl == nullptr) break;
    p = static_cast<const char*>(nl) + 1;
    ++line_;
    line_start_ = static_cast<std::size_t>(p - base);
  }
  line_scanned_ = offset;
  return SourcePos{line_, static_cast<int>(offset - line_start_ + 1)};
}

// --- Grammar --------------------------------------------------------------

Token Reader::read_prolog() {
  skip_ws();
  if (match("<?xml")) {
    // The declaration's pseudo-attributes are checked, not kept.
    pos_ += 5;
    while (!at_end() && !match("?>")) {
      skip_ws();
      if (match("?>")) break;
      if (read_name().empty()) return fail("malformed XML declaration");
      skip_ws();
      if (peek() != '=') return fail("expected '=' in XML declaration");
      ++pos_;
      skip_ws();
      std::string_view value;
      std::size_t decoded_from = kNone;
      if (!read_quoted(value, decoded_from)) return Token::kError;
    }
    if (!match("?>")) return fail("unterminated XML declaration");
    pos_ += 2;
  }
  if (!skip_misc()) return Token::kError;
  if (at_end()) return fail("document has no root element");
  if (peek() != '<') return fail("expected '<' before root element");
  state_ = State::kContent;
  token_begin_ = pos_;
  return read_start_tag();
}

bool Reader::skip_misc() {
  while (true) {
    skip_ws();
    if (match("<!--")) {
      if (!skip_past("-->", 4, "unterminated comment")) return false;
    } else if (match("<?")) {
      if (!skip_past("?>", 2, "unterminated processing instruction")) return false;
    } else if (match("<!DOCTYPE")) {
      if (!skip_doctype()) return false;
    } else {
      return true;
    }
  }
}

bool Reader::skip_doctype() {
  // Up to the '>' that closes it, past an optional internal subset. Quoted
  // literals, comments and processing instructions may hold '[', ']' and
  // '>' of their own, so each is skipped whole.
  constexpr const char* kUnterminated = "unterminated DOCTYPE";
  pos_ += 9;  // "<!DOCTYPE"
  int bracket_depth = 0;
  while (!at_end()) {
    const char c = input_[pos_];
    if (c == '"' || c == '\'') {
      if (!skip_past(input_.substr(pos_, 1), 1, kUnterminated)) return false;
    } else if (match("<!--")) {
      if (!skip_past("-->", 4, kUnterminated)) return false;
    } else if (match("<?")) {
      if (!skip_past("?>", 2, kUnterminated)) return false;
    } else {
      ++pos_;
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return true;
    }
  }
  fail(kUnterminated);
  return false;
}

bool Reader::skip_past(std::string_view terminator, std::size_t skip, const char* what) {
  pos_ += skip;
  const std::size_t end = input_.find(terminator, pos_);
  if (end == kNone) {
    fail(what);
    return false;
  }
  pos_ = end + terminator.size();
  return true;
}

Token Reader::read_content() {
  while (true) {
    if (at_end()) return fail("unterminated element <" + std::string(open_.back()) + ">");
    if (input_[pos_] != '<') return read_text();
    token_begin_ = pos_;
    if (match("</")) return read_end_tag();
    if (match("<!--") || match("<![CDATA[")) {
      const bool comment = input_[pos_ + 2] == '-';
      const std::size_t begin = pos_ + (comment ? 4 : 9);
      const std::size_t end = input_.find(comment ? "-->" : "]]>", begin);
      if (end == kNone) {
        return fail_at(begin, comment ? "unterminated comment" : "unterminated CDATA section");
      }
      text_ = input_.substr(begin, end - begin);
      pos_ = end + 3;
      return comment ? Token::kComment : Token::kCData;
    }
    if (match("<?")) {
      if (!skip_past("?>", 2, "unterminated processing instruction")) return Token::kError;
      continue;
    }
    return read_start_tag();
  }
}

Token Reader::read_text() {
  token_begin_ = pos_;
  const std::size_t end = input_.find('<', pos_);
  if (end == kNone) {
    return fail_at(input_.size(), "unterminated element <" + std::string(open_.back()) + ">");
  }
  text_ = input_.substr(pos_, end - pos_);
  pos_ = end;
  if (contains(text_, '&')) {
    // A malformed reference is reported where the text ends.
    scratch_.clear();
    if (auto message = append_decoded(text_, scratch_)) return fail(std::move(*message));
    text_ = scratch_;
  }
  return Token::kText;
}

Token Reader::read_start_tag() {
  ++pos_;  // '<'
  name_ = read_name();
  if (name_.empty()) return fail("expected element name");
  ++elements_;
  if (open_.size() >= kMaxDepth) {
    return fail_at(token_begin_, "elements nested deeper than " +
                                     std::to_string(kMaxDepth) + " levels");
  }
  attributes_.clear();
  decoded_.clear();
  scratch_.clear();
  if (!seen_.empty()) seen_.clear();
  while (true) {
    skip_ws();
    if (at_end()) return fail("unterminated start tag for <" + std::string(name_) + ">");
    if (input_[pos_] == '>') {
      ++pos_;
      break;
    }
    if (match("/>")) {
      pos_ += 2;
      pending_end_ = true;
      break;
    }
    const std::string_view attr = read_name();
    if (attr.empty()) {
      return fail("expected attribute name in <" + std::string(name_) + ">");
    }
    skip_ws();
    if (peek() != '=') return fail("expected '=' after attribute '" + std::string(attr) + "'");
    ++pos_;
    skip_ws();
    std::string_view value;
    std::size_t decoded_from = kNone;
    if (!read_quoted(value, decoded_from)) return Token::kError;
    if (has_duplicate(attr)) {
      return fail("duplicate attribute '" + std::string(attr) + "' in <" +
                  std::string(name_) + ">");
    }
    attributes_.push_back(AttributeView{attr, value});
    decoded_.emplace_back(decoded_from, scratch_.size());
  }
  // scratch_ is complete: point decoded values into it.
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    const auto [from, to] = decoded_[i];
    if (from != kNone) attributes_[i].value = std::string_view(scratch_).substr(from, to - from);
  }
  open_.push_back(name_);
  return Token::kStartElement;
}

bool Reader::has_duplicate(std::string_view attr) {
  // Tags with a handful of attributes scan; wide ones switch to a hash set
  // so n attributes cost O(n), not O(n^2).
  constexpr std::size_t kLinearScan = 16;
  if (attributes_.size() < kLinearScan) {
    for (const auto& a : attributes_) {
      if (a.name == attr) return true;
    }
    return false;
  }
  if (seen_.empty()) {
    for (const auto& a : attributes_) seen_.insert(a.name);
  }
  return !seen_.insert(attr).second;
}

Token Reader::read_end_tag() {
  pos_ += 2;  // "</"
  name_ = read_name();
  skip_ws();
  if (peek() != '>') return fail("malformed end tag for </" + std::string(name_) + ">");
  ++pos_;
  if (name_ != open_.back()) {
    return fail("mismatched end tag: expected </" + std::string(open_.back()) + ">, got </" +
                std::string(name_) + ">");
  }
  open_.pop_back();
  if (open_.empty()) state_ = State::kEpilog;
  return Token::kEndElement;
}

bool is_name(std::string_view name) {
  if (name.empty() || !name_start(name[0])) return false;
  for (const char c : name) {
    if (!name_part(c)) return false;
  }
  return true;
}

void count_read(const Reader& reader, bool ok) {
  static obs::Counter& documents = obs::counter("xml.documents_parsed");
  static obs::Counter& nodes = obs::counter("xml.nodes_parsed");
  static obs::Counter& bytes = obs::counter("xml.bytes_parsed");
  static obs::Counter& errors = obs::counter("xml.parse_errors");
  bytes.inc(reader.size());
  nodes.inc(reader.elements());
  (ok ? documents : errors).inc();
}

}  // namespace pdl::xml
