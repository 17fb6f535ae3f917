// Token dump of xml::Reader for tests: a whole walk as one string, so one
// comparison checks every token, its position and how the walk ended.
#pragma once

#include <string>
#include <string_view>

#include "xml/reader.hpp"

namespace pdl::testing_util {

/// Appends `s` in double quotes, with '"', '\\' and whitespace controls
/// escaped so each token stays on one line.
inline void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

/// Walks `text` with an xml::Reader and prints one line per token: its
/// kind, the element name or the quoted text, a start tag's attributes and
/// the token's line:column, e.g. `start e a="1" @1:1`. The last line is
/// `eof` when the document is complete, else the error's `where: message`.
inline std::string dump_tokens(std::string_view text) {
  xml::Reader reader(text);
  std::string out;
  while (true) {
    const xml::Token token = reader.next();
    switch (token) {
      case xml::Token::kStartElement:
        out += "start ";
        out += reader.name();
        for (const auto& a : reader.attributes()) {
          out += ' ';
          out += a.name;
          out += '=';
          append_quoted(out, a.value);
        }
        break;
      case xml::Token::kEndElement:
        out += "end ";
        out += reader.name();
        break;
      case xml::Token::kText:
      case xml::Token::kCData:
      case xml::Token::kComment:
        out += token == xml::Token::kText    ? "text "
               : token == xml::Token::kCData ? "cdata "
                                             : "comment ";
        append_quoted(out, reader.text());
        break;
      case xml::Token::kEnd:
        return out + "eof\n";
      case xml::Token::kError:
        return out + reader.error().str() + "\n";
    }
    const xml::SourcePos pos = reader.pos();
    out += " @" + std::to_string(pos.line) + ":" + std::to_string(pos.column) + "\n";
  }
}

}  // namespace pdl::testing_util
