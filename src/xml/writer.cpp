#include "xml/writer.hpp"

namespace pdl::xml {

namespace {

/// Appends `text` with the characters markup needs escaped: &, <, > always;
/// in attribute values also '"', newline and tab.
void append_escaped(std::string& out, std::string_view text, bool attribute) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char* entity;
    switch (text[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = attribute ? "&quot;" : nullptr; break;
      case '\n': entity = attribute ? "&#10;" : nullptr; break;
      case '\t': entity = attribute ? "&#9;" : nullptr; break;
      default: entity = nullptr;
    }
    if (entity == nullptr) continue;
    out.append(text.substr(run, i - run));
    out += entity;
    run = i + 1;
  }
  out.append(text.substr(run));
}

}  // namespace

Emitter::Emitter(std::string& out, bool pretty) : out_(out), pretty_(pretty) {}

void Emitter::indent(std::size_t depth) {
  constexpr std::size_t kIndentWidth = 2;
  out_.append(depth * kIndentWidth, ' ');
}

void Emitter::newline_if_nested() {
  if (nested_line()) out_ += '\n';
}

void Emitter::declaration(std::string_view version, std::string_view encoding) {
  out_ += "<?xml version=\"";
  out_ += version;
  out_ += "\" encoding=\"";
  out_ += encoding;
  out_ += "\"?>";
  if (pretty_) out_ += '\n';
}

void Emitter::start(std::string_view name) {
  if (pretty_) indent(open_.size());
  out_ += '<';
  out_ += name;
}

void Emitter::attribute(std::string_view name, std::string_view value) {
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  append_escaped(out_, value, true);
  out_ += '"';
}

void Emitter::end_empty() {
  out_ += "/>";
  if (pretty_) out_ += '\n';
}

void Emitter::begin_content(bool nested) {
  out_ += '>';
  open_.push_back(nested);
  newline_if_nested();
}

void Emitter::text(std::string_view text) {
  if (nested_line()) indent(open_.size());
  append_escaped(out_, text, false);
  newline_if_nested();
}

void Emitter::end(std::string_view name) {
  const bool nested = nested_line();
  open_.pop_back();
  if (nested) indent(open_.size());
  out_ += "</";
  out_ += name;
  out_ += '>';
  if (pretty_) out_ += '\n';
}

}  // namespace pdl::xml
