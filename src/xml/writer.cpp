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

bool has_element_children(const Element& e) {
  for (const auto& c : e.children()) {
    if (c->is_element()) return true;
  }
  return false;
}

void write_element(Emitter& emit, const Element& e) {
  emit.start(e.name());
  for (const auto& a : e.attributes()) emit.attribute(a.name, a.value);
  if (e.children().empty()) {
    emit.end_empty();
    return;
  }
  emit.begin_content(has_element_children(e));
  for (const auto& c : e.children()) {
    switch (c->kind()) {
      case NodeKind::kElement: write_element(emit, *c->as_element()); break;
      case NodeKind::kText: emit.text(c->text()); break;
      case NodeKind::kCData: emit.cdata(c->text()); break;
      case NodeKind::kComment: emit.comment(c->text()); break;
      case NodeKind::kProcInstr: emit.processing_instruction(c->text()); break;
    }
  }
  emit.end(e.name());
}

}  // namespace

Emitter::Emitter(std::string& out, bool pretty, int indent_width)
    : out_(out), pretty_(pretty), indent_width_(static_cast<std::size_t>(indent_width)) {}

void Emitter::indent(std::size_t depth) { out_.append(depth * indent_width_, ' '); }

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

void Emitter::cdata(std::string_view text) {
  out_ += "<![CDATA[";
  out_ += text;
  out_ += "]]>";
  newline_if_nested();
}

void Emitter::comment(std::string_view text) {
  if (nested_line()) indent(open_.size());
  out_ += "<!--";
  out_ += text;
  out_ += "-->";
  newline_if_nested();
}

void Emitter::processing_instruction(std::string_view text) {
  out_ += "<?";
  out_ += text;
  out_ += "?>";
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

std::string write(const Document& doc, const WriteOptions& options) {
  std::string out;
  Emitter emit(out, options.pretty, options.indent_width);
  if (options.declaration) emit.declaration(doc.xml_version(), doc.encoding());
  if (doc.root() != nullptr) write_element(emit, *doc.root());
  return out;
}

std::string write(const Element& element, const WriteOptions& options) {
  std::string out;
  Emitter emit(out, options.pretty, options.indent_width);
  write_element(emit, element);
  return out;
}

}  // namespace pdl::xml
