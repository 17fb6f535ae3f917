#include "xml/parser.hpp"

#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace pdl::xml {

util::Result<Document> parse(std::string_view text, const ParseOptions& options) {
  obs::Span span("xml.parse", options.source_name);
  Reader reader(text, options.source_name);
  std::unique_ptr<Element> root;
  std::vector<Element*> open;  // innermost last
  const auto append = [&](NodeKind kind) {
    auto node = std::make_unique<Node>(kind);
    node->set_text(std::string(reader.text()));
    node->set_pos(reader.pos());
    open.back()->append(std::move(node));
  };
  Token token;
  while ((token = reader.next()) != Token::kEnd && token != Token::kError) {
    switch (token) {
      case Token::kStartElement: {
        auto element = std::make_unique<Element>(std::string(reader.name()));
        element->set_pos(reader.pos());
        for (const auto& a : reader.attributes()) element->append_attribute(a.name, a.value);
        Element* raw = element.get();
        if (open.empty()) {
          root = std::move(element);
        } else {
          open.back()->append(std::move(element));
        }
        open.push_back(raw);
        break;
      }
      case Token::kEndElement:
        open.pop_back();
        break;
      case Token::kText:
        if (options.keep_whitespace_text || !util::trim(reader.text()).empty()) {
          open.back()->append_text(std::string(reader.text()));
        }
        break;
      case Token::kCData:
        append(NodeKind::kCData);
        break;
      case Token::kComment:
        if (options.keep_comments) append(NodeKind::kComment);
        break;
      case Token::kEnd:
      case Token::kError:
        break;
    }
  }
  count_read(reader, token == Token::kEnd);
  if (token == Token::kError) return reader.error();
  Document doc;
  doc.set_declaration(reader.xml_version(), reader.encoding());
  doc.set_root(std::move(root));
  return doc;
}

util::Result<Document> parse_file(const std::string& path, ParseOptions options) {
  auto contents = util::read_file(path);
  if (!contents) {
    return util::Error{"cannot open file", path};
  }
  if (options.source_name == "<memory>") options.source_name = path;
  return parse(*contents, options);
}

}  // namespace pdl::xml
