#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "xml/reader.hpp"
#include "xml/writer.hpp"

namespace pdl::xml {
namespace {

/// Reads `text` with the Reader and writes it back through an Emitter, with
/// a declaration: elements, attributes and the text of every text or CDATA
/// token that is not all whitespace. Comments are dropped.
std::string rewrite(std::string_view text, bool pretty) {
  struct Item {
    Token token;
    std::string name_or_text;
    std::vector<std::pair<std::string, std::string>> attributes;
  };
  std::vector<Item> items;
  Reader reader(text);
  for (Token token = reader.next(); token != Token::kEnd; token = reader.next()) {
    if (token == Token::kError) {
      ADD_FAILURE() << reader.error().str();
      return {};
    }
    if (token == Token::kStartElement) {
      Item item{token, std::string(reader.name()), {}};
      for (const auto& a : reader.attributes()) {
        item.attributes.emplace_back(std::string(a.name), std::string(a.value));
      }
      items.push_back(std::move(item));
    } else if (token == Token::kEndElement) {
      items.push_back({token, std::string(reader.name()), {}});
    } else if (token != Token::kComment &&
               reader.text().find_first_not_of(" \t\r\n") != std::string_view::npos) {
      items.push_back({Token::kText, std::string(reader.text()), {}});
    }
  }

  std::string out;
  Emitter emit(out, pretty);
  emit.declaration("1.0", "UTF-8");
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    switch (item.token) {
      case Token::kStartElement: {
        emit.start(item.name_or_text);
        for (const auto& [name, value] : item.attributes) emit.attribute(name, value);
        if (items[i + 1].token == Token::kEndElement) {
          emit.end_empty();
          ++i;
          break;
        }
        // Nested when a child start tag comes before this element's end tag.
        bool nested = false;
        for (std::size_t j = i + 1; j < items.size(); ++j) {
          if (items[j].token == Token::kEndElement) break;
          if (items[j].token == Token::kStartElement) {
            nested = true;
            break;
          }
        }
        emit.begin_content(nested);
        break;
      }
      case Token::kEndElement: emit.end(item.name_or_text); break;
      default: emit.text(item.name_or_text); break;
    }
  }
  return out;
}

TEST(XmlWriter, WritesEmptyElementSelfClosing) {
  std::string out;
  Emitter emit(out, /*pretty=*/false);
  emit.start("root");
  emit.end_empty();
  EXPECT_EQ(out, "<root/>");
}

TEST(XmlWriter, WritesDeclaration) {
  std::string out;
  Emitter emit(out, /*pretty=*/true);
  emit.declaration("1.0", "UTF-8");
  emit.start("r");
  emit.end_empty();
  EXPECT_EQ(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r/>\n");
}

TEST(XmlWriter, EscapesTextAndAttributes) {
  std::string out;
  Emitter emit(out, /*pretty=*/false);
  emit.start("r");
  emit.attribute("a", "x\"<>&y");
  emit.begin_content(/*nested=*/false);
  emit.text("1 < 2 & 3 > 2");
  emit.end("r");
  EXPECT_EQ(out, "<r a=\"x&quot;&lt;&gt;&amp;y\">1 &lt; 2 &amp; 3 &gt; 2</r>");
}

TEST(XmlWriter, PrettyPrintsNestedElements) {
  std::string out;
  Emitter emit(out, /*pretty=*/true);
  emit.start("a");
  emit.begin_content(/*nested=*/true);
  emit.start("b");
  emit.begin_content(/*nested=*/true);
  emit.start("c");
  emit.end_empty();
  emit.end("b");
  emit.end("a");
  EXPECT_EQ(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
}

TEST(XmlWriter, LeafTextStaysInline) {
  std::string out;
  Emitter emit(out, /*pretty=*/true);
  emit.start("a");
  emit.begin_content(/*nested=*/true);
  emit.start("name");
  emit.begin_content(/*nested=*/false);
  emit.text("value");
  emit.end("name");
  emit.end("a");
  EXPECT_EQ(out, "<a>\n  <name>value</name>\n</a>\n");
}

TEST(XmlWriter, CompactModeHasNoWhitespace) {
  std::string out;
  Emitter emit(out, /*pretty=*/false);
  emit.start("a");
  emit.begin_content(/*nested=*/true);
  emit.start("b");
  emit.begin_content(/*nested=*/false);
  emit.text("t");
  emit.end("b");
  emit.end("a");
  EXPECT_EQ(out, "<a><b>t</b></a>");
}

TEST(XmlWriter, RoundTripPreservesStructure) {
  const char* kInput = R"(<platform name="p&amp;q" version="1.0">
    <Master id="0" quantity="1">
      <!-- dropped -->
      <PUDescriptor>
        <Property fixed="true"><name>ARCH</name><value><![CDATA[x86]]></value></Property>
      </PUDescriptor>
      <Worker id="1"><PUDescriptor/></Worker>
    </Master>
  </platform>)";
  const std::string written = rewrite(kInput, /*pretty=*/true);
  EXPECT_EQ(written,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<platform name=\"p&amp;q\" version=\"1.0\">\n"
            "  <Master id=\"0\" quantity=\"1\">\n"
            "    <PUDescriptor>\n"
            "      <Property fixed=\"true\">\n"
            "        <name>ARCH</name>\n"
            "        <value>x86</value>\n"
            "      </Property>\n"
            "    </PUDescriptor>\n"
            "    <Worker id=\"1\">\n"
            "      <PUDescriptor/>\n"
            "    </Worker>\n"
            "  </Master>\n"
            "</platform>\n");
  // Read back, the pretty and compact texts hold the same document.
  EXPECT_EQ(rewrite(written, /*pretty=*/false), rewrite(kInput, /*pretty=*/false));
}

TEST(XmlWriter, AttributeControlCharactersRoundTrip) {
  std::string out;
  Emitter emit(out, /*pretty=*/true);
  emit.declaration("1.0", "UTF-8");
  emit.start("e");
  emit.attribute("a", "line1\nline2\tend");
  emit.end_empty();
  Reader reader(out);
  ASSERT_EQ(reader.next(), Token::kStartElement) << reader.error().str();
  EXPECT_EQ(reader.attribute("a"), "line1\nline2\tend");
}

TEST(XmlWriter, RoundTripIsIdempotent) {
  const std::string once = rewrite("<a x=\"1\"><b>text</b><c/></a>", /*pretty=*/true);
  EXPECT_EQ(rewrite(once, /*pretty=*/true), once);
}

}  // namespace
}  // namespace pdl::xml
