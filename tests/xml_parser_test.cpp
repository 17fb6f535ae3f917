#include <gtest/gtest.h>

#include "time_per_byte.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"

namespace pdl::xml {
namespace {

TEST(XmlParser, ParsesMinimalDocument) {
  auto doc = parse("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.error().str();
  ASSERT_NE(doc.value().root(), nullptr);
  EXPECT_EQ(doc.value().root()->name(), "root");
  EXPECT_TRUE(doc.value().root()->children().empty());
}

TEST(XmlParser, ParsesDeclaration) {
  auto doc = parse("<?xml version=\"1.1\" encoding=\"ISO-8859-1\"?><r/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().xml_version(), "1.1");
  EXPECT_EQ(doc.value().encoding(), "ISO-8859-1");
}

TEST(XmlParser, ParsesNestedElementsInOrder) {
  auto doc = parse("<a><b/><c><d/></c><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Element* a = doc.value().root();
  const auto children = a->child_elements();
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0]->name(), "b");
  EXPECT_EQ(children[1]->name(), "c");
  EXPECT_EQ(children[2]->name(), "b");
  ASSERT_NE(children[1]->first_child("d"), nullptr);
}

TEST(XmlParser, ParsesAttributesWithBothQuoteStyles) {
  auto doc = parse(R"(<e a="1" b='two' c=""/>)");
  ASSERT_TRUE(doc.ok());
  const Element* e = doc.value().root();
  EXPECT_EQ(e->attribute("a"), "1");
  EXPECT_EQ(e->attribute("b"), "two");
  EXPECT_EQ(e->attribute("c"), "");
  EXPECT_FALSE(e->attribute("missing").has_value());
  EXPECT_EQ(e->attribute_or("missing", "dflt"), "dflt");
}

TEST(XmlParser, RejectsDuplicateAttributes) {
  auto doc = parse(R"(<e a="1" a="2"/>)");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("duplicate attribute"), std::string::npos);
}

TEST(XmlParser, DecodesTextEntities) {
  auto doc = parse("<e>a &lt;&amp;&gt; b &quot;q&quot; &apos;s&apos;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->text_content(), "a <&> b \"q\" 's'");
}

TEST(XmlParser, DecodesNumericCharacterReferences) {
  auto doc = parse("<e>&#65;&#x42;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->text_content(), "AB");
}

TEST(XmlParser, DecodesUtf8CharacterReference) {
  auto doc = parse("<e>&#xE9;</e>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->text_content(), "\xC3\xA9");
}

TEST(XmlParser, RejectsUnknownEntity) {
  auto doc = parse("<e>&unknown;</e>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("unknown entity"), std::string::npos);
}

TEST(XmlParser, ParsesCData) {
  auto doc = parse("<e><![CDATA[<not-parsed> & raw]]></e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->text_content(), "<not-parsed> & raw");
}

TEST(XmlParser, SkipsCommentsByDefault) {
  auto doc = parse("<e><!-- hidden --><f/></e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->children().size(), 1u);
}

TEST(XmlParser, KeepsCommentsWhenAsked) {
  ParseOptions options;
  options.keep_comments = true;
  auto doc = parse("<e><!-- hidden --></e>", options);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().root()->children().size(), 1u);
  EXPECT_EQ(doc.value().root()->children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(doc.value().root()->children()[0]->text(), " hidden ");
}

TEST(XmlParser, SkipsDoctypeAndProcessingInstructions) {
  auto doc = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE root [ <!ENTITY x \"y\"> ]>\n"
      "<?pi data?>\n"
      "<root><?inner pi?></root>");
  ASSERT_TRUE(doc.ok()) << doc.error().str();
  EXPECT_EQ(doc.value().root()->name(), "root");
}

TEST(XmlParser, ReportsMismatchedTagsWithLocation) {
  auto doc = parse("<a>\n  <b>\n  </c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("mismatched end tag"), std::string::npos);
  EXPECT_NE(doc.error().where.find(":3:"), std::string::npos);  // line 3
}

TEST(XmlParser, ReportsUnterminatedElement) {
  auto doc = parse("<a><b></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("unterminated"), std::string::npos);
}

TEST(XmlParser, RejectsContentAfterRoot) {
  auto doc = parse("<a/><b/>");
  ASSERT_FALSE(doc.ok());
}

TEST(XmlParser, RejectsEmptyInput) {
  auto doc = parse("   ");
  ASSERT_FALSE(doc.ok());
}

TEST(XmlParser, RejectsAttributeValueWithRawLt) {
  auto doc = parse("<e a=\"x<y\"/>");
  ASSERT_FALSE(doc.ok());
}

TEST(XmlParser, WhitespaceTextDroppedByDefaultKeptOnRequest) {
  auto plain = parse("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().root()->children().size(), 1u);

  ParseOptions options;
  options.keep_whitespace_text = true;
  auto kept = parse("<a>\n  <b/>\n</a>", options);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().root()->children().size(), 3u);
}

TEST(XmlParser, NamespaceResolutionWalksAncestors) {
  auto doc = parse(
      R"(<root xmlns:ocl="urn:ocl" xmlns="urn:default">
           <child><ocl:name/></child>
         </root>)");
  ASSERT_TRUE(doc.ok());
  const Element* child = doc.value().root()->first_child("child");
  ASSERT_NE(child, nullptr);
  const Element* name = child->first_child("ocl:name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->prefix(), "ocl");
  EXPECT_EQ(name->local_name(), "name");
  EXPECT_EQ(name->resolve_namespace("ocl"), "urn:ocl");
  EXPECT_EQ(name->resolve_namespace(""), "urn:default");
  EXPECT_FALSE(name->resolve_namespace("unbound").has_value());
}

TEST(XmlParser, TracksSourcePositions) {
  auto doc = parse("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->pos().line, 1);
  const Element* b = doc.value().root()->first_child("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->pos().line, 2);
  EXPECT_EQ(b->pos().column, 3);
}

TEST(XmlParser, ParsesMixedContent) {
  auto doc = parse("<e>before<f/>after</e>");
  ASSERT_TRUE(doc.ok());
  const Element* e = doc.value().root();
  ASSERT_EQ(e->children().size(), 3u);
  EXPECT_EQ(e->children()[0]->kind(), NodeKind::kText);
  EXPECT_EQ(e->children()[0]->text(), "before");
  EXPECT_TRUE(e->children()[1]->is_element());
  EXPECT_EQ(e->children()[2]->text(), "after");
}

TEST(XmlParser, DecodeEntitiesStandalone) {
  EXPECT_EQ(decode_entities("x &amp; y").value(), "x & y");
  EXPECT_FALSE(decode_entities("bad &").ok());
  EXPECT_FALSE(decode_entities("&#;").ok());
  EXPECT_FALSE(decode_entities("&#xZZ;").ok());
  EXPECT_FALSE(decode_entities("&#x110000;").ok());  // beyond Unicode range
}

TEST(XmlParser, DecodeEntitiesRejectsInvalidScalarValues) {
  // NUL and UTF-16 surrogates are not XML characters even when in-range
  // numerically; accepting them produces ill-formed UTF-8 downstream.
  EXPECT_FALSE(decode_entities("&#0;").ok());
  EXPECT_FALSE(decode_entities("&#x0;").ok());
  EXPECT_FALSE(decode_entities("&#xD800;").ok());   // first high surrogate
  EXPECT_FALSE(decode_entities("&#xDFFF;").ok());   // last low surrogate
  EXPECT_FALSE(decode_entities("&#55296;").ok());   // 0xD800 in decimal
  // Neighbours of the surrogate block stay valid.
  EXPECT_TRUE(decode_entities("&#xD7FF;").ok());
  EXPECT_TRUE(decode_entities("&#xE000;").ok());
  EXPECT_EQ(decode_entities("&#x10FFFF;").value(), "\xF4\x8F\xBF\xBF");
}

TEST(XmlParser, ParseFileErrorsOnMissingFile) {
  auto doc = parse_file("/does/not/exist.xml");
  ASSERT_FALSE(doc.ok());
}

// Property-style sweep: documents of increasing width parse and preserve
// child counts.
class XmlWidthTest : public testing::TestWithParam<int> {};

TEST_P(XmlWidthTest, WideDocumentsRoundTripChildCount) {
  const int n = GetParam();
  std::string text = "<root>";
  for (int i = 0; i < n; ++i) {
    text += "<item id=\"" + std::to_string(i) + "\"/>";
  }
  text += "</root>";
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->child_elements("item").size(),
            static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Widths, XmlWidthTest, testing::Values(0, 1, 17, 256, 2048));

// Deep nesting parses without issue.
class XmlDepthTest : public testing::TestWithParam<int> {};

TEST_P(XmlDepthTest, DeepDocumentsParse) {
  const int depth = GetParam();
  std::string text;
  for (int i = 0; i < depth; ++i) text += "<n>";
  text += "<leaf/>";
  for (int i = 0; i < depth; ++i) text += "</n>";
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  const Element* e = doc.value().root();
  for (int i = 1; i < depth; ++i) {
    e = e->first_child("n");
    ASSERT_NE(e, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, XmlDepthTest, testing::Values(1, 8, 64, 512, 1023));

// Past kMaxDepth open elements the reader stops with a positioned error
// instead of letting recursive tree walks overflow the stack.
TEST(XmlParser, NestingPastTheLimitIsAPositionedError) {
  constexpr int kLevels = 100000;
  std::string text;
  for (int i = 0; i < kLevels; ++i) text += "<n>";
  for (int i = 0; i < kLevels; ++i) text += "</n>";
  auto doc = parse(text);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().message, "elements nested deeper than 1024 levels");
  // The 1025th start tag, three bytes per level.
  EXPECT_EQ(doc.error().where, "<memory>:1:" + std::to_string(3 * kMaxDepth + 1));
}

TEST(XmlParser, AttributeCountScalesLinearly) {
  const auto element_with = [](int n) {
    std::string text = "<e";
    for (int i = 0; i < n; ++i) text += " a" + std::to_string(i) + "=\"v\"";
    return text + "/>";
  };
  const auto parse_ok = [](const std::string& text) {
    auto doc = parse(text);
    ASSERT_TRUE(doc.ok()) << doc.error().str();
  };
  const double small = testing_util::seconds_per_byte(element_with(10000), parse_ok);
  const double large = testing_util::seconds_per_byte(element_with(100000), parse_ok);
  // Linear: about 1x; one scan per attribute would make it about 10x.
  EXPECT_LT(large / small, 3.0);
}

TEST(XmlParser, DuplicateAttributeFoundAmongManyIsReportedWhereItEnds) {
  std::string text = "<e";
  for (int i = 0; i < 40; ++i) text += " a" + std::to_string(i) + "=\"v\"";
  text += " a7=\"again\"/>";
  auto doc = parse(text);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().message, "duplicate attribute 'a7' in <e>");
  EXPECT_EQ(doc.error().where, "<memory>:1:" + std::to_string(text.size() - 1));
}

// The declaration belongs before the root; a trailing, unterminated one is
// an error like any other unterminated markup.
TEST(XmlParser, RejectsUnterminatedDoctypeAfterRoot) {
  auto doc = parse("<a/>\n<!DOCTYPE a [ <!ENTITY x \"y\">\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().str(), "<memory>:3:1: unterminated DOCTYPE");
}

}  // namespace
}  // namespace pdl::xml
