#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "time_per_byte.hpp"
#include "xml/reader.hpp"
#include "xml_token_dump.hpp"

namespace pdl::xml {
namespace {

using testing_util::dump_tokens;

/// Last line of the dump of `text`: "eof", or the error as "where: message".
std::string outcome(std::string_view text) {
  std::string dump = dump_tokens(text);
  dump.pop_back();
  return dump.substr(dump.rfind('\n') + 1);
}

TEST(XmlParser, ParsesMinimalDocument) {
  EXPECT_EQ(dump_tokens("<root/>"),
            "start root @1:1\n"
            "end root @1:1\n"
            "eof\n");
}

TEST(XmlParser, ParsesDeclaration) {
  EXPECT_EQ(dump_tokens("<?xml version=\"1.1\" encoding=\"ISO-8859-1\"?><r/>"),
            "start r @1:44\n"
            "end r @1:44\n"
            "eof\n");
  EXPECT_EQ(outcome("<?xml version?><r/>"),
            "<memory>:1:14: expected '=' in XML declaration");
}

TEST(XmlParser, ParsesNestedElementsInOrder) {
  EXPECT_EQ(dump_tokens("<a><b/><c><d/></c><b/></a>"),
            "start a @1:1\n"
            "start b @1:4\n"
            "end b @1:4\n"
            "start c @1:8\n"
            "start d @1:11\n"
            "end d @1:11\n"
            "end c @1:15\n"
            "start b @1:19\n"
            "end b @1:19\n"
            "end a @1:23\n"
            "eof\n");
}

TEST(XmlParser, ParsesAttributesWithBothQuoteStyles) {
  const std::string_view text = R"(<e a="1" b='two' c=""/>)";
  EXPECT_EQ(dump_tokens(text),
            "start e a=\"1\" b=\"two\" c=\"\" @1:1\n"
            "end e @1:1\n"
            "eof\n");
  Reader reader(text);
  ASSERT_EQ(reader.next(), Token::kStartElement);
  EXPECT_EQ(reader.attribute("b"), "two");
  EXPECT_EQ(reader.attribute("c"), "");
  EXPECT_FALSE(reader.attribute("missing").has_value());
}

TEST(XmlParser, RejectsDuplicateAttributes) {
  EXPECT_EQ(dump_tokens(R"(<e a="1" a="2"/>)"),
            "<memory>:1:15: duplicate attribute 'a' in <e>\n");
}

TEST(XmlParser, DecodesTextEntities) {
  EXPECT_EQ(dump_tokens("<e>a &lt;&amp;&gt; b &quot;q&quot; &apos;s&apos;</e>"),
            "start e @1:1\n"
            R"(text "a <&> b \"q\" 's'" @1:4)" "\n"
            "end e @1:49\n"
            "eof\n");
}

TEST(XmlParser, DecodesNumericCharacterReferences) {
  EXPECT_EQ(dump_tokens("<e>&#65;&#x42;</e>"),
            "start e @1:1\n"
            "text \"AB\" @1:4\n"
            "end e @1:15\n"
            "eof\n");
}

TEST(XmlParser, DecodesUtf8CharacterReference) {
  EXPECT_EQ(dump_tokens("<e>&#xE9;</e>"),  // é
            "start e @1:1\n"
            "text \"\xC3\xA9\" @1:4\n"
            "end e @1:10\n"
            "eof\n");
}

TEST(XmlParser, RejectsUnknownEntity) {
  EXPECT_EQ(dump_tokens("<e>&unknown;</e>"),
            "start e @1:1\n"
            "<memory>:1:13: unknown entity '&unknown;'\n");
}

// A malformed reference in text is reported where the text ends.
TEST(XmlParser, RejectsMalformedCharacterReferences) {
  EXPECT_EQ(dump_tokens("<e>x &amp; y</e>"),
            "start e @1:1\n"
            "text \"x & y\" @1:4\n"
            "end e @1:13\n"
            "eof\n");
  EXPECT_EQ(outcome("<e>bad &</e>"), "<memory>:1:9: unterminated entity reference");
  EXPECT_EQ(outcome("<e>&#;</e>"), "<memory>:1:7: empty character reference");
  EXPECT_EQ(outcome("<e>&#xZZ;</e>"),
            "<memory>:1:10: malformed character reference '&#xZZ;'");
  // Beyond the Unicode range.
  EXPECT_EQ(outcome("<e>&#x110000;</e>"), "<memory>:1:14: character reference out of range");
}

TEST(XmlParser, DecodeEntitiesRejectsInvalidScalarValues) {
  // NUL and UTF-16 surrogates are not XML characters even when in-range
  // numerically; accepting them produces ill-formed UTF-8 downstream.
  EXPECT_EQ(outcome("<e>&#0;</e>"), "<memory>:1:8: character reference to U+0000");
  EXPECT_EQ(outcome("<e>&#x0;</e>"), "<memory>:1:9: character reference to U+0000");
  // First high surrogate, last low surrogate, 0xD800 in decimal.
  EXPECT_EQ(outcome("<e>&#xD800;</e>"),
            "<memory>:1:12: character reference to UTF-16 surrogate '&#xD800;'");
  EXPECT_EQ(outcome("<e>&#xDFFF;</e>"),
            "<memory>:1:12: character reference to UTF-16 surrogate '&#xDFFF;'");
  EXPECT_EQ(outcome("<e>&#55296;</e>"),
            "<memory>:1:12: character reference to UTF-16 surrogate '&#55296;'");
  // Attribute values go through the same decoder; the error is reported
  // past the closing quote.
  EXPECT_EQ(outcome("<e a=\"&#xD800;\"/>"),
            "<memory>:1:16: character reference to UTF-16 surrogate '&#xD800;'");
  // Neighbours of the surrogate block stay valid.
  EXPECT_EQ(dump_tokens("<e>&#xD7FF;&#xE000;&#x10FFFF;</e>"),
            "start e @1:1\n"
            "text \"\xED\x9F\xBF\xEE\x80\x80\xF4\x8F\xBF\xBF\" @1:4\n"
            "end e @1:30\n"
            "eof\n");
}

TEST(XmlParser, ParsesCData) {
  EXPECT_EQ(dump_tokens("<e><![CDATA[<not-parsed> & raw]]></e>"),
            "start e @1:1\n"
            "cdata \"<not-parsed> & raw\" @1:4\n"
            "end e @1:34\n"
            "eof\n");
}

// Comments before and after the root are always skipped: no token reports
// them.
TEST(XmlParser, SkipsCommentsByDefault) {
  EXPECT_EQ(dump_tokens("<!-- before --><e><f/></e><!-- after -->"),
            "start e @1:16\n"
            "start f @1:19\n"
            "end f @1:19\n"
            "end e @1:23\n"
            "eof\n");
}

// Comments inside the root are tokens with their text; a caller that does
// not want them skips kComment.
TEST(XmlParser, KeepsCommentsWhenAsked) {
  EXPECT_EQ(dump_tokens("<e><!-- hidden --><f/></e>"),
            "start e @1:1\n"
            "comment \" hidden \" @1:4\n"
            "start f @1:19\n"
            "end f @1:19\n"
            "end e @1:23\n"
            "eof\n");
}

TEST(XmlParser, SkipsDoctypeAndProcessingInstructions) {
  EXPECT_EQ(dump_tokens("<?xml version=\"1.0\"?>\n"
                        "<!DOCTYPE root [ <!ENTITY x \"y\"> ]>\n"
                        "<?pi data?>\n"
                        "<root><?inner pi?></root>"),
            "start root @4:1\n"
            "end root @4:19\n"
            "eof\n");
  // A quote inside a processing instruction in the internal subset opens
  // no literal.
  EXPECT_EQ(dump_tokens("<!DOCTYPE a [ <?pi don't?> ]><a/>"),
            "start a @1:30\n"
            "end a @1:30\n"
            "eof\n");
}

// Quoted literals, comments and processing instructions inside a DOCTYPE
// are skipped whole: the brackets and '>' they hold close nothing.
TEST(XmlParser, DoctypeEntityValueMayHoldClosingBracket) {
  EXPECT_EQ(dump_tokens(R"(<!DOCTYPE a [ <!ENTITY x "]"> ]><a/>)"),
            "start a @1:33\n"
            "end a @1:33\n"
            "eof\n");
}

TEST(XmlParser, DoctypeSystemLiteralMayHoldGreaterThan) {
  EXPECT_EQ(dump_tokens(R"(<!DOCTYPE a SYSTEM "a>b.dtd"><a/>)"),
            "start a @1:30\n"
            "end a @1:30\n"
            "eof\n");
}

TEST(XmlParser, DoctypeCommentMayHoldClosingBracket) {
  EXPECT_EQ(dump_tokens("<!DOCTYPE a [ <!-- ] --> ]><a/>"),
            "start a @1:28\n"
            "end a @1:28\n"
            "eof\n");
}

TEST(XmlParser, DoctypeEntityValueMayHoldOpeningBracket) {
  EXPECT_EQ(dump_tokens(R"(<!DOCTYPE a [ <!ENTITY x "["> ]><a/>)"),
            "start a @1:33\n"
            "end a @1:33\n"
            "eof\n");
}

// An unterminated literal or comment leaves the DOCTYPE unterminated; the
// error points just inside it.
TEST(XmlParser, RejectsUnterminatedLiteralOrCommentInDoctype) {
  EXPECT_EQ(dump_tokens(R"(<!DOCTYPE a SYSTEM "a.dtd><a/>)"),
            "<memory>:1:21: unterminated DOCTYPE\n");
  EXPECT_EQ(dump_tokens("<!DOCTYPE a [ <!-- ]><a/>"),
            "<memory>:1:19: unterminated DOCTYPE\n");
}

TEST(XmlParser, ReportsMismatchedTagsWithLocation) {
  EXPECT_EQ(dump_tokens("<a>\n  <b>\n  </c>\n</a>"),
            "start a @1:1\n"
            "text \"\\n  \" @1:4\n"
            "start b @2:3\n"
            "text \"\\n  \" @2:6\n"
            "<memory>:3:7: mismatched end tag: expected </b>, got </c>\n");
}

TEST(XmlParser, ReportsUnterminatedElement) {
  EXPECT_EQ(dump_tokens("<a><b></b>"),
            "start a @1:1\n"
            "start b @1:4\n"
            "end b @1:7\n"
            "<memory>:1:11: unterminated element <a>\n");
}

TEST(XmlParser, RejectsContentAfterRoot) {
  EXPECT_EQ(dump_tokens("<a/><b/>"),
            "start a @1:1\n"
            "end a @1:1\n"
            "<memory>:1:5: content after root element\n");
}

TEST(XmlParser, RejectsEmptyInput) {
  EXPECT_EQ(dump_tokens("   "), "<memory>:1:4: document has no root element\n");
}

TEST(XmlParser, RejectsAttributeValueWithRawLt) {
  EXPECT_EQ(dump_tokens("<e a=\"x<y\"/>"),
            "<memory>:1:8: '<' not allowed in attribute value\n");
}

// Whitespace between elements is text like any other.
TEST(XmlParser, ReportsWhitespaceText) {
  EXPECT_EQ(dump_tokens("<a>\n  <b/>\n</a>"),
            "start a @1:1\n"
            "text \"\\n  \" @1:4\n"
            "start b @2:3\n"
            "end b @2:3\n"
            "text \"\\n\" @2:7\n"
            "end a @3:1\n"
            "eof\n");
}

// Columns count bytes from 1, a tab is one column, and "\r\n" ends a line
// at its '\n'.
TEST(XmlParser, TracksSourcePositions) {
  EXPECT_EQ(dump_tokens("<a>\r\n\t<b x='1'/>\r\n  <c>t</c></a>"),
            "start a @1:1\n"
            "text \"\\r\\n\\t\" @1:4\n"
            "start b x=\"1\" @2:2\n"
            "end b @2:2\n"
            "text \"\\r\\n  \" @2:12\n"
            "start c @3:3\n"
            "text \"t\" @3:6\n"
            "end c @3:7\n"
            "end a @3:11\n"
            "eof\n");
}

TEST(XmlParser, ParsesMixedContent) {
  EXPECT_EQ(dump_tokens("<e>before<f/>after</e>"),
            "start e @1:1\n"
            "text \"before\" @1:4\n"
            "start f @1:10\n"
            "end f @1:10\n"
            "text \"after\" @1:14\n"
            "end e @1:19\n"
            "eof\n");
}

// Property-style sweep: documents of increasing width yield every child, in
// order.
class XmlWidthTest : public testing::TestWithParam<int> {};

TEST_P(XmlWidthTest, WideDocumentsRoundTripChildCount) {
  const int n = GetParam();
  std::string text = "<root>";
  for (int i = 0; i < n; ++i) {
    text += "<item id=\"" + std::to_string(i) + "\"/>";
  }
  text += "</root>";
  Reader reader(text);
  int items = 0;
  for (Token token = reader.next(); token != Token::kEnd; token = reader.next()) {
    ASSERT_NE(token, Token::kError) << reader.error().str();
    if (token == Token::kStartElement && reader.name() == "item") {
      EXPECT_EQ(reader.attribute("id"), std::to_string(items));
      ++items;
    }
  }
  EXPECT_EQ(items, n);
}

INSTANTIATE_TEST_SUITE_P(Widths, XmlWidthTest, testing::Values(0, 1, 17, 256, 2048));

// Deep nesting up to the cap reads to the end.
class XmlDepthTest : public testing::TestWithParam<int> {};

TEST_P(XmlDepthTest, DeepDocumentsParse) {
  const int depth = GetParam();
  std::string text;
  for (int i = 0; i < depth; ++i) text += "<n>";
  text += "<leaf/>";
  for (int i = 0; i < depth; ++i) text += "</n>";
  Reader reader(text);
  std::size_t deepest = 0;
  for (Token token = reader.next(); token != Token::kEnd; token = reader.next()) {
    ASSERT_NE(token, Token::kError) << reader.error().str();
    deepest = std::max(deepest, reader.depth());
  }
  EXPECT_EQ(deepest, static_cast<std::size_t>(depth) + 1);
  EXPECT_EQ(reader.depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, XmlDepthTest, testing::Values(1, 8, 64, 512, 1023));

// Past kMaxDepth open elements the reader stops with a positioned error
// instead of letting recursive tree walks overflow the stack.
TEST(XmlParser, NestingPastTheLimitIsAPositionedError) {
  constexpr int kLevels = 100000;
  std::string text;
  for (int i = 0; i < kLevels; ++i) text += "<n>";
  for (int i = 0; i < kLevels; ++i) text += "</n>";
  // The 1025th start tag, three bytes per level.
  EXPECT_EQ(outcome(text), "<memory>:1:" + std::to_string(3 * kMaxDepth + 1) +
                               ": elements nested deeper than 1024 levels");
}

TEST(XmlParser, AttributeCountScalesLinearly) {
  const auto element_with = [](int n) {
    std::string text = "<e";
    for (int i = 0; i < n; ++i) text += " a" + std::to_string(i) + "=\"v\"";
    return text + "/>";
  };
  // Times the walk plus a copy of every attribute, as a consumer keeps
  // them. The walk alone costs so little per byte that cache and allocator
  // state, not the algorithm, would decide the ratio.
  const auto read_ok = [](const std::string& text) {
    Reader reader(text);
    ASSERT_EQ(reader.next(), Token::kStartElement) << reader.error().str();
    std::vector<std::pair<std::string, std::string>> attributes;
    for (const auto& a : reader.attributes()) attributes.emplace_back(a.name, a.value);
  };
  const double small = testing_util::seconds_per_byte(element_with(10000), read_ok);
  const double large = testing_util::seconds_per_byte(element_with(100000), read_ok);
  // Linear: about 1x; one scan per attribute would make it about 10x.
  EXPECT_LT(large / small, 3.0);
}

TEST(XmlParser, DuplicateAttributeFoundAmongManyIsReportedWhereItEnds) {
  std::string text = "<e";
  for (int i = 0; i < 40; ++i) text += " a" + std::to_string(i) + "=\"v\"";
  text += " a7=\"again\"/>";
  EXPECT_EQ(dump_tokens(text), "<memory>:1:" + std::to_string(text.size() - 1) +
                                   ": duplicate attribute 'a7' in <e>\n");
}

// The declaration belongs before the root; a trailing, unterminated one is
// an error like any other unterminated markup.
TEST(XmlParser, RejectsUnterminatedDoctypeAfterRoot) {
  EXPECT_EQ(dump_tokens("<a/>\n<!DOCTYPE a [ <!ENTITY x \"y\">\n"),
            "start a @1:1\n"
            "end a @1:1\n"
            "<memory>:3:1: unterminated DOCTYPE\n");
}

}  // namespace
}  // namespace pdl::xml
