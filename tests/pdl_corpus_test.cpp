// Every document of tests/fixtures/pdl_corpus must parse, diagnose, locate
// and serialize exactly as recorded in its golden file (see pdl_corpus.hpp).
#include <gtest/gtest.h>

#include <cctype>

#include "pdl_corpus.hpp"
#include "util/string_util.hpp"

namespace pdl {
namespace {

const std::filesystem::path kCorpusDir =
    std::filesystem::path(PDL_SOURCE_DIR) / "tests/fixtures/pdl_corpus";

class PdlCorpusTest : public testing::TestWithParam<std::filesystem::path> {};

TEST_P(PdlCorpusTest, MatchesGolden) {
  const std::filesystem::path& doc = GetParam();
  const auto text = util::read_file(doc.string());
  ASSERT_TRUE(text.has_value()) << doc;
  const auto golden = util::read_file(doc.string() + ".golden");
  ASSERT_TRUE(golden.has_value()) << "no golden for " << doc;
  EXPECT_EQ(corpus::render(*text, doc.filename().string()), *golden);
}

std::string test_name(const testing::TestParamInfo<std::filesystem::path>& info) {
  std::string name = info.param.filename().string();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, PdlCorpusTest,
                         testing::ValuesIn(corpus::documents(kCorpusDir)), test_name);

TEST(PdlCorpus, HoldsTheCommittedPlatformsAndEdgeDocuments) {
  EXPECT_GE(corpus::documents(kCorpusDir).size(), 40u);
}

}  // namespace
}  // namespace pdl
