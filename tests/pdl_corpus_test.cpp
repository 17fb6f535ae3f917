// Every document of the PDL corpus must parse, diagnose, locate and
// serialize exactly as recorded in its golden file (see pdl_corpus.hpp).
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <vector>

#include "pdl_corpus.hpp"
#include "util/string_util.hpp"

namespace pdl {
namespace {

const std::filesystem::path kRoot = PDL_SOURCE_DIR;

/// A corpus document and its golden.
struct Entry {
  std::filesystem::path document;
  std::filesystem::path golden;
};

/// gtest prints the parameter into each test's listed name. Printing the
/// golden keeps that name the same whichever directory holds the document.
void PrintTo(const Entry& entry, std::ostream* os) { *os << entry.golden; }

std::vector<Entry> entries() {
  std::vector<Entry> out;
  for (auto& doc : corpus::documents(kRoot)) {
    std::filesystem::path golden = corpus::golden(kRoot, doc);
    out.push_back({std::move(doc), std::move(golden)});
  }
  return out;
}

class PdlCorpusTest : public testing::TestWithParam<Entry> {};

TEST_P(PdlCorpusTest, MatchesGolden) {
  const Entry& entry = GetParam();
  const auto text = util::read_file(entry.document.string());
  ASSERT_TRUE(text.has_value()) << entry.document;
  const auto golden = util::read_file(entry.golden.string());
  ASSERT_TRUE(golden.has_value()) << "no golden for " << entry.document;
  EXPECT_EQ(corpus::render(*text, entry.document.filename().string()), *golden);
}

std::string test_name(const testing::TestParamInfo<Entry>& info) {
  std::string name = info.param.document.filename().string();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, PdlCorpusTest, testing::ValuesIn(entries()), test_name);

TEST(PdlCorpus, HoldsTheCommittedPlatformsAndEdgeDocuments) {
  EXPECT_GE(corpus::documents(kRoot).size(), 40u);
}

}  // namespace
}  // namespace pdl
