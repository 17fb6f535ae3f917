// Every translation output of tests/translate_golden.hpp byte for byte
// against tests/fixtures/translate.golden: a change to the generated
// source, the compile plan or a diagnostic of any shipped platform and
// annotated source fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "translate_golden.hpp"
#include "util/string_util.hpp"

namespace cascabel {
namespace {

TEST(TranslateGolden, EveryTranslationMatchesTheRecordedText) {
  const std::string path =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/translate.golden";
  const auto expected = pdl::util::read_file(path);
  ASSERT_TRUE(expected.has_value()) << "cannot read " << path;
  const std::string actual = golden::render(PDL_SOURCE_DIR);
  // Report the first differing line rather than two large strings.
  std::size_t line_begin = 0;
  for (std::size_t i = 0; i < std::min(actual.size(), expected->size()); ++i) {
    if (actual[i] != (*expected)[i]) {
      FAIL() << "first difference in line\n  actual:   "
             << actual.substr(line_begin, actual.find('\n', i) - line_begin)
             << "\n  expected: "
             << expected->substr(line_begin, expected->find('\n', i) - line_begin);
    }
    if (actual[i] == '\n') line_begin = i + 1;
  }
  EXPECT_EQ(actual.size(), expected->size());
}

}  // namespace
}  // namespace cascabel
