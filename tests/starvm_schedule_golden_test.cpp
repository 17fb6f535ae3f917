// Every simulation-mode schedule of tests/starvm_schedule_golden.hpp, byte
// for byte against the recorded golden: a scheduler change that moves one
// task, one device or one bit of a virtual time fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "starvm_schedule_golden.hpp"
#include "util/string_util.hpp"

namespace starvm {
namespace {

TEST(ScheduleGolden, EveryTraceRowMatchesTheRecordedText) {
  const std::string path =
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/starvm_schedules.golden";
  const auto expected = pdl::util::read_file(path);
  ASSERT_TRUE(expected.has_value()) << "cannot read " << path;
  const std::string actual = golden::render(PDL_SOURCE_DIR);
  // Report the first differing line rather than two megabyte-sized strings.
  std::size_t line_begin = 0;
  for (std::size_t i = 0; i < std::min(actual.size(), expected->size()); ++i) {
    if (actual[i] != (*expected)[i]) {
      const std::size_t end = actual.find('\n', i);
      const std::size_t expected_end = expected->find('\n', i);
      FAIL() << "first difference in line\n  actual:   "
             << actual.substr(line_begin, end - line_begin) << "\n  expected: "
             << expected->substr(line_begin, expected_end - line_begin);
    }
    if (actual[i] == '\n') line_begin = i + 1;
  }
  EXPECT_EQ(actual.size(), expected->size());
}

}  // namespace
}  // namespace starvm
