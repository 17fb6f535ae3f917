// Every simulation-mode schedule of tests/starvm_schedule_golden.hpp and
// every engine view of tests/starvm_views_golden.hpp, byte for byte against
// the recorded goldens: a scheduler change that moves one task, one device
// or one bit of a virtual time fails here, and so does a change to any
// record a view reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "starvm_views_golden.hpp"
#include "util/string_util.hpp"

namespace starvm {
namespace {

/// Compare `actual` with tests/fixtures/<fixture>, reporting the first
/// differing line rather than two megabyte-sized strings.
void expect_golden(const std::string& fixture, const std::string& actual) {
  const std::string path = std::string(PDL_SOURCE_DIR) + "/tests/fixtures/" + fixture;
  const auto expected = pdl::util::read_file(path);
  ASSERT_TRUE(expected.has_value()) << "cannot read " << path;
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

TEST(ScheduleGolden, EveryTraceRowMatchesTheRecordedText) {
  expect_golden("starvm_schedules.golden", golden::render(PDL_SOURCE_DIR));
}

TEST(ViewsGolden, EveryEngineViewMatchesTheRecordedText) {
  expect_golden("starvm_views.golden", golden::render_views(PDL_SOURCE_DIR));
}

}  // namespace
}  // namespace starvm
