// Rewrites the engine goldens of test_starvm:
//
//     schedule_golden_record tests/fixtures/starvm_schedules.golden
//     schedule_golden_record tests/fixtures/starvm_schedules.golden tests/fixtures/starvm_views.golden
//
// writes starvm::golden::render() (tests/starvm_schedule_golden.hpp) to the
// first file and, when given, starvm::golden::render_views()
// (tests/starvm_views_golden.hpp) to the second. Record them with a build
// of the code whose schedules and views they should pin, then let
// test_starvm compare later builds.
#include <cstdio>
#include <fstream>
#include <string>

#include "starvm_views_golden.hpp"

namespace {

int write_text(const char* path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("%s: %zu bytes written\n", path, text.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: %s <schedules-golden> [<views-golden>]\n",
                 argv[0]);
    return 2;
  }
  if (const int rc = write_text(argv[1], starvm::golden::render(PDL_SOURCE_DIR))) {
    return rc;
  }
  if (argc == 3) {
    return write_text(argv[2], starvm::golden::render_views(PDL_SOURCE_DIR));
  }
  return 0;
}
