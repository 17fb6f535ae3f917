// Rewrites the schedule golden of test_starvm:
//
//     schedule_golden_record tests/fixtures/starvm_schedules.golden
//
// writes starvm::golden::render() (tests/starvm_schedule_golden.hpp) to the
// given file. Record it with a build of the code whose schedules it should
// pin, then let test_starvm compare later builds.
#include <cstdio>
#include <fstream>

#include "starvm_schedule_golden.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <golden-file>\n", argv[0]);
    return 2;
  }
  const std::string text = starvm::golden::render(PDL_SOURCE_DIR);
  std::ofstream out(argv[1], std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("%zu bytes written\n", text.size());
  return 0;
}
