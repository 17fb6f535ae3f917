// Rewrites the translation golden of test_cascabel:
//
//     translate_golden_record tests/fixtures/translate.golden
//
// writes cascabel::golden::render() (tests/translate_golden.hpp) to the
// file. Record it with a build of the code whose translations it should
// pin, then let test_cascabel compare later builds.
#include <cstdio>
#include <fstream>
#include <string>

#include "translate_golden.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <translate-golden>\n", argv[0]);
    return 2;
  }
  const std::string text = cascabel::golden::render(PDL_SOURCE_DIR);
  std::ofstream out(argv[1], std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("%s: %zu bytes written\n", argv[1], text.size());
  return 0;
}
