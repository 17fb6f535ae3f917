// Rewrites the golden files of the PDL corpus (pdl_corpus.hpp) under a
// source root:
//
//     pdl_corpus_record .
//
// writes tests/fixtures/pdl_corpus/<doc>.xml.golden = pdl::corpus::render(
// <doc>.xml) for every corpus document. Record goldens with a build of the
// code whose behaviour they should pin, then let test_pdl compare later
// builds.
#include <cstdio>
#include <fstream>

#include "pdl_corpus.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <source-root>\n", argv[0]);
    return 2;
  }
  int written = 0;
  for (const auto& path : pdl::corpus::documents(argv[1])) {
    const auto text = pdl::util::read_file(path.string());
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::ofstream out(pdl::corpus::golden(argv[1], path), std::ios::binary);
    out << pdl::corpus::render(*text, path.filename().string());
    ++written;
  }
  std::printf("%d golden file(s) written\n", written);
  return 0;
}
