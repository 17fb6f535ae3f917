// Replay driver for the PDL fuzz entry (pdl_fuzz_target.hpp): runs every
// document of the PDL corpus (pdl_corpus.hpp), then a fixed number of seeded
// mutations of each (byte flips, deletions and splices from other corpus
// documents), through the same check a fuzzer would run.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fuzz/pdl_fuzz_target.hpp"
#include "pdl_corpus.hpp"
#include "util/string_util.hpp"

namespace pdl::fuzz {
namespace {

constexpr int kMutationsPerDocument = 250;
constexpr std::uint32_t kSeed = 20110516;

/// Bytes that move the tokenizer between states.
constexpr std::string_view kMarkup = "<>/?!&#;=\"' \n[]-:xX0CDATA";

/// One to four stacked edits of `doc`. Only raw mt19937 output is used, so
/// the sequence is the same with every standard library.
std::string mutate(std::string doc, const std::vector<std::string>& corpus,
                   std::mt19937& rng) {
  const std::uint32_t rounds = 1 + rng() % 4;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    switch (rng() % 3) {
      case 0:  // flip one byte
        if (!doc.empty()) {
          const std::size_t pos = rng() % doc.size();
          doc[pos] = rng() % 2 == 0 ? kMarkup[rng() % kMarkup.size()]
                                    : static_cast<char>(rng() % 256);
        }
        break;
      case 1:  // delete a short run
        if (!doc.empty()) {
          const std::size_t pos = rng() % doc.size();
          doc.erase(pos, 1 + rng() % 16);
        }
        break;
      default: {  // splice in a run of another document
        const std::string& other = corpus[rng() % corpus.size()];
        if (other.empty()) break;
        const std::size_t from = rng() % other.size();
        const std::size_t at = rng() % (doc.size() + 1);
        doc.insert(at, other.substr(from, 1 + rng() % 64));
        break;
      }
    }
  }
  return doc;
}

std::string printable(std::string_view input) {
  std::string out;
  for (const char c : input.substr(0, 4096)) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n' || (u >= 0x20 && u < 0x7F)) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02X", u);
      out += buf;
    }
  }
  return out;
}

TEST(PdlFuzzReplay, CorpusAndSeededMutationsHoldEveryProperty) {
  std::vector<std::string> corpus;
  for (const auto& path : corpus::documents(PDL_SOURCE_DIR)) {
    auto text = util::read_file(path.string());
    ASSERT_TRUE(text.has_value()) << path;
    corpus.push_back(std::move(*text));
  }
  ASSERT_FALSE(corpus.empty());

  std::mt19937 rng(kSeed);
  int findings = 0;
  std::size_t inputs = 0;
  const auto run = [&](const std::string& input) {
    ++inputs;
    const std::string finding = check_pdl_input(input);
    if (finding.empty() || ++findings > 5) return;
    ADD_FAILURE() << finding << "\ninput:\n" << printable(input);
  };
  for (const auto& doc : corpus) {
    run(doc);
    for (int i = 0; i < kMutationsPerDocument; ++i) run(mutate(doc, corpus, rng));
  }
  EXPECT_EQ(inputs, corpus.size() * (kMutationsPerDocument + 1));
  EXPECT_EQ(findings, 0);
}

}  // namespace
}  // namespace pdl::fuzz
