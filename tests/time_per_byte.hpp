// Scaling checks for the parsers: best-of-N wall time per input byte, so a
// test can compare a large input with a small one independent of host speed.
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

namespace pdl::testing_util {

/// Fastest of `reps` runs of `parse(text)`, in seconds per byte of `text`.
template <typename Parse>
double seconds_per_byte(const std::string& text, Parse&& parse, int reps = 5) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    parse(text);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    best = std::min(best, took.count());
  }
  return best / static_cast<double>(text.size());
}

}  // namespace pdl::testing_util
