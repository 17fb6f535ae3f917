#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/result.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace pdl::util {
namespace {

// --- trim / split -------------------------------------------------------------

TEST(StringUtil, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitTrimmedDropsEmptiesAndTrims) {
  const auto parts = split_trimmed(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtil, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "/"), "x/y/z");
  EXPECT_EQ(join({}, "/"), "");
}

// --- case helpers ----------------------------------------------------------------

TEST(StringUtil, CaseConversions) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(to_upper("MiXeD"), "MIXED");
}

TEST(StringUtil, IequalsIsCaseInsensitive) {
  EXPECT_TRUE(iequals("GPU", "gpu"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("gpu", "gpus"));
  EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(StringUtil, CaseFoldingIsAsciiOnly) {
  // Every byte pair against a reference that folds A-Z and nothing else:
  // the result may not depend on the process locale (in a Turkish one,
  // std::tolower('I') is not 'i').
  const auto fold = [](int c) { return c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c; };
  for (int a = 0; a < 256; ++a) {
    const char ca = static_cast<char>(a);
    const std::string_view sa(&ca, 1);
    ASSERT_EQ(static_cast<unsigned char>(to_lower(sa)[0]), fold(a)) << a;
    const int upper = a >= 'a' && a <= 'z' ? a - 'a' + 'A' : a;
    ASSERT_EQ(static_cast<unsigned char>(to_upper(sa)[0]), upper) << a;
    for (int b = 0; b < 256; ++b) {
      const char cb = static_cast<char>(b);
      ASSERT_EQ(iequals(sa, std::string_view(&cb, 1)), fold(a) == fold(b))
          << a << " vs " << b;
    }
  }
  EXPECT_TRUE(iequals("RISCV", "riscv"));
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("cascabel task", "cascabel"));
  EXPECT_FALSE(starts_with("cas", "cascabel"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", "file.xml"));
}

// --- numeric parsing ----------------------------------------------------------------

TEST(StringUtil, ParseIntAcceptsOnlyFullIntegers) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12abc").has_value());
}

TEST(StringUtil, ParseDoubleAcceptsFloats) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double(" +0.125E2 ").value(), 12.5);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
}

TEST(StringUtil, ParseDoubleRejectsNonFiniteAndOverflow) {
  // strtod accepts all of these; PDL property values must not (a non-finite
  // rate poisons the perf model downstream).
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("-INF").has_value());
  EXPECT_FALSE(parse_double("infinity").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("NaN(tag)").has_value());
  EXPECT_FALSE(parse_double("0x1p3").has_value());  // hex float
  EXPECT_FALSE(parse_double("1e999").has_value());  // ERANGE -> HUGE_VAL
  EXPECT_FALSE(parse_double("-1e999").has_value());
  EXPECT_FALSE(parse_double(".").has_value());      // no digits
  EXPECT_FALSE(parse_double("e5").has_value());
  // Underflow-to-zero is fine; tiny but representable values too.
  EXPECT_DOUBLE_EQ(parse_double("1e-999").value(), 0.0);
  EXPECT_GT(parse_double("1e-300").value(), 0.0);
}

TEST(StringUtil, ReplaceAllReplacesEveryOccurrence) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaaa", "aa", "b"), "bb");
  EXPECT_EQ(replace_all("x", "", "y"), "x");  // empty needle is a no-op
}

// --- Result / Status -------------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(Result, HoldsError) {
  Result<int> r = Result<int>::failure("boom", "here");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.error().str(), "here: boom");
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, MapPropagatesError) {
  Result<int> ok(2);
  auto doubled = ok.map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 4);

  Result<int> bad = Result<int>::failure("nope");
  auto mapped = bad.map([](int v) { return v * 2; });
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.error().message, "nope");
}

TEST(Status, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status f = Status::failure("bad");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "bad");
}

// --- files -----------------------------------------------------------------------

TEST(StringUtil, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/pdl_util_test.txt";
  ASSERT_TRUE(write_file(path, "contents\nline2"));
  const auto read = read_file(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "contents\nline2");
}

TEST(StringUtil, ReadMissingFileFails) {
  EXPECT_FALSE(read_file("/nonexistent/definitely/not/here").has_value());
}

// --- thread pool ------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.elapsed_ms(), 5.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 10.0);
}

}  // namespace
}  // namespace pdl::util
