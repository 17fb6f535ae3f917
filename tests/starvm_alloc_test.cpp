// Allocation budgets for the submission hot path, for set-up on a
// 1000-PU platform and for the description layers that read, check and
// embed that platform's description.
//
// The lock-split engine amortizes node and handle storage through
// chunked arenas (detail::Arena), caches perf-model rows per codelet and
// keeps the simulation schedulers' device orders in flat indexed heaps
// (starvm/device_heap.hpp), so steady-state submission must average
// barely more than one heap allocation per task (the TaskDesc buffer
// vector, plus occasional arena/queue growth).
// AllocBudget.SubmissionAveragesFewAllocationsPerTask counts global
// operator new calls around a pure-sim submit loop and fails if the
// average regresses — e.g. a reintroduced per-task map lookup, string
// build, candidate-vector copy or tree node.
//
// Set-up must cost what its work costs, not a fixed toll per PU. Four
// budgets count the calls that a translated program makes once per
// target: building and destroying a deterministic engine over 1000
// devices (no per-device ready queue or tree node), pre-selecting the
// builtin repository against a 1000-worker description (no mismatch
// reason formatted for a PU whose reason nobody reads), validating that
// description (no tree node per PU id, no locator built for a PU without
// a finding) and constructing the cascabel::rt::Context that runs it (no
// copy of the description kept). A fifth bounds the drain of that
// context's 2,048 vecadd tasks: a finished task is recorded on its task
// node only, not copied into a per-device trace vector that grows on
// every device.
//
// The toolchain reads and writes the same description: parsing its
// serialized text builds each property in place in a vector allocated
// once per descriptor, and translating a program onto it writes the
// description once, straight into the generated file, so the bytes it
// allocates stay below twice the file's size (operator new also sums the
// bytes it hands out).
//
// Built as its own binary (test_starvm_alloc) so the interposed
// operator new cannot perturb the rest of the suite, and skipped under
// sanitizers, which own the allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "cascabel/selection.hpp"
#include "cascabel/translator.hpp"
#include "discovery/presets.hpp"
#include "pdl/parser.hpp"
#include "pdl/query.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"
#include "wide_platform.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PDL_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PDL_UNDER_SANITIZER 1
#endif
#endif
#ifndef PDL_UNDER_SANITIZER
#define PDL_UNDER_SANITIZER 0
#endif

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
std::atomic<std::uint64_t> g_new_bytes{0};
}  // namespace

#if !PDL_UNDER_SANITIZER
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

// Over-aligned requests, such as the default std::pmr memory resource
// makes; the nothrow and array forms call this one.
void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t alignment = std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, alignment, size) == 0) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
// Out of line: inlined into a caller, GCC 12 pairs this free() with the
// operator new above and reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // !PDL_UNDER_SANITIZER

namespace starvm {
namespace {

TEST(AllocBudget, SubmissionAveragesFewAllocationsPerTask) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  constexpr int kTasks = 2000;

  // Pure simulation: no worker threads, so the count is deterministic
  // up to arena/queue doubling and measures only the submit path.
  EngineConfig config = EngineConfig::cpus(4);
  config.mode = ExecutionMode::kPureSim;
  Engine engine(std::move(config));

  Codelet noop;
  noop.name = "noop";
  noop.impls.push_back({DeviceKind::kCpu, nullptr});

  std::vector<std::vector<double>> buffers(kTasks, std::vector<double>(1));
  std::vector<DataHandle*> handles(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    handles[static_cast<std::size_t>(i)] =
        engine.register_vector(buffers[static_cast<std::size_t>(i)].data(), 1);
  }

  // Warm up: first submissions fault in the perf-model row, scheduler
  // vectors, and the first arena chunks.
  for (int i = 0; i < 64; ++i) {
    engine.submit(
        TaskDesc{&noop, {{handles[static_cast<std::size_t>(i)], Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());

  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 64; i < kTasks; ++i) {
    engine.submit(
        TaskDesc{&noop, {{handles[static_cast<std::size_t>(i)], Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);

  const double per_task =
      static_cast<double>(after - before) / static_cast<double>(kTasks - 64);
  RecordProperty("allocs_per_task", static_cast<int>(per_task * 100));
  // Budget: TaskDesc's buffer vector (1) + amortized arena growth.
  // The scheduler's device orders are flat heaps, so placing a task
  // allocates nothing; a per-task map, string, vector or tree node (each
  // adds >= 1) fails here.
  EXPECT_LT(per_task, 2.0) << "allocations per submitted task regressed";
}

/// operator new calls made while `f` runs.
template <typename F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  f();
  return g_new_calls.load(std::memory_order_relaxed) - before;
}

/// Bytes operator new hands out while `f` runs.
template <typename F>
std::uint64_t bytes_allocated_during(F&& f) {
  const std::uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
  f();
  return g_new_bytes.load(std::memory_order_relaxed) - before;
}

using pdl::fixtures::wide_platform;

TEST(AllocBudget, EngineSetUpAllocatesFewPerDevice) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  constexpr int kDevices = 1000;
  BridgeOptions bridge;
  bridge.mode = ExecutionMode::kDeterministic;
  auto config =
      engine_config_from_platform(pdl::discovery::manycore_platform(kDevices), bridge);
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config.value().devices.size(), static_cast<std::size_t>(kDevices));

  for (const bool recorder : {false, true}) {
    EngineConfig engine_config = config.value();
    if (!recorder) engine_config.flight_records_per_device = 0;
    const std::uint64_t allocations = allocations_during(
        [&] { Engine engine(std::move(engine_config)); });
    RecordProperty(recorder ? "allocations_recorder_on" : "allocations",
                   static_cast<int>(allocations));
    // Per device: only its share of the device deque. The scheduler's
    // device orders are flat arrays, not a tree node per device, and a
    // ready queue built up front (a std::deque allocates a map and a node
    // when constructed) would add two per device. The flight recorder is
    // one ring for every lane, not a ring (two allocations) per device.
    EXPECT_LT(allocations, 1u * kDevices)
        << "engine set-up allocates per device again (recorder "
        << (recorder ? "on" : "off") << ")";
  }
}

TEST(AllocBudget, ContextSetUpAllocatesFewPerPu) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  cascabel::rt::Options options;
  options.mode = ExecutionMode::kDeterministic;
  {
    // The first context registers the selection counters.
    cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
    cascabel::register_builtin_variants(repo);
    cascabel::rt::Context warm_up(pdl::discovery::paper_platform_starpu_cpu(),
                                  std::move(repo), options);
  }
  const pdl::Platform target = wide_platform();
  const std::size_t pus = pdl::all_pus(target).size();
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);

  std::optional<cascabel::rt::Context> ctx;
  const std::uint64_t allocations =
      allocations_during([&] { ctx.emplace(target, std::move(repo), options); });
  RecordProperty("allocations", static_cast<int>(allocations));
  ASSERT_EQ(ctx->engine().device_count(), 1000u);
  EXPECT_FALSE(pdl::has_errors(ctx->diagnostics()));
  // Less than one per PU: its share of the device specs, of the engine's
  // device deque and of pre-selection. The flight recorder is one ring
  // for every lane; a ring per device would add two per PU. The context
  // reads the description and keeps no copy of it, which would add about
  // five per PU (the PU, its descriptor and group vectors, long property
  // strings).
  EXPECT_LT(allocations, pus) << "context set-up allocates per PU again";
}

TEST(AllocBudget, DrainOf1000DevicesAllocatesNoTraceRows) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  cascabel::rt::Options options;
  options.mode = ExecutionMode::kDeterministic;
  options.blocks_per_device = 4;  // the drain of 2,048 tasks
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);
  cascabel::rt::Context ctx(wide_platform(), std::move(repo), options);
  constexpr std::size_t kN = 4096;
  std::vector<double> a(kN, 1.0);
  std::vector<double> b(kN, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "all",
                          {cascabel::rt::arg(a.data(), kN,
                                             cascabel::AccessMode::kReadWrite,
                                             cascabel::DistributionKind::kBlock),
                           cascabel::rt::arg(b.data(), kN,
                                             cascabel::AccessMode::kRead,
                                             cascabel::DistributionKind::kBlock)})
                  .ok());

  pdl::util::Status drained;
  const std::uint64_t allocations =
      allocations_during([&] { drained = ctx.wait(); });
  RecordProperty("allocations", static_cast<int>(allocations));
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(ctx.stats().tasks_completed, 2048u);
  EXPECT_EQ(a[kN - 1], 3.0);
  // Running a task allocates nothing: its start, finish and costs stay on
  // its node, which stats() reads. A per-device copy of each finished task
  // costs two or three vector growths on each of the 1000 devices.
  EXPECT_LT(allocations, 16u) << "the drain allocates per task again";
}

TEST(AllocBudget, PreselectAllocatesLessThanOncePerPu) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  const pdl::Platform target = wide_platform();
  const std::size_t pus = pdl::all_pus(target).size();
  cascabel::TaskRepository repo = cascabel::TaskRepository::with_defaults();
  cascabel::register_builtin_variants(repo);
  {
    // The first call registers the selection counters.
    pdl::Diagnostics warm_up;
    cascabel::preselect(repo, target, warm_up);
  }

  pdl::Diagnostics diags;
  const std::uint64_t allocations =
      allocations_during([&] { cascabel::preselect(repo, target, diags); });
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_FALSE(pdl::has_errors(diags));
  // A PU that fails a pattern costs no string: only the reasons the
  // "pruned for" diagnostics print are formatted.
  EXPECT_LT(allocations, pus) << "pre-selection allocates per PU again";
}

TEST(AllocBudget, ValidateAllocatesFewPerPu) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  const pdl::Platform target = wide_platform();
  {
    pdl::Diagnostics warm_up;
    ASSERT_TRUE(pdl::validate(target, warm_up));
  }

  pdl::Diagnostics diags;
  bool valid = false;
  const std::uint64_t allocations =
      allocations_during([&] { valid = pdl::validate(target, diags); });
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_TRUE(valid);
  EXPECT_TRUE(diags.empty());
  // The duplicate-id and interconnect endpoint checks keep views of the
  // PU ids in hash-set nodes carved from one pool (a few geometrically
  // growing blocks), not a tree node per PU; no locator for a PU without a
  // finding and no set of property names per descriptor.
  EXPECT_LT(allocations, 32u) << "validation allocates per PU again";
}

TEST(AllocBudget, ParseAllocatesFewPerPu) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  const std::string text = pdl::serialize(wide_platform());
  {
    pdl::Diagnostics warm_up;
    ASSERT_TRUE(pdl::parse_platform(text, warm_up).ok());
  }

  pdl::Diagnostics diags;
  std::optional<pdl::util::Result<pdl::Platform>> parsed;
  const std::uint64_t allocations =
      allocations_during([&] { parsed.emplace(pdl::parse_platform(text, diags)); });
  RecordProperty("allocations", static_cast<int>(allocations));
  ASSERT_TRUE(parsed->ok());
  EXPECT_TRUE(diags.empty());
  const std::size_t pus = pdl::all_pus(parsed->value()).size();
  ASSERT_EQ(pus, 1001u);
  // Per worker: its node, its property vector, its group vector and the
  // one property name too long for the small-string buffer. Each property
  // is built in place, in a vector that holds as many as the previous
  // descriptor did; regrowing it through 1, 2 and 4 costs two more.
  EXPECT_LT(static_cast<double>(allocations), 4.5 * static_cast<double>(pus))
      << "parsing allocates per property again";
}

TEST(AllocBudget, TranslateAllocatesLessThanTwiceItsOutput) {
  if (PDL_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer owns the allocator";
  }
  const pdl::Platform target = wide_platform();
  const cascabel::TranslationOptions options;
  const auto translate = [&] {
    return cascabel::translate(pdl::fixtures::kWideVecaddProgram, "vecadd.cpp", target,
                               options);
  };
  // The first translation registers the toolchain's counters.
  ASSERT_TRUE(translate().ok());

  std::optional<pdl::util::Result<cascabel::TranslationResult>> result;
  const std::uint64_t bytes =
      bytes_allocated_during([&] { result.emplace(translate()); });
  ASSERT_TRUE(result->ok());
  const std::size_t output = result->value().output_source.size();
  RecordProperty("bytes", static_cast<int>(bytes));
  RecordProperty("output_bytes", static_cast<int>(output));
  ASSERT_GT(output, 600'000u);
  // The 617 KB description is written once, into the generated file. A
  // returned copy of it, a stream buffer doubling through it and a copy
  // out of the stream allocate about six times the output.
  EXPECT_LT(bytes, 2u * output) << "translation copies the description again";
}

}  // namespace
}  // namespace starvm
