// Flight-recorder tests: the engine's always-on ring hooks (task
// lifecycle records, submission accounting), explicit and post-mortem
// dumps, rings built over reused uninitialized memory, and concurrent
// stress runs that hammer snapshot() while the producer fills the ring
// and while it laps it. The CI TSan job runs every *Flight* and *Stress*
// test of this file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/flight_recorder.hpp"
#include "starvm/engine.hpp"
#include "starvm/fault.hpp"
#include "util/string_util.hpp"

namespace starvm {
namespace {

Codelet make_codelet(std::string name,
                     std::function<void(const ExecContext&)> fn) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{DeviceKind::kCpu, std::move(fn)});
  return c;
}

std::string temp_prefix(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "." + name;
}

std::uint64_t count_kind(const std::vector<obs::FlightEvent>& events,
                         obs::FlightKind kind) {
  std::uint64_t n = 0;
  for (const obs::FlightEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- Engine integration ------------------------------------------------------

TEST(EngineFlight, SnapshotCarriesTaskLifecycle) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<std::vector<double>> buffers(4, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());

  ASSERT_NE(engine.flight_recorder(), nullptr);
  const std::vector<obs::FlightEvent> events = engine.flight_snapshot();
  EXPECT_EQ(count_kind(events, obs::FlightKind::kTaskStart), 4u);
  EXPECT_EQ(count_kind(events, obs::FlightKind::kTaskEnd), 4u);
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::FlightKind::kTaskEnd) {
      EXPECT_TRUE(e.has_end());
      EXPECT_GE(e.t1, e.t0);
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_submitted, 4u);
  EXPECT_GE(stats.flight_records, 8u);  // 4 starts + 4 ends at minimum
  EXPECT_EQ(stats.flight_overwritten, 0u);
}

TEST(EngineFlight, DisabledWhenConfiguredToZero) {
  EngineConfig config = EngineConfig::cpus(2);
  config.flight_records_per_device = 0;
  Engine engine(std::move(config));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  ASSERT_TRUE(engine.wait_all().ok());

  EXPECT_EQ(engine.flight_recorder(), nullptr);
  EXPECT_TRUE(engine.flight_snapshot().empty());
  EXPECT_FALSE(engine.dump_flight_recorder(temp_prefix("disabled")));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.flight_records, 0u);
}

// Regression: submit_batch must account each task exactly once in
// tasks_submitted (not once per batch, not once per submit call).
TEST(EngineFlight, SubmitBatchCountsEachTaskOnce) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<std::vector<double>> buffers(7, std::vector<double>(1));
  std::vector<TaskDesc> batch;
  for (std::size_t i = 0; i < 5; ++i) {
    DataHandle* h = engine.register_vector(buffers[i].data(), 1);
    batch.push_back(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  EXPECT_EQ(engine.submit_batch(std::move(batch)).size(), 5u);
  for (std::size_t i = 5; i < 7; ++i) {
    DataHandle* h = engine.register_vector(buffers[i].data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().tasks_submitted, 7u);
}

TEST(EngineFlight, ExplicitDumpWritesJsonlAndChromeTrace) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}, "payload_task"});
  ASSERT_TRUE(engine.wait_all().ok());

  const std::string prefix = temp_prefix("explicit_dump");
  ASSERT_TRUE(engine.dump_flight_recorder(prefix, "unit_test"));

  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_NE(jsonl->find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(jsonl->find("task_end"), std::string::npos);
  EXPECT_NE(jsonl->find("payload_task"), std::string::npos);

  const auto trace = pdl::util::read_file(prefix + ".trace.json");
  ASSERT_TRUE(trace.has_value());
  const auto parsed = testjson::parse(*trace);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "flight recorder"));
  // Event names compose kind and label: "task_end: payload_task".
  EXPECT_NE(trace->find("payload_task"), std::string::npos);

  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

TEST(EngineFlight, PostMortemDumpOnPermanentFailure) {
  const std::string prefix = temp_prefix("postmortem");
  EngineConfig config = EngineConfig::cpus(2);
  auto plan = FaultPlan::parse("fail:task=1,attempts=99");
  ASSERT_TRUE(plan.ok()) << plan.error().str();
  config.fault_plan = std::make_shared<const FaultPlan>(std::move(plan).value());
  config.flight_dump_prefix = prefix;
  Engine engine(std::move(config));

  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}, "doomed"});
  EXPECT_FALSE(engine.wait_all().ok());

  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value()) << "post-mortem dump missing";
  EXPECT_NE(jsonl->find("\"reason\":\"wait_all_failure\""), std::string::npos);
  EXPECT_NE(jsonl->find("task_failed"), std::string::npos);
  EXPECT_NE(jsonl->find("doomed"), std::string::npos);

  const auto trace = pdl::util::read_file(prefix + ".trace.json");
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(testjson::parse(*trace).ok);

  // The dump fires once; a second wait_all must not rewrite it.
  std::remove((prefix + ".jsonl").c_str());
  EXPECT_FALSE(engine.wait_all().ok());
  EXPECT_FALSE(pdl::util::read_file(prefix + ".jsonl").has_value());
  std::remove((prefix + ".trace.json").c_str());
}

// Real threads: every finished task is one trace row, and the row carries
// the device, interval and costs of the task's one kTaskEnd flight record,
// the retried task included. The golden views only cover the simulation
// modes; this pins the hybrid worker's attempt path and the trace read.
TEST(EngineFlight, HybridTraceRowsMatchTaskEndRecords) {
  EngineConfig config = EngineConfig::cpus(4);
  ASSERT_EQ(config.mode, ExecutionMode::kHybrid);
  auto plan = FaultPlan::parse("fail:task=5,attempts=1");
  ASSERT_TRUE(plan.ok()) << plan.error().str();
  config.fault_plan = std::make_shared<const FaultPlan>(std::move(plan).value());
  Engine engine(std::move(config));

  Codelet work = make_codelet("work", [](const ExecContext& ctx) {
    for (const BufferView& view : *ctx.buffers) {
      if (view.mode != Access::kRead) static_cast<double*>(view.handle->ptr())[0] += 1.0;
    }
  });
  // Every fourth task extends a chain on one buffer (task 5 among them);
  // the rest are independent.
  constexpr std::size_t kTasks = 256;
  std::vector<std::vector<double>> buffers(kTasks, std::vector<double>(1, 0.0));
  std::vector<DataHandle*> handles;
  for (auto& buf : buffers) handles.push_back(engine.register_vector(buf.data(), 1));
  for (std::size_t t = 0; t < kTasks; ++t) {
    DataHandle* h = t % 4 == 0 ? handles[0] : handles[t];
    engine.submit(TaskDesc{&work, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(buffers[0][0], static_cast<double>(kTasks / 4));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.flight_overwritten, 0u);
  std::map<std::uint64_t, obs::FlightEvent> ends;
  for (const obs::FlightEvent& e : engine.flight_snapshot()) {
    if (e.kind != obs::FlightKind::kTaskEnd) continue;
    EXPECT_TRUE(ends.emplace(e.task, e).second) << "task " << e.task << " ended twice";
  }
  ASSERT_EQ(ends.size(), kTasks);
  EXPECT_EQ(ends.at(5).aux, 2u) << "task 5 succeeds on its second attempt";

  ASSERT_EQ(stats.trace.size(), kTasks);
  std::set<TaskId> seen;
  for (const TaskTrace& row : stats.trace) {
    EXPECT_TRUE(seen.insert(row.id).second) << "task " << row.id << " traced twice";
    const auto it = ends.find(row.id);
    ASSERT_NE(it, ends.end()) << "task " << row.id << " has no end record";
    const obs::FlightEvent& end = it->second;
    EXPECT_EQ(end.device, row.device) << "task " << row.id;
    EXPECT_EQ(end.t0, row.start_vtime) << "task " << row.id;
    EXPECT_EQ(end.t1, row.finish_vtime) << "task " << row.id;
    EXPECT_EQ(end.value, row.exec_seconds) << "task " << row.id;
    EXPECT_EQ(end.value2, row.transfer_seconds) << "task " << row.id;
  }
  EXPECT_TRUE(std::is_sorted(stats.trace.begin(), stats.trace.end(),
                             [](const TaskTrace& a, const TaskTrace& b) {
                               return a.start_vtime != b.start_vtime
                                          ? a.start_vtime < b.start_vtime
                                          : a.id < b.id;
                             }));
}

// --- Rings over uninitialized memory ----------------------------------------

// Slots are never zeroed: a fresh recorder placed over the freed slots of a
// full one (the allocator hands the same chunks back, as in an engine
// rebuilt per program) must still read as empty.
TEST(Flight, FreshRecorderOverReusedMemoryIsEmpty) {
  constexpr std::size_t kRings = 1001;
  constexpr std::size_t kRecords = 1024;
  {
    obs::FlightRecorder full(kRings, kRecords);
    for (std::size_t r = 0; r < kRings; ++r) {
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        full.ring(r).record(obs::FlightKind::kTaskEnd, 1, i + 1,
                            static_cast<std::int64_t>(r),
                            static_cast<double>(i), static_cast<double>(i + 1),
                            1.0);
      }
    }
    ASSERT_EQ(full.produced(), kRings * kRecords);
  }
  const obs::FlightRecorder fresh(kRings, kRecords);
  EXPECT_EQ(fresh.produced(), 0u);
  EXPECT_EQ(fresh.overwritten(), 0u);
  EXPECT_TRUE(fresh.snapshot().empty());
}

// --- Concurrent readers (run under the CI TSan filter) ----------------------

// First lap: nothing is overwritten yet, so every snapshot must be exactly
// the records published so far — a gap-free prefix from seq 0, at least
// as long as produced() before the read and never past produced() after.
TEST(FlightRecorderStress, FirstLapSnapshotsSeeOnlyPublishedRecords) {
  constexpr std::uint64_t kRecords = 50000;
  obs::FlightRing ring(kRecords + 1);  // rounds up: never wraps

  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ring.record(obs::FlightKind::kQueueDepth, 0, i, 0,
                  static_cast<double>(i), 0.0, static_cast<double>(i));
    }
  });

  std::uint64_t snapshots = 0;
  std::vector<obs::FlightEvent> events;
  for (bool last = false; !last && !HasFailure();) {
    const std::uint64_t before = ring.produced();
    last = before == kRecords;
    events.clear();
    ring.snapshot_into(events, 0);
    const std::uint64_t after = ring.produced();
    ++snapshots;
    EXPECT_GE(events.size(), before);
    EXPECT_LE(events.size(), after);
    std::size_t prefix = 0;
    while (prefix < events.size() && events[prefix].seq == prefix &&
           events[prefix].task == prefix &&
           events[prefix].value == static_cast<double>(prefix)) {
      ++prefix;
    }
    EXPECT_EQ(prefix, events.size()) << "snapshot " << snapshots;
  }
  producer.join();

  EXPECT_EQ(events.size(), kRecords);
  EXPECT_EQ(ring.overwritten(), 0u);
}

TEST(FlightRecorderStress, SnapshotsStayConsistentWhileProducerWraps) {
  obs::FlightRing ring(16);  // tiny: the producer laps it thousands of times
  constexpr std::uint64_t kRecords = 200000;

  // The producer starts only after the first snapshot, so a fast producer
  // cannot finish before the reader has looked at the ring even once.
  std::latch first_snapshot(1);
  std::thread producer([&ring, &first_snapshot] {
    first_snapshot.wait();
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ring.record(obs::FlightKind::kQueueDepth, 0, i, 0,
                  static_cast<double>(i), 0.0, static_cast<double>(i));
    }
  });

  std::uint64_t snapshots = 0;
  std::uint64_t total_events = 0;
  std::vector<obs::FlightEvent> events;
  do {
    events.clear();
    ring.snapshot_into(events, 0);
    if (snapshots == 0) first_snapshot.count_down();
    ASSERT_LE(events.size(), ring.capacity());
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Every surviving record is internally consistent (payload matches
      // its sequence number — a torn read would break this) and ordered.
      EXPECT_EQ(events[i].task, events[i].seq);
      EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(events[i].seq));
      if (i > 0) {
        EXPECT_GT(events[i].seq, events[i - 1].seq);
      }
    }
    ++snapshots;
    total_events += events.size();
  } while (ring.produced() < kRecords);
  producer.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(ring.produced(), kRecords);
  EXPECT_EQ(ring.overwritten(), kRecords - ring.capacity());

  // Quiescent ring: the final snapshot is exactly the newest window.
  events.clear();
  ring.snapshot_into(events, 0);
  ASSERT_EQ(events.size(), ring.capacity());
  EXPECT_EQ(events.back().seq, kRecords - 1);
}

}  // namespace
}  // namespace starvm
