// Flight-recorder tests: the engine's always-on lane ring (task lifecycle
// records, submission accounting), the fault lane read off the fault log
// and the snapshot order, explicit and post-mortem dumps, a ring built over
// reused uninitialized memory, and concurrent stress runs that hammer
// snapshots while the producer fills the ring, while it laps it and while
// a threaded engine retries and blacklists. The CI TSan job runs every
// *Flight* and *Stress* test of this file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
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

  ASSERT_NE(engine.flight_ring(), nullptr);
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

  EXPECT_EQ(engine.flight_ring(), nullptr);
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

// The engine reads no environment: PDL_FLIGHT_DUMP reaches it only through
// rt::Context, which forwards it as EngineConfig::flight_dump_prefix.
TEST(EngineFlight, BareEngineIgnoresTheDumpEnvironment) {
  const std::string prefix = temp_prefix("bare_engine_env");
  // No ASSERT until the variable is unset again: it must not leak into the
  // tests that follow in this process.
  ::setenv("PDL_FLIGHT_DUMP", prefix.c_str(), 1);
  {
    EngineConfig config = EngineConfig::cpus(2);
    config.fault_plan = std::make_shared<const FaultPlan>(
        FaultPlan::parse("fail:task=1,attempts=99").value());
    Engine engine(std::move(config));
    Codelet noop = make_codelet("noop", [](const ExecContext&) {});
    std::vector<double> data(1);
    DataHandle* h = engine.register_vector(data.data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}, "doomed"});
    EXPECT_FALSE(engine.wait_all().ok());
  }
  ::unsetenv("PDL_FLIGHT_DUMP");
  EXPECT_FALSE(pdl::util::read_file(prefix + ".jsonl").has_value());
  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

bool snapshot_order(const obs::FlightEvent& a, const obs::FlightEvent& b) {
  return std::tie(a.t0, a.ring, a.seq) < std::tie(b.t0, b.ring, b.seq);
}

// One ring serves every lane, so its seq runs across lanes; the snapshot
// orders records by (t0, lane, seq). On two CPUs, Z (long) runs on device
// 0 and W (short) on device 1; Z's end releases the readers X and Y at
// once. Device 1 is free first and starts X; device 0 then starts Y at
// the same virtual time. Y's records are written after X's, yet device
// 0's lane comes first.
TEST(EngineFlight, SnapshotOrdersByTimeLaneAndSeq) {
  EngineConfig config = EngineConfig::cpus(2);
  config.mode = ExecutionMode::kDeterministic;
  config.scheduler = SchedulerKind::kEager;
  Engine engine(std::move(config));
  Codelet slow = make_codelet("slow", [](const ExecContext&) {});
  slow.flops = [](const std::vector<BufferView>&) { return 5e6; };
  Codelet fast = make_codelet("fast", [](const ExecContext&) {});
  fast.flops = [](const std::vector<BufferView>&) { return 5e3; };
  std::vector<double> h_data(1), w_data(1);
  DataHandle* h = engine.register_vector(h_data.data(), 1);
  DataHandle* w = engine.register_vector(w_data.data(), 1);
  engine.submit(TaskDesc{&slow, {{h, Access::kReadWrite}}, "Z"});
  engine.submit(TaskDesc{&fast, {{w, Access::kReadWrite}}, "W"});
  const TaskId x = engine.submit(TaskDesc{&fast, {{h, Access::kRead}}, "X"});
  const TaskId y = engine.submit(TaskDesc{&fast, {{h, Access::kRead}}, "Y"});
  ASSERT_TRUE(engine.wait_all().ok());

  const std::vector<obs::FlightEvent> events = engine.flight_snapshot();
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(), snapshot_order));
  std::set<std::uint64_t> seqs;
  const obs::FlightEvent* x_start = nullptr;
  const obs::FlightEvent* y_start = nullptr;
  for (const obs::FlightEvent& e : events) {
    EXPECT_EQ(e.ring, static_cast<std::uint32_t>(e.device)) << "a lane is its device";
    EXPECT_TRUE(seqs.insert(e.seq).second) << "seq " << e.seq << " is ring-wide";
    if (e.kind != obs::FlightKind::kTaskStart) continue;
    if (e.task == x) x_start = &e;
    if (e.task == y) y_start = &e;
  }
  ASSERT_NE(x_start, nullptr);
  ASSERT_NE(y_start, nullptr);
  EXPECT_EQ(x_start->device, 1);
  EXPECT_EQ(y_start->device, 0);
  EXPECT_EQ(x_start->t0, y_start->t0);
  EXPECT_GT(y_start->seq, x_start->seq) << "Y is written after X";
  EXPECT_LT(y_start, x_start) << "device 0's lane comes first";
}

// The fault lane is read off the fault log and bounded like a ring of
// flight_records_per_device slots: it keeps the newest fault events, the
// older ones count as overwritten, and the log's one non-fault entry (a
// completion after a retry) is neither shown nor counted.
TEST(EngineFlight, FaultLaneKeepsTheNewestFaultEvents) {
  EngineConfig config = EngineConfig::cpus(4);
  config.mode = ExecutionMode::kDeterministic;
  config.flight_records_per_device = 8;
  config.fault_tolerance.max_retries = 10;
  config.fault_tolerance.blacklist_after = 0;
  auto plan = FaultPlan::parse("fail:task=1,attempts=99;fail:task=2,attempts=1");
  ASSERT_TRUE(plan.ok()) << plan.error().str();
  config.fault_plan = std::make_shared<const FaultPlan>(std::move(plan).value());
  Engine engine(std::move(config));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<std::vector<double>> buffers(2, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  EXPECT_FALSE(engine.wait_all().ok());

  // Task 1: 11 failures, 10 retries, 1 permanent failure; task 2: one
  // failure and one retry before it completes.
  const EngineStats stats = engine.stats();
  constexpr std::uint64_t kFaults = 24;
  constexpr std::uint64_t kKept = 8;
  ASSERT_EQ(stats.fault_events.size(), kFaults);
  ASSERT_EQ(stats.attempts.size(), 13u);  // 12 failed attempts, 1 completion
  const obs::FlightRing& lanes = *engine.flight_ring();
  EXPECT_EQ(lanes.capacity(), 32u);  // 8 per device, one ring
  EXPECT_EQ(stats.flight_records, lanes.produced() + kFaults);
  EXPECT_EQ(stats.flight_overwritten, lanes.overwritten() + kFaults - kKept);

  std::vector<obs::FlightEvent> fault_lane;
  for (const obs::FlightEvent& e : engine.flight_snapshot()) {
    if (e.ring == engine.device_count()) fault_lane.push_back(e);
  }
  ASSERT_EQ(fault_lane.size(), kKept);
  std::sort(fault_lane.begin(), fault_lane.end(),
            [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < kKept; ++i) {
    const obs::FlightEvent& r = fault_lane[i];
    const FaultEvent& f = stats.fault_events[kFaults - kKept + i];
    EXPECT_EQ(r.seq, kFaults - kKept + i);
    EXPECT_EQ(r.kind, f.kind);
    EXPECT_EQ(r.task, f.task);
    EXPECT_EQ(r.device, f.device);
    EXPECT_EQ(r.aux, static_cast<std::uint32_t>(f.attempt));
    EXPECT_EQ(r.t0, f.vtime);
    EXPECT_FALSE(r.has_end());
  }

  // The dump's header carries the same totals.
  const std::string prefix = temp_prefix("fault_lane");
  ASSERT_TRUE(engine.dump_flight_recorder(prefix, "bound"));
  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_NE(jsonl->find("\"produced\":" + std::to_string(stats.flight_records) +
                        ",\"overwritten\":" +
                        std::to_string(stats.flight_overwritten) + "}"),
            std::string::npos)
      << jsonl->substr(0, jsonl->find('\n'));
  std::remove((prefix + ".jsonl").c_str());
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

// Slots are never zeroed: a fresh ring placed over the freed slots of a
// full one (the allocator hands the same chunk back, as in an engine
// rebuilt per program) must still read as empty. The sizes cover a
// thread-cache chunk, a heap chunk and one the allocator maps.
TEST(Flight, FreshRingOverReusedMemoryIsEmpty) {
  for (const std::size_t records : {8u, 1024u, 16384u}) {
    {
      obs::FlightRing full(records);
      for (std::uint64_t i = 0; i < full.capacity() + 3; ++i) {
        full.record(obs::FlightKind::kTaskEnd, 1, i + 1,
                    static_cast<std::int64_t>(i % 1000), static_cast<double>(i),
                    static_cast<double>(i + 1), 1.0);
      }
      ASSERT_EQ(full.overwritten(), 3u);
    }
    const obs::FlightRing fresh(records);
    EXPECT_EQ(fresh.produced(), 0u) << records;
    EXPECT_EQ(fresh.overwritten(), 0u) << records;
    std::vector<obs::FlightEvent> events;
    fresh.snapshot_into(events, 0);
    EXPECT_TRUE(events.empty()) << records;
  }
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

// A second thread snapshots and dumps while a threaded engine retries a
// failed task, blacklists a dying device and re-routes its queue: the lane
// ring is read lock-free while workers write it under the engine lock, and
// the fault lane is copied off the fault log while it grows.
TEST(EngineFlightStress, SnapshotsAndDumpsWhileAThreadedRunRecovers) {
  EngineConfig config = EngineConfig::cpus(4);
  ASSERT_EQ(config.mode, ExecutionMode::kHybrid);
  auto plan = FaultPlan::parse("fail:task=3,attempts=1;kill:device=1,after=4");
  ASSERT_TRUE(plan.ok()) << plan.error().str();
  config.fault_plan = std::make_shared<const FaultPlan>(std::move(plan).value());
  Engine engine(std::move(config));
  Codelet work = make_codelet("work", [](const ExecContext& ctx) {
    static_cast<double*>((*ctx.buffers)[0].handle->ptr())[0] += 1.0;
  });

  const std::string prefix = temp_prefix("flight_stress");
  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0;
  // Submission starts after the first snapshot, so the reader overlaps
  // the run however fast it drains.
  std::latch reading(1);
  std::thread reader([&] {
    while (!done.load()) {
      const std::vector<obs::FlightEvent> events = engine.flight_snapshot();
      EXPECT_TRUE(std::is_sorted(events.begin(), events.end(), snapshot_order));
      for (const obs::FlightEvent& e : events) {
        const bool fault = e.kind >= obs::FlightKind::kRetry;
        EXPECT_EQ(e.ring, fault ? engine.device_count()
                                : static_cast<std::size_t>(e.device));
      }
      if (++snapshots % 8 == 0) {
        EXPECT_TRUE(engine.dump_flight_recorder(prefix));
      }
      if (snapshots == 1) reading.count_down();
    }
  });
  reading.wait();

  constexpr std::size_t kTasks = 512;
  std::vector<std::vector<double>> buffers(kTasks, std::vector<double>(1, 0.0));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&work, {{h, Access::kReadWrite}}});
  }
  (void)engine.wait_all();
  done.store(true);
  reader.join();
  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());

  const EngineStats stats = engine.stats();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.devices_blacklisted, 1u);
  EXPECT_EQ(stats.tasks_completed + stats.failed_tasks, kTasks);
  EXPECT_EQ(stats.flight_overwritten, 0u);
  std::uint64_t ends = 0;
  for (const obs::FlightEvent& e : engine.flight_snapshot()) {
    if (e.kind == obs::FlightKind::kTaskEnd) ++ends;
  }
  EXPECT_EQ(ends, stats.tasks_completed);
}

}  // namespace
}  // namespace starvm
