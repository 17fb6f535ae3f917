#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>

#include "json_checker.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "starvm/engine.hpp"
#include "starvm/trace_export.hpp"

namespace obs {
namespace {

TEST(Metrics, CounterCountsAndResets) {
  Counter& c = counter("test.counter_basic");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), before + 5);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  // The registry hands back the same instrument for the same name.
  EXPECT_EQ(&counter("test.counter_basic"), &c);
}

TEST(Metrics, GaugeTracksLevelAndHighWater) {
  Gauge& g = gauge("test.gauge_basic");
  g.reset();
  g.add(3);
  g.add(2);
  g.add(-4);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_water(), 5);
  g.set(10);
  EXPECT_EQ(g.high_water(), 10);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
  EXPECT_EQ(g.high_water(), 10);
}

TEST(Metrics, HistogramLog2Buckets) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);

  Histogram& h = histogram("test.hist_basic");
  h.reset();
  h.record(0);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1003u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(Metrics, SnapshotJsonParsesAndListsInstruments) {
  counter("test.snapshot_counter").inc(7);
  gauge("test.snapshot_gauge").set(3);
  histogram("test.snapshot_hist").record(42);
  const std::string json = metrics_snapshot_json();
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, "test.snapshot_counter"));
  EXPECT_TRUE(testjson::contains_string(parsed, "test.snapshot_gauge"));
  EXPECT_TRUE(testjson::contains_string(parsed, "test.snapshot_hist"));
  EXPECT_NE(json.find("\"test.snapshot_counter\":7"), std::string::npos) << json;
}

TEST(Metrics, ResetKeepsReferencesValid) {
  Counter& c = counter("test.reset_ref");
  c.inc(9);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(counter("test.reset_ref").value(), 1u);
}

TEST(Trace, SpanRecordsOnlyWhenEnabled) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(false);
  { Span span("off.work"); }
  EXPECT_TRUE(tracer.snapshot().empty());

  tracer.set_enabled(true);
  {
    Span span("on.work", "detail text");
  }
  tracer.set_enabled(false);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "on.work");
  EXPECT_EQ(spans[0].detail, "detail text");
  EXPECT_GE(spans[0].dur_us, 0.0);
  tracer.clear();
}

TEST(Trace, ThreadOrdinalsAreStableAndDistinct) {
  const std::uint32_t mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);
  std::uint32_t other = mine;
  std::thread([&] { other = thread_ordinal(); }).join();
  EXPECT_NE(other, mine);
}

TEST(Trace, JsonEscapeCoversSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(Trace, ChromeTraceOfSpansIsValidJson) {
  std::vector<SpanRecord> spans;
  spans.push_back(SpanRecord{"parse \"quoted\"", "file\\path", 10.0, 5.0, 0});
  spans.push_back(SpanRecord{"codegen", "", 20.0, 1.0, 1});
  const std::string json = to_chrome_trace(spans);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, "parse \"quoted\""));
  EXPECT_TRUE(testjson::contains_string(parsed, "thread_name"));
}

TEST(Env, TracePathIgnoresBooleanValues) {
  setenv("PDL_TRACE", "0", 1);
  EXPECT_EQ(env_trace_path(), "");
  setenv("PDL_TRACE", "1", 1);
  EXPECT_EQ(env_trace_path(), "");
  setenv("PDL_TRACE", "/tmp/x.json", 1);
  EXPECT_EQ(env_trace_path(), "/tmp/x.json");
  unsetenv("PDL_TRACE");
  EXPECT_EQ(env_trace_path(), "");
}

// --- Engine integration -------------------------------------------------------

starvm::EngineStats run_sample_engine(bool record_decisions,
                                      bool metrics = true) {
  // The engine publishes its run's totals when it ends, and only while
  // collection is on.
  set_metrics_enabled(metrics);
  starvm::EngineConfig config = starvm::EngineConfig::cpus(2, 10.0);
  config.mode = starvm::ExecutionMode::kPureSim;
  config.record_decisions = record_decisions;
  starvm::Engine engine(std::move(config));
  starvm::Codelet codelet;
  codelet.name = "work";
  codelet.impls.push_back({starvm::DeviceKind::kCpu, nullptr});
  codelet.flops = [](const std::vector<starvm::BufferView>&) { return 1e8; };
  std::vector<std::vector<double>> buffers(4, std::vector<double>(8));
  for (auto& buffer : buffers) {
    starvm::DataHandle* handle = engine.register_vector(buffer.data(), 8);
    engine.submit(
        starvm::TaskDesc{&codelet, {{handle, starvm::Access::kReadWrite}}, "t"});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  return engine.stats();
}

TEST(Decisions, OffByDefault) {
  const auto stats = run_sample_engine(false);
  EXPECT_EQ(stats.tasks_completed, 4u);
  EXPECT_TRUE(stats.decisions.empty());
}

TEST(Decisions, RecordedWithCandidatesWhenEnabled) {
  const std::uint64_t counted_before =
      counter("starvm.decisions.heft").value();
  const auto stats = run_sample_engine(true);
  EXPECT_EQ(counter("starvm.decisions.heft").value(), counted_before + 4);
  ASSERT_EQ(stats.decisions.size(), 4u);
  for (const auto& decision : stats.decisions) {
    EXPECT_GE(decision.chosen, 0);
    // The two identical CPUs form one placement class: one candidate entry
    // standing for both devices.
    ASSERT_EQ(decision.candidates.size(), 1u);
    for (const auto& candidate : decision.candidates) {
      EXPECT_FALSE(candidate.device_name.empty());
      EXPECT_EQ(candidate.class_size, 2);
      EXPECT_GE(candidate.est_finish_vtime, decision.decided_vtime);
    }
  }
}

TEST(Decisions, AppearAsInstantEventsInChromeTrace) {
  const auto stats = run_sample_engine(true);
  const std::string json = starvm::to_chrome_trace(stats);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":["), std::string::npos);
}

TEST(Decisions, RecordedWhileTracing) {
  Tracer& tracer = Tracer::instance();
  const bool was_tracing = tracer.enabled();
  tracer.set_enabled(true);
  const auto stats = run_sample_engine(false);  // the tracer alone records
  tracer.set_enabled(was_tracing);
  ASSERT_EQ(stats.decisions.size(), 4u);
  for (const auto& decision : stats.decisions) {
    EXPECT_EQ(decision.candidates.size(), 1u);
  }
}

TEST(Merged, TraceCarriesBothLanes) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  { Span span("toolchain.step"); }
  tracer.set_enabled(false);
  const auto stats = run_sample_engine(true);
  const std::string json =
      starvm::merged_chrome_trace(tracer.snapshot(), &stats);
  tracer.clear();

  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "toolchain wall time"));
  EXPECT_TRUE(testjson::contains_string(parsed, "engine virtual time"));
  EXPECT_TRUE(testjson::contains_string(parsed, "toolchain.step"));
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "decision events";
}

TEST(Merged, SpansAloneWhenNoStats) {
  const std::string json = starvm::merged_chrome_trace({}, nullptr);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "toolchain wall time"));
  EXPECT_FALSE(testjson::contains_string(parsed, "engine virtual time"));
}

TEST(EngineMetrics, CountersTickOnExecution) {
  const std::uint64_t tasks_before = counter("starvm.tasks_completed").value();
  const std::uint64_t hist_before = histogram("starvm.task_exec_us").count();
  run_sample_engine(false);
  EXPECT_EQ(counter("starvm.tasks_completed").value(), tasks_before + 4);
  EXPECT_EQ(histogram("starvm.task_exec_us").count(), hist_before + 4);
}

TEST(EngineMetrics, NothingIsPublishedWhileCollectionOff) {
  const std::uint64_t tasks_before = counter("starvm.tasks_completed").value();
  const auto stats = run_sample_engine(false, /*metrics=*/false);
  set_metrics_enabled(true);  // restore for later tests
  EXPECT_EQ(stats.tasks_completed, 4u);  // EngineStats itself is unaffected
  EXPECT_EQ(counter("starvm.tasks_completed").value(), tasks_before);
}

TEST(Metrics, QuantileInterpolatesAndClampsToObservedMax) {
  Histogram& h = histogram("test.hist_quantile");
  h.reset();
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram

  for (int i = 0; i < 99; ++i) h.record(100);
  // One populated bucket [64, 127]: every quantile interpolates inside it
  // and never exceeds the observed max.
  EXPECT_GT(h.quantile(0.05), 0.0);
  EXPECT_LE(h.quantile(0.99), 100.0);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.99));

  h.record(100000);  // a single outlier in a much higher bucket
  EXPECT_LE(h.quantile(1.0), 100000.0);
  EXPECT_GT(h.quantile(1.0), h.quantile(0.5));
  // p50 stays with the bulk of the distribution, not the outlier.
  EXPECT_LE(h.quantile(0.5), 127.0);
}

TEST(Metrics, PrometheusExposesAllInstrumentKinds) {
  counter("test.prom_counter").inc(3);
  gauge("test.prom_gauge").set(7);
  Histogram& h = histogram("test.prom_hist");
  h.reset();
  h.record(5);
  h.record(900);

  const std::string text = render_prometheus();
  EXPECT_NE(text.find("# TYPE pdl_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pdl_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("pdl_test_prom_gauge_high_water"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pdl_test_prom_hist histogram"),
            std::string::npos);
  // Cumulative le-buckets end with the +Inf catch-all and the quantile
  // estimate gauges ride along.
  EXPECT_NE(text.find("pdl_test_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pdl_test_prom_hist_sum 905"), std::string::npos);
  EXPECT_NE(text.find("pdl_test_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("pdl_test_prom_hist_p50"), std::string::npos);
  EXPECT_NE(text.find("pdl_test_prom_hist_p99"), std::string::npos);
}

TEST(Metrics, SnapshotJsonCarriesQuantileEstimates) {
  Histogram& h = histogram("test.hist_json_quantiles");
  h.reset();
  for (int i = 0; i < 32; ++i) h.record(10);
  const std::string json = metrics_snapshot_json();
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, "test.hist_json_quantiles"));
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// --- Flight recorder rings ---------------------------------------------------

TEST(Flight, RingRecordsAndSnapshotsInOrder) {
  FlightRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.record(FlightKind::kTaskStart, 1, 42, 0, 1.0, 0.0, 0.0);
  ring.record(FlightKind::kTaskEnd, 1, 42, 0, 1.0, 2.5, 1.5);
  EXPECT_EQ(ring.produced(), 2u);
  EXPECT_EQ(ring.overwritten(), 0u);

  std::vector<FlightEvent> events;
  ring.snapshot_into(events, 3);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].ring, 3u);
  EXPECT_EQ(events[0].kind, FlightKind::kTaskStart);
  EXPECT_EQ(events[0].task, 42u);
  EXPECT_FALSE(events[0].has_end());
  EXPECT_EQ(events[1].kind, FlightKind::kTaskEnd);
  EXPECT_TRUE(events[1].has_end());
  EXPECT_DOUBLE_EQ(events[1].t1, 2.5);
  EXPECT_DOUBLE_EQ(events[1].value, 1.5);
}

TEST(Flight, RingWraparoundKeepsNewestRecords) {
  FlightRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(FlightKind::kQueueDepth, 0, i, 0, static_cast<double>(i), 0.0,
                0.0);
  }
  EXPECT_EQ(ring.produced(), 20u);
  EXPECT_EQ(ring.overwritten(), 12u);

  std::vector<FlightEvent> events;
  ring.snapshot_into(events, 0);
  ASSERT_EQ(events.size(), 8u);  // exactly the resident window
  EXPECT_EQ(events.front().seq, 12u);  // oldest survivor
  EXPECT_EQ(events.back().seq, 19u);   // newest record
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(Flight, EventsJsonlHeaderAndLabels) {
  FlightRing ring(8);
  ring.record(FlightKind::kTaskStart, 1, 7, 0, 0.5, 0.0, 0.0);
  ring.record(FlightKind::kFailure, 2, 7, 0, 0.9, 0.0, 0.0);
  std::vector<FlightEvent> events;
  ring.snapshot_into(events, 0);
  const std::string jsonl = flight_events_jsonl(
      events, "unit_test", ring.produced(), ring.overwritten(),
      [](std::uint64_t task) { return task == 7 ? "dgemm[7]" : ""; });

  // One JSON object per line; the header line carries the dump reason.
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const auto parsed = testjson::parse(line);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_NE(jsonl.find("\"reason\":\"unit_test\",\"records\":2,\"produced\":2,"
                       "\"overwritten\":0"),
            std::string::npos);
  EXPECT_NE(jsonl.find("task_start"), std::string::npos);
  EXPECT_NE(jsonl.find("failure"), std::string::npos);
  EXPECT_NE(jsonl.find("dgemm[7]"), std::string::npos);
}

}  // namespace
}  // namespace obs
