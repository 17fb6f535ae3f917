// Process-wide metrics registry (counters, gauges, log2 histograms).
//
// Instruments are created once by name and live for the process lifetime,
// so hot paths cache a reference and update it with relaxed atomics:
//
//   static obs::Counter& nodes = obs::counter("xml.nodes_parsed");
//   nodes.inc();
//
// Registry::reset() zeroes every instrument in place (pointers stay valid),
// which lets tools snapshot per-invocation numbers and tests start clean.
// snapshot_json() renders the whole registry as one JSON object (see
// docs/OBSERVABILITY.md for the schema).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight tasks); tracks a high-water
/// mark so a post-hoc snapshot still shows the peak.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    update_high(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t v =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    update_high(v);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const { return high_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    high_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_high(std::int64_t v) {
    std::int64_t cur = high_.load(std::memory_order_relaxed);
    while (v > cur &&
           !high_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_{0};
};

/// Distribution of non-negative integer samples (typically microseconds)
/// over fixed log2 buckets: bucket i holds samples whose bit width is i,
/// i.e. values in [2^(i-1), 2^i - 1]; bucket 0 holds zeros.
class Histogram {
 public:
  static constexpr int kBucketCount = 32;

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Largest value bucket i can hold (2^i - 1; the last bucket is open).
  static std::uint64_t bucket_upper_bound(int i);
  static int bucket_index(std::uint64_t v);

  /// Estimated q-quantile (0 < q <= 1) by linear interpolation inside the
  /// log2 bucket containing the target rank, clamped to the observed max.
  /// 0 when the histogram is empty. Approximate by construction: exact to
  /// within the bucket's width (a factor of 2 at worst).
  double quantile(double q) const;

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> instrument map. Lookup takes a mutex; cache the reference.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms carry count/sum/max, estimated p50/p95/p99, and the sparse
  /// bucket list.
  std::string snapshot_json() const;

  /// Prometheus text exposition format (PDL_METRICS_PROM, obs/env.hpp).
  /// Names are prefixed "pdl_" with dots mapped to underscores. Counters
  /// render as `counter`, gauges as `gauge` (plus a `_high_water` gauge),
  /// histograms as `histogram` with cumulative log2 `le` buckets plus
  /// `_p50`/`_p95`/`_p99` gauges (quantile estimates; see
  /// Histogram::quantile).
  std::string render_prometheus() const;

  /// Zero every instrument in place; previously returned references stay
  /// valid (instruments are never destroyed before process exit).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide switch for metrics collection that someone must ask for:
/// while it is on, each starvm engine publishes its run's totals to the
/// registry when it ends (starvm::publish_metrics); off by default, so an
/// engine nobody observes builds no EngineStats at teardown. Flipped on by
/// obs::init_from_env() and by the tools when a trace or metrics output
/// is requested. Direct instrument use (inc()/record() on a cached
/// reference) is never gated — cold-path instrumentation such as the XML
/// parser's counters stays unconditional.
void set_metrics_enabled(bool on);
bool metrics_enabled();

/// Shorthands for the global registry.
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::global().histogram(name);
}
inline std::string metrics_snapshot_json() {
  return Registry::global().snapshot_json();
}
inline std::string render_prometheus() {
  return Registry::global().render_prometheus();
}

}  // namespace obs
