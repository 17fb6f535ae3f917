#include "starvm/perf_model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <tuple>

namespace starvm {

namespace {
// Weight of the newest sample; high enough to track phase changes, low
// enough to smooth scheduler-induced jitter.
constexpr double kEmaAlpha = 0.25;
// Estimate of work no flops model describes, or at an unknown rate.
constexpr double kDefaultEstimateSeconds = 1e-3;
}  // namespace

std::uint64_t class_key(const DeviceSpec& spec) {
  // %.17g round-trips every double, so equal specs render equal text.
  char canon[256];
  std::snprintf(canon, sizeof(canon), "%d|%.17g|%.17g|%.17g|%zu|%d|%.17g",
                static_cast<int>(spec.kind), spec.sustained_gflops,
                spec.link_bandwidth_gbs, spec.link_latency_us,
                spec.memory_bytes, spec.max_retries, spec.mtbf_hours);
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const char* c = canon; *c != '\0'; ++c) {
    hash ^= static_cast<unsigned char>(*c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

DeviceClasses device_classes(const std::vector<DeviceSpec>& devices) {
  using Flavor =
      std::tuple<int, double, double, double, std::size_t, int, double>;
  std::map<Flavor, std::size_t> flavors;
  DeviceClasses classes;
  classes.of.reserve(devices.size());
  for (const DeviceSpec& spec : devices) {
    const auto [it, fresh] = flavors.emplace(
        Flavor{static_cast<int>(spec.kind), spec.sustained_gflops,
               spec.link_bandwidth_gbs, spec.link_latency_us,
               spec.memory_bytes, spec.max_retries, spec.mtbf_hours},
        classes.keys.size());
    if (fresh) classes.keys.push_back(class_key(spec));
    classes.of.push_back(it->second);
  }
  return classes;
}

PerfModel::PerfModel(std::vector<std::uint64_t> class_keys)
    : keys_(std::move(class_keys)) {}

double PerfModel::analytic_estimate(std::optional<double> flops,
                                    double gflops) {
  if (flops && *flops <= 0.0) return 0.0;
  if (flops && gflops > 0.0) return *flops / (gflops * 1e9);
  return kDefaultEstimateSeconds;
}

PerfModel::Cell* PerfModel::row(std::string_view codelet) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = history_.find(codelet);
  if (it == history_.end()) {
    it = history_
             .emplace(std::string(codelet), std::make_unique<Cell[]>(keys_.size()))
             .first;
  }
  return it->second.get();
}

PerfModel::Cell* PerfModel::find_row(std::string_view codelet) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = history_.find(codelet);
  return it == history_.end() ? nullptr : it->second.get();
}

double PerfModel::estimate_in(const Cell* row, std::size_t cls,
                              std::optional<double> flops, double gflops) {
  if (flops && *flops <= 0.0) return 0.0;
  const Cell& h = row[cls];
  if (h.count.load(std::memory_order_acquire) > 0) {
    const double rate = h.ema_gflops.load(std::memory_order_relaxed);
    if (flops && rate > 0.0) return *flops / (rate * 1e9);
    return h.ema_seconds.load(std::memory_order_relaxed);
  }
  if (h.seeded.load(std::memory_order_acquire) != 0) {
    gflops = h.ema_gflops.load(std::memory_order_relaxed);
  }
  return analytic_estimate(flops, gflops);
}

void PerfModel::observe_in(Cell* row, std::size_t cls, double seconds,
                           double flops) {
  Cell& h = row[cls];
  const std::uint64_t count = h.count.load(std::memory_order_relaxed);
  const double prev_rate = h.ema_gflops.load(std::memory_order_relaxed);
  const bool seeded =
      count == 0 && h.seeded.load(std::memory_order_relaxed) != 0;
  double ema;
  if (count > 0) {
    ema = kEmaAlpha * seconds +
          (1.0 - kEmaAlpha) * h.ema_seconds.load(std::memory_order_relaxed);
  } else if (seeded && flops > 0.0 && prev_rate > 0.0) {
    // First real sample: blend with the declared-rate prior (expressed in
    // seconds through this task's own FLOPs) rather than slamming the
    // estimate from one measurement.
    ema = kEmaAlpha * seconds + (1.0 - kEmaAlpha) * (flops / (prev_rate * 1e9));
  } else {
    ema = seconds;
  }
  if (flops > 0.0 && seconds > 0.0) {
    const double rate = flops / (seconds * 1e9);
    const bool have_prior = prev_rate > 0.0 && (count > 0 || seeded);
    const double rate_ema =
        have_prior ? kEmaAlpha * rate + (1.0 - kEmaAlpha) * prev_rate : rate;
    h.ema_gflops.store(rate_ema, std::memory_order_relaxed);
  }
  h.ema_seconds.store(ema, std::memory_order_relaxed);
  h.count.store(count + 1, std::memory_order_release);
}

bool PerfModel::seed_in(Cell* row, std::size_t cls, double gflops) {
  Cell& h = row[cls];
  if (gflops <= 0.0 || h.count.load(std::memory_order_relaxed) > 0 ||
      h.seeded.load(std::memory_order_relaxed) != 0) {
    return false;
  }
  h.ema_gflops.store(gflops, std::memory_order_relaxed);
  h.seeded.store(1, std::memory_order_release);
  return true;
}

double PerfModel::estimate(std::string_view codelet, std::size_t cls,
                           std::optional<double> flops, double gflops) const {
  if (const Cell* row = find_row(codelet)) {
    return estimate_in(row, cls, flops, gflops);
  }
  return analytic_estimate(flops, gflops);
}

std::uint64_t PerfModel::samples(std::string_view codelet,
                                 std::size_t cls) const {
  const Cell* row = find_row(codelet);
  return row == nullptr ? 0 : row[cls].count.load(std::memory_order_acquire);
}

std::vector<PerfModel::Sample> PerfModel::snapshot() const {
  std::vector<Sample> samples;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [codelet, row] : history_) {
    for (std::size_t cls = 0; cls < keys_.size(); ++cls) {
      const Cell& h = row[cls];
      const std::uint64_t count = h.count.load(std::memory_order_acquire);
      if (count == 0) continue;
      samples.push_back(Sample{codelet, keys_[cls],
                               h.ema_seconds.load(std::memory_order_relaxed),
                               count,
                               h.ema_gflops.load(std::memory_order_relaxed)});
    }
  }
  return samples;
}

bool PerfModel::preload(const Sample& sample) {
  const auto key = std::find(keys_.begin(), keys_.end(), sample.class_key);
  if (key == keys_.end() || sample.count == 0) return false;
  Cell& h = row(sample.codelet)[key - keys_.begin()];
  h.ema_seconds.store(sample.ema_seconds, std::memory_order_relaxed);
  h.ema_gflops.store(sample.ema_gflops, std::memory_order_relaxed);
  h.count.store(sample.count, std::memory_order_release);
  return true;
}

double transfer_seconds(std::size_t bytes, double bandwidth_gbs, double latency_us) {
  if (bandwidth_gbs <= 0.0) return latency_us * 1e-6;
  return latency_us * 1e-6 + static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
}

}  // namespace starvm
