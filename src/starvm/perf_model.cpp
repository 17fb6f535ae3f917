#include "starvm/perf_model.hpp"

#include <cstddef>

namespace starvm {

namespace {
// Weight of the newest sample; high enough to track phase changes, low
// enough to smooth scheduler-induced jitter.
constexpr double kEmaAlpha = 0.25;
// Estimate when neither history nor a FLOPs model exists.
constexpr double kDefaultEstimateSeconds = 1e-3;
}  // namespace

double PerfModel::analytic_estimate(double flops, double device_gflops) {
  if (flops > 0.0 && device_gflops > 0.0) {
    return flops / (device_gflops * 1e9);
  }
  return kDefaultEstimateSeconds;
}

PerfModel::Row& PerfModel::row(std::string_view codelet) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = history_.find(codelet);
  if (it == history_.end()) {
    it = history_.emplace(std::string(codelet), std::make_unique<Row>()).first;
  }
  return *it->second;
}

PerfModel::Row* PerfModel::find_row(std::string_view codelet) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = history_.find(codelet);
  return it == history_.end() ? nullptr : it->second.get();
}

double PerfModel::estimate_in(const Row& row, int device, double flops,
                              double device_gflops) {
  if (device >= 0 && device < kMaxDevices) {
    const DeviceHistory& h = row[static_cast<std::size_t>(device)];
    if (h.count.load(std::memory_order_acquire) > 0) {
      return h.ema_seconds.load(std::memory_order_relaxed);
    }
    if (h.seeded.load(std::memory_order_acquire) != 0) {
      return analytic_estimate(flops, h.ema_gflops.load(std::memory_order_relaxed));
    }
  }
  return analytic_estimate(flops, device_gflops);
}

void PerfModel::observe_in(Row& row, int device, double seconds, double flops) {
  if (device < 0 || device >= kMaxDevices) return;
  DeviceHistory& h = row[static_cast<std::size_t>(device)];
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

bool PerfModel::seed_in(Row& row, int device, double gflops) {
  if (device < 0 || device >= kMaxDevices || gflops <= 0.0) return false;
  DeviceHistory& h = row[static_cast<std::size_t>(device)];
  if (h.count.load(std::memory_order_relaxed) > 0 ||
      h.seeded.load(std::memory_order_relaxed) != 0) {
    return false;
  }
  h.ema_gflops.store(gflops, std::memory_order_relaxed);
  h.seeded.store(1, std::memory_order_release);
  return true;
}

std::optional<double> PerfModel::measured_gflops_in(const Row& row, int device) {
  if (device < 0 || device >= kMaxDevices) return std::nullopt;
  const DeviceHistory& h = row[static_cast<std::size_t>(device)];
  if (h.count.load(std::memory_order_acquire) == 0) return std::nullopt;
  const double rate = h.ema_gflops.load(std::memory_order_relaxed);
  if (rate <= 0.0) return std::nullopt;
  return rate;
}

double PerfModel::estimate(std::string_view codelet, int device, double flops,
                           double device_gflops) const {
  if (const Row* row = find_row(codelet)) {
    return estimate_in(*row, device, flops, device_gflops);
  }
  return analytic_estimate(flops, device_gflops);
}

std::optional<double> PerfModel::history_estimate(std::string_view codelet,
                                                  int device) const {
  if (device < 0 || device >= kMaxDevices) return std::nullopt;
  const Row* row = find_row(codelet);
  if (row == nullptr) return std::nullopt;
  const DeviceHistory& h = (*row)[static_cast<std::size_t>(device)];
  if (h.count.load(std::memory_order_acquire) == 0) return std::nullopt;
  return h.ema_seconds.load(std::memory_order_relaxed);
}

void PerfModel::observe(std::string_view codelet, int device, double seconds) {
  if (device < 0 || device >= kMaxDevices) return;
  observe_in(row(codelet), device, seconds);
}

std::uint64_t PerfModel::samples(std::string_view codelet, int device) const {
  if (device < 0 || device >= kMaxDevices) return 0;
  const Row* row = find_row(codelet);
  if (row == nullptr) return 0;
  return (*row)[static_cast<std::size_t>(device)].count.load(
      std::memory_order_acquire);
}

std::vector<PerfModel::Sample> PerfModel::snapshot() const {
  std::vector<Sample> samples;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [codelet, row] : history_) {
    for (int device = 0; device < kMaxDevices; ++device) {
      const DeviceHistory& h = (*row)[static_cast<std::size_t>(device)];
      const std::uint64_t count = h.count.load(std::memory_order_acquire);
      if (count == 0) continue;
      samples.push_back(Sample{codelet, device,
                               h.ema_seconds.load(std::memory_order_relaxed),
                               count,
                               h.ema_gflops.load(std::memory_order_relaxed)});
    }
  }
  return samples;
}

void PerfModel::preload(std::string_view codelet, int device,
                        double ema_seconds, std::uint64_t count,
                        double ema_gflops) {
  if (device < 0 || device >= kMaxDevices || count == 0) return;
  DeviceHistory& h = row(codelet)[static_cast<std::size_t>(device)];
  h.ema_seconds.store(ema_seconds, std::memory_order_relaxed);
  h.ema_gflops.store(ema_gflops, std::memory_order_relaxed);
  h.count.store(count, std::memory_order_release);
}

double transfer_seconds(std::size_t bytes, double bandwidth_gbs, double latency_us) {
  if (bandwidth_gbs <= 0.0) return latency_us * 1e-6;
  return latency_us * 1e-6 + static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
}

}  // namespace starvm
