// Per-(codelet, device) execution-time estimation.
//
// StarPU's model-based schedulers rely on calibrated per-codelet history;
// we reproduce that with an exponential moving average of observed costs,
// falling back to the analytic FLOPs / sustained-GFLOPS estimate before
// history exists (paper §II: PDL properties feed performance prediction).
//
// Thread-safe two ways:
//  - The name-keyed API (estimate/observe/samples/snapshot/preload) takes
//    an internal mutex and is safe from any thread.
//  - The hot path avoids that mutex entirely: row() hands out a stable
//    pointer to a codelet's calibration row once (at task wiring), and
//    estimate_in / observe_in operate on the row's atomic cells lock-free.
//    Each (codelet, device) cell has one writer at a time — the engine
//    observes only under its mutex — so a relaxed-store / release-count
//    protocol suffices; readers pair it with an acquire load of the count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace starvm {

class PerfModel {
 public:
  /// Row width; engines enforce far fewer devices than this at construction.
  static constexpr int kMaxDevices = 64;

  /// One (codelet, device) calibration cell. `count` is released *after*
  /// `ema_seconds` so an estimator that observes count > 0 reads a real
  /// sample, never a half-initialized one. `ema_gflops` tracks the observed
  /// compute rate (size-independent, so cross-variant comparison works even
  /// when variants ran on different problem sizes); before any observation
  /// it may hold a declared-rate seed, flagged by `seeded` with the same
  /// store-payload-then-release-flag protocol.
  struct DeviceHistory {
    std::atomic<double> ema_seconds{0.0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> ema_gflops{0.0};
    std::atomic<std::uint32_t> seeded{0};
  };
  /// A codelet's calibration row, indexed by device id. Address is stable
  /// for the model's lifetime — safe to cache on task nodes.
  using Row = std::array<DeviceHistory, kMaxDevices>;

  /// Stable pointer to `codelet`'s row, created empty on first use. Takes
  /// the mutex; call once per codelet and cache, not once per task.
  Row& row(std::string_view codelet);

  /// The analytic model: FLOPs / sustained GFLOPS, or a fixed default when
  /// either is unknown. What every estimate falls back to without history.
  static double analytic_estimate(double flops, double device_gflops);

  /// Lock-free estimate from a cached row: history wins, then a seeded
  /// declared rate, else the analytic FLOPs / sustained-GFLOPS model, else
  /// a fixed default. Seeding with the device's own sustained rate is
  /// byte-identical to the unseeded analytic fallback — warm and cold
  /// starts share this one code path.
  static double estimate_in(const Row& row, int device, double flops,
                            double device_gflops);

  /// Lock-free observation into a cached row (single writer per cell).
  /// When `flops` is known the cell's rate EMA is updated too; the first
  /// real sample blends with a declared-rate seed (when present) instead
  /// of slamming the estimate from a single measurement.
  static void observe_in(Row& row, int device, double seconds,
                         double flops = 0.0);

  /// Seed a cell's rate estimate from a declared SUSTAINED_GFLOPS value.
  /// No-op (returns false) once the cell has history, a preloaded store
  /// entry, or a prior seed. Called at task wiring (before the codelet's
  /// first dispatch), so it never races the cell's single observer.
  static bool seed_in(Row& row, int device, double gflops);

  /// Observed rate EMA for a cell, or nullopt before any observation
  /// (seeds don't count: they are priors, not measurements).
  static std::optional<double> measured_gflops_in(const Row& row, int device);

  /// Estimated seconds for a task of `flops` useful work on device `device`
  /// running at `device_gflops`. History, when present, wins.
  double estimate(std::string_view codelet, int device, double flops,
                  double device_gflops) const;

  /// Calibrated estimate only: the EMA when the pair has history, nullopt
  /// otherwise. Side-effect-free — never creates a row, so a caller can
  /// probe an engine's model without mutating it.
  std::optional<double> history_estimate(std::string_view codelet,
                                         int device) const;

  /// Record an observed execution time (seconds).
  void observe(std::string_view codelet, int device, double seconds);

  /// Number of observations recorded for the pair.
  std::uint64_t samples(std::string_view codelet, int device) const;

  /// One calibrated (codelet, device) cell, as exported to / imported from
  /// the persisted perf store (perf_store.hpp), the one on-disk form of
  /// the calibration history.
  struct Sample {
    std::string codelet;
    int device = 0;
    double ema_seconds = 0.0;
    std::uint64_t count = 0;
    double ema_gflops = 0.0;  ///< observed rate EMA; 0 = rate never known
  };

  /// Every cell with real history (count > 0), in deterministic
  /// codelet-then-device order. Seed-only cells are omitted: priors are
  /// re-derived from the descriptor, not persisted.
  std::vector<Sample> snapshot() const;

  /// Install a persisted cell. Overwrites any existing history for the
  /// pair; intended for engine start, before workers observe anything.
  void preload(std::string_view codelet, int device, double ema_seconds,
               std::uint64_t count, double ema_gflops);

 private:
  Row* find_row(std::string_view codelet) const;

  /// Rows are heap-allocated so map rebalancing never moves them; the map
  /// itself (insertion only) is guarded by the mutex, the cells are not.
  using HistoryMap = std::map<std::string, std::unique_ptr<Row>, std::less<>>;
  HistoryMap history_;
  mutable std::mutex mutex_;
};

/// Analytic transfer time: latency + bytes / bandwidth.
double transfer_seconds(std::size_t bytes, double bandwidth_gbs, double latency_us);

}  // namespace starvm
