// Per-(codelet, device class) execution-time estimation.
//
// StarPU's model-based schedulers rely on calibrated per-codelet history;
// we reproduce that with an exponential moving average of observed costs,
// falling back to the analytic FLOPs / sustained-GFLOPS estimate before
// history exists (paper §II: PDL properties feed performance prediction).
//
// Devices whose specs are equal but for the name form one device class —
// one Worker with quantity="N", or PUs written out with equal properties —
// and learn together: the model keeps one cell per (codelet, class), and
// the persisted store (perf_store.hpp) one entry, keyed by class_key.
//
// Thread-safe two ways:
//  - The name-keyed API (estimate/samples/snapshot/preload) takes an
//    internal mutex and is safe from any thread.
//  - The hot path avoids that mutex entirely: row() hands out a stable
//    pointer to a codelet's cells once (at task wiring), and estimate_in /
//    observe_in operate on the cells' atomics lock-free. Each cell has one
//    writer at a time — the engine observes only under its mutex — so a
//    relaxed-store / release-count protocol suffices; readers pair it with
//    an acquire load of the count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "starvm/device.hpp"

namespace starvm {

/// The store key of a device's class: FNV-1a over a canonical rendering of
/// every DeviceSpec field but the name, so equal devices share a key on
/// any platform that declares them.
std::uint64_t class_key(const DeviceSpec& spec);

/// A device list grouped into classes of devices whose specs are equal but
/// for the name. Classes are numbered in order of their lowest member.
struct DeviceClasses {
  std::vector<std::size_t> of;      ///< device index -> class
  std::vector<std::uint64_t> keys;  ///< class -> class_key of its members
};
DeviceClasses device_classes(const std::vector<DeviceSpec>& devices);

class PerfModel {
 public:
  /// A model with one cell per (codelet, class) for the classes whose store
  /// keys are `class_keys`, in class order.
  explicit PerfModel(std::vector<std::uint64_t> class_keys);

  /// One (codelet, class) calibration cell. `count` is released *after*
  /// `ema_seconds` so an estimator that observes count > 0 reads a real
  /// sample, never a half-initialized one. `ema_gflops` tracks the observed
  /// compute rate; before any observation it may hold a declared-rate
  /// seed, flagged by `seeded` with the same store-payload-then-release-flag
  /// protocol.
  struct Cell {
    std::atomic<double> ema_seconds{0.0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> ema_gflops{0.0};
    std::atomic<std::uint32_t> seeded{0};
  };

  /// Stable pointer to `codelet`'s cells, one per class, created empty on
  /// first use. Takes the mutex; call once per codelet and cache.
  Cell* row(std::string_view codelet);

  /// The analytic model: `flops` / `gflops`. Known-zero work takes no
  /// time; unknown work (no flops model) or an unknown rate takes a fixed
  /// default.
  static double analytic_estimate(std::optional<double> flops, double gflops);

  /// Lock-free estimate from a cached row. Known-zero work is free. A cell
  /// with history prices a task of known work at its measured rate, else
  /// returns its smoothed seconds; a seeded cell prices at the seed rate;
  /// otherwise the analytic model at `gflops`. Seeding with the class's own
  /// declared rate is byte-identical to the unseeded fallback.
  static double estimate_in(const Cell* row, std::size_t cls,
                            std::optional<double> flops, double gflops);

  /// Lock-free observation into a cached row (single writer per cell).
  /// When `flops` is known the cell's rate EMA is updated too; the first
  /// real sample blends with a declared-rate seed (when present) instead
  /// of slamming the estimate from a single measurement.
  static void observe_in(Cell* row, std::size_t cls, double seconds,
                         double flops = 0.0);

  /// Seed a cell's rate estimate from a declared SUSTAINED_GFLOPS value.
  /// No-op (returns false) once the cell has history, a preloaded store
  /// entry, or a prior seed. Called at task wiring (before the codelet's
  /// first dispatch), so it never races the cell's single observer.
  static bool seed_in(Cell* row, std::size_t cls, double gflops);

  /// estimate_in on `codelet`'s row, without creating it.
  double estimate(std::string_view codelet, std::size_t cls,
                  std::optional<double> flops, double gflops) const;

  /// Number of observations recorded for the (codelet, class) pair.
  std::uint64_t samples(std::string_view codelet, std::size_t cls) const;

  /// One calibrated (codelet, class) cell, as exported to / imported from
  /// the persisted perf store (perf_store.hpp), the one on-disk form of
  /// the calibration history.
  struct Sample {
    std::string codelet;
    std::uint64_t class_key = 0;  ///< class_key of the class's members
    double ema_seconds = 0.0;     ///< smoothed per-task execution time
    std::uint64_t count = 0;      ///< observations behind the EMA
    double ema_gflops = 0.0;      ///< smoothed achieved rate; 0 = never known
  };

  /// Every cell with real history (count > 0), in codelet-then-class
  /// order. Seed-only cells are omitted: priors are re-derived from the
  /// descriptor, not persisted.
  std::vector<Sample> snapshot() const;

  /// Install a persisted cell, overwriting any history of the pair; false
  /// when the model has no class with the sample's key. Intended for
  /// engine start, before workers observe anything.
  bool preload(const Sample& sample);

 private:
  Cell* find_row(std::string_view codelet) const;

  std::vector<std::uint64_t> keys_;
  /// Rows are heap-allocated so map rebalancing never moves them; the map
  /// itself (insertion only) is guarded by the mutex, the cells are not.
  std::map<std::string, std::unique_ptr<Cell[]>, std::less<>> history_;
  mutable std::mutex mutex_;
};

/// Analytic transfer time: latency + bytes / bandwidth.
double transfer_seconds(std::size_t bytes, double bandwidth_gbs, double latency_us);

}  // namespace starvm
