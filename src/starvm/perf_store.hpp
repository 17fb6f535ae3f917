// Persisted per-(codelet, device class) performance models.
//
// The engine's EMA calibration cells (perf_model.hpp) evaporate at process
// exit, so every run re-learns what the last one already measured and the
// static layers (cascabel pre-selection, the A5xx capacity analyzer) keep
// reasoning from datasheet GFLOPS. The perf store closes that loop: a
// versioned plain-text snapshot of every calibrated cell, each keyed by its
// device class (class_key), written atomically (tmp + rename, like the
// Prometheus sink) on engine shutdown and preloaded at engine start. An
// entry applies to every device of its class on any platform, so adding a
// core keeps what was learned about the others.
//
// The store changes *estimates*, never ordering invariants: deterministic
// replay and starmc exploration stay byte-stable for a fixed store, and a
// missing store is simply a cold start, not an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "starvm/device.hpp"
#include "starvm/perf_model.hpp"

namespace starvm::perf_store {

/// Bumped whenever the on-disk grammar changes; a mismatch rejects the
/// whole file (fall back to declared rates) rather than guessing.
constexpr int kFormatVersion = 2;

/// One calibrated (codelet, class) cell, exactly as persisted.
using Entry = PerfModel::Sample;

struct Store {
  /// Sorted by (codelet, class key) in the text form — save() output is
  /// byte-stable.
  std::vector<Entry> entries;
};

enum class LoadStatus {
  kLoaded,      ///< parsed cleanly (which entries apply is the caller's call)
  kMissing,     ///< no file — a clean cold start, not a rejection
  kBadVersion,  ///< recognizably a perf store, but a different format version
  kCorrupt,     ///< truncated / malformed / not a perf store at all
};

struct LoadResult {
  LoadStatus status = LoadStatus::kMissing;
  Store store;         ///< valid only when status == kLoaded
  std::string detail;  ///< human-readable reason for a rejection
};

/// Parse a store file. Never throws; every failure mode is a status.
LoadResult load(const std::string& path);

/// Render the on-disk text form (also what save() writes).
std::string render_text(const Store& store);

/// Atomically write the store: render to `path + ".tmp"`, then rename, so
/// a reader never sees a torn file. False on I/O failure (tmp removed).
bool save(const Store& store, const std::string& path);

/// Which entries apply to a device list: reorders `store` so the entries
/// whose class some device of `devices` belongs to come first, keeping the
/// order within both parts, and returns how many do.
std::size_t applicable(Store& store, const std::vector<DeviceSpec>& devices);

/// Install every entry whose class the model has; returns how many.
std::size_t preload(const Store& store, PerfModel& model);

/// The PDL_PERF_STORE environment variable, or "" when unset / "0"
/// (disabled). The engine never reads it: rt::Context (when its
/// Options::perf_store_path is empty) and pdltool's plan/profile default
/// resolve it and pass the path on explicitly.
std::string env_store_path();

}  // namespace starvm::perf_store
