// Always-on flight recorder: a lock-free SPSC ring buffer of fixed-size
// binary records, cheap enough to leave enabled on the starvm hot path and
// bounded enough to forget about (capacity × 64 bytes, oldest records
// overwritten). The capacity is reserved, not touched, until written:
// slots start out uninitialized, so a 1000-device engine pays for the
// records it writes, not for the ring it could fill.
//
// Each slot is a seqlock over 8 plain 64-bit words, every access going
// through std::atomic_ref: the producer stamps the slot odd, stores the
// payload with relaxed atomics, stamps it even with release semantics and
// only then publishes the record by advancing the ring's head (release).
// A consumer reads the head (acquire) and visits only sequence numbers
// below it, so it never meets a slot that was not written; a record whose
// stamp changed between the two reads (the producer lapped it mid-read)
// is simply dropped. Every access is atomic, so concurrent overruns are
// torn-read-safe under TSan, not just in practice.
//
// Ownership contract: record() must come from a single producer at a
// time: writers serialized by a mutex, as the engine's are (its one lane
// ring is written under the engine mutex only). snapshot_into() is safe
// from anywhere, any time — that is the whole point of a flight recorder:
// the post-mortem dump runs while the crash is still unfolding. The
// engine's fault lane is no ring: it is read off the engine's fault log.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace obs {

/// What one flight record describes. Values are stable across versions —
/// dumps are forensic artifacts, renumbering would corrupt old ones.
enum class FlightKind : std::uint8_t {
  kTaskStart = 1,   ///< an execution attempt began (t0 = start)
  kTaskEnd = 2,     ///< an attempt completed (t0..t1, value = exec seconds)
  kTransfer = 3,    ///< modeled data movement (t0..t1, value = seconds)
  kQueueDepth = 4,  ///< ready-queue depth sampled at pop time (value)
  kRetry = 5,       ///< a failed task was re-queued with backoff
  kBlacklist = 6,   ///< a device stopped receiving work
  kFailure = 7,     ///< an execution attempt failed
  kTimeout = 8,     ///< the watchdog rejected an attempt
  kReroute = 9,     ///< a queued task moved off a blacklisted device
  kTaskFailed = 10, ///< a task permanently failed
  kCancelled = 11,  ///< a task was cancelled by a failed dependency
};

const char* to_string(FlightKind kind);

/// One decoded record. Times are engine virtual-clock seconds; t1 == 0 for
/// point events (no end timestamp). `value`/`value2` are kind-specific
/// (exec seconds and transfer seconds for kTaskEnd, depth for kQueueDepth).
struct FlightEvent {
  std::uint64_t seq = 0;    ///< number in its ring (gaps = overwritten)
  /// The record's lane: the engine's device for task and transfer
  /// records, one past the last device for its fault lane.
  std::uint32_t ring = 0;
  FlightKind kind = FlightKind::kTaskStart;
  std::uint32_t aux = 0;    ///< attempt number (task records) / kind-specific
  std::uint64_t task = 0;   ///< task id; 0 when the event concerns a device
  std::int64_t device = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  double value = 0.0;
  double value2 = 0.0;

  /// True when the record carries a real end timestamp.
  bool has_end() const { return t1 > t0 || (t1 == t0 && t1 > 0.0); }
};

/// Single-producer, any-consumer ring of 64-byte seqlock slots. Capacity
/// is rounded up to a power of two (minimum 8 slots).
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Append one record (single producer per ring; see the header comment).
  void record(FlightKind kind, std::uint32_t aux, std::uint64_t task,
              std::int64_t device, double t0, double t1, double value,
              double value2 = 0.0);

  /// Append every consistent record still resident, oldest first, with
  /// `ring` as its lane. Lock-free and safe concurrently with record();
  /// records the producer laps during the read are skipped.
  void snapshot_into(std::vector<FlightEvent>& out, std::uint32_t ring) const;

  std::size_t capacity() const { return mask_ + 1; }
  /// Records completely written (a record counts once readable).
  std::uint64_t produced() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records lost to wraparound (bounded memory is the contract).
  std::uint64_t overwritten() const {
    const std::uint64_t n = produced();
    return n > capacity() ? n - capacity() : 0;
  }

 private:
  struct Slot {
    // w[0] is the stamp: 2*seq+1 while being written, 2*seq+2 when
    // complete. w[1..7] is the payload. Indeterminate until the first
    // write; readers never visit a slot before head_ has passed it.
    alignas(std::atomic_ref<std::uint64_t>::required_alignment)
        std::uint64_t w[8];
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// Resolve a task id to a display label for dump rendering; empty = none.
using FlightLabelFn = std::function<std::string(std::uint64_t)>;

/// One JSON object per line. The first line is a header carrying `reason`
/// plus produced/overwritten totals; each record line has kind, seq, ring,
/// task (+label when the resolver knows it), device, t0/t1 (microseconds)
/// and the kind-specific values.
std::string flight_events_jsonl(const std::vector<FlightEvent>& events,
                                const std::string& reason,
                                std::uint64_t produced, std::uint64_t overwritten,
                                const FlightLabelFn& label = {});

}  // namespace obs
