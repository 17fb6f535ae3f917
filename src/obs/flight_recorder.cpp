#include "obs/flight_recorder.hpp"

#include <bit>
#include <cstdio>
#include <sstream>

#include "obs/trace.hpp"

namespace obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

std::uint64_t pack_kind_aux(FlightKind kind, std::uint32_t aux) {
  return static_cast<std::uint64_t>(kind) |
         (static_cast<std::uint64_t>(aux) << 8);
}

std::atomic_ref<std::uint64_t> word(std::uint64_t& w) {
  return std::atomic_ref<std::uint64_t>(w);
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kTaskStart: return "task_start";
    case FlightKind::kTaskEnd: return "task_end";
    case FlightKind::kTransfer: return "transfer";
    case FlightKind::kQueueDepth: return "queue_depth";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kBlacklist: return "blacklist";
    case FlightKind::kFailure: return "failure";
    case FlightKind::kTimeout: return "timeout";
    case FlightKind::kReroute: return "reroute";
    case FlightKind::kTaskFailed: return "task_failed";
    case FlightKind::kCancelled: return "cancelled";
  }
  return "?";
}

FlightRing::FlightRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity);
  mask_ = cap - 1;
  // Left uninitialized: zero-filling would touch every page of every ring
  // up front, and no reader looks at a slot before its first write.
  slots_ = std::make_unique_for_overwrite<Slot[]>(cap);
}

void FlightRing::record(FlightKind kind, std::uint32_t aux, std::uint64_t task,
                        std::int64_t device, double t0, double t1,
                        double value, double value2) {
  // Single producer: nobody else advances head_, so a relaxed read is exact.
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[seq & mask_];
  // Seqlock write: odd stamp, release fence, relaxed payload, even stamp
  // with release. A reader that revalidates the stamp after its payload
  // loads either sees a fully consistent record or discards the slot.
  word(s.w[0]).store(2 * seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  word(s.w[1]).store(pack_kind_aux(kind, aux), std::memory_order_relaxed);
  word(s.w[2]).store(task, std::memory_order_relaxed);
  word(s.w[3]).store(static_cast<std::uint64_t>(device), std::memory_order_relaxed);
  word(s.w[4]).store(std::bit_cast<std::uint64_t>(t0), std::memory_order_relaxed);
  word(s.w[5]).store(std::bit_cast<std::uint64_t>(t1), std::memory_order_relaxed);
  word(s.w[6]).store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
  word(s.w[7]).store(std::bit_cast<std::uint64_t>(value2), std::memory_order_relaxed);
  word(s.w[0]).store(2 * seq + 2, std::memory_order_release);
  // Publish last: a reader that sees head_ > seq also sees this slot's
  // first write complete, so it never reads an uninitialized word.
  head_.store(seq + 1, std::memory_order_release);
}

void FlightRing::snapshot_into(std::vector<FlightEvent>& out,
                               std::uint32_t ring) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = capacity();
  const std::uint64_t begin = head > cap ? head - cap : 0;
  for (std::uint64_t seq = begin; seq < head; ++seq) {
    Slot& s = slots_[seq & mask_];
    const std::uint64_t stamp = word(s.w[0]).load(std::memory_order_acquire);
    if (stamp != 2 * seq + 2) continue;  // already being overwritten
    std::uint64_t w[8];
    for (int i = 1; i < 8; ++i) w[i] = word(s.w[i]).load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (word(s.w[0]).load(std::memory_order_relaxed) != stamp) continue;  // lapped

    FlightEvent e;
    e.seq = seq;
    e.ring = ring;
    e.kind = static_cast<FlightKind>(w[1] & 0xff);
    e.aux = static_cast<std::uint32_t>(w[1] >> 8);
    e.task = w[2];
    e.device = static_cast<std::int64_t>(w[3]);
    e.t0 = std::bit_cast<double>(w[4]);
    e.t1 = std::bit_cast<double>(w[5]);
    e.value = std::bit_cast<double>(w[6]);
    e.value2 = std::bit_cast<double>(w[7]);
    out.push_back(e);
  }
}

std::string flight_events_jsonl(const std::vector<FlightEvent>& events,
                                const std::string& reason,
                                std::uint64_t produced,
                                std::uint64_t overwritten,
                                const FlightLabelFn& label) {
  std::ostringstream os;
  os << "{\"flight_dump\":{\"reason\":\"" << json_escape(reason)
     << "\",\"records\":" << events.size() << ",\"produced\":" << produced
     << ",\"overwritten\":" << overwritten << "}}\n";
  char buf[64];
  const auto num = [&](double v) -> const char* {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  };
  for (const FlightEvent& e : events) {
    os << "{\"kind\":\"" << to_string(e.kind) << "\",\"ring\":" << e.ring
       << ",\"seq\":" << e.seq << ",\"task\":" << e.task;
    if (label) {
      const std::string name = label(e.task);
      if (!name.empty()) os << ",\"label\":\"" << json_escape(name) << "\"";
    }
    os << ",\"device\":" << e.device << ",\"aux\":" << e.aux
       << ",\"t0_us\":" << num(e.t0 * 1e6);
    if (e.has_end()) os << ",\"t1_us\":" << num(e.t1 * 1e6);
    os << ",\"value\":" << num(e.value);
    if (e.value2 != 0.0) os << ",\"value2\":" << num(e.value2);
    os << "}\n";
  }
  return os.str();
}

}  // namespace obs
