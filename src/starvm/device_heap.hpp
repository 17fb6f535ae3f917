// Indexed binary min-heaps over (key, device id): the device orders of the
// simulation schedulers (scheduler.cpp) — every live device by virtual
// clock (eager, work-stealing), the devices with queued work by virtual
// clock (HEFT) and each placement class's members by estimated backlog
// (HEFT).
//
// A device sits in at most one heap of an instance. Its slot is found
// through a flat position array indexed by device id, so insert, erase and
// re-key cost O(log n) and allocate nothing after construction. Several
// heaps may share one instance: heap h owns a fixed segment of the slot
// array, sized at construction (HEFT gives each placement class a segment
// of its member count, so a thousand singleton classes still make two
// arrays, not a thousand heaps). Entries are ordered by (key, id), the
// order of a std::set<std::pair<double, DeviceId>>: the minimum is unique,
// and walk() visits entries in exactly that set's order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "starvm/types.hpp"

namespace starvm::detail {

class DeviceHeap {
 public:
  struct Entry {
    double key = 0.0;
    DeviceId device = -1;
  };

  /// One heap that can hold every device id below `devices`.
  explicit DeviceHeap(std::size_t devices)
      : slots_(devices), where_(devices), heaps_(1) {}

  /// `capacities.size()` heaps over device ids below `devices`; heap h
  /// holds at most capacities[h] devices.
  DeviceHeap(std::size_t devices, const std::vector<std::size_t>& capacities)
      : where_(devices), heaps_(capacities.size()) {
    std::size_t begin = 0;
    for (std::size_t h = 0; h < capacities.size(); ++h) {
      heaps_[h].begin = begin;
      begin += capacities[h];
    }
    slots_.resize(begin);
  }

  bool contains(DeviceId device) const {
    return where_[static_cast<std::size_t>(device)].slot != kAbsent;
  }

  bool empty(std::size_t heap = 0) const { return heaps_[heap].size == 0; }

  /// The smallest (key, id) entry of a non-empty heap.
  const Entry& top(std::size_t heap = 0) const { return slots_[heaps_[heap].begin]; }

  /// Insert `device` into heap `heap` under `key`, or re-key it in the heap
  /// that holds it.
  void set(DeviceId device, double key, std::size_t heap = 0) {
    Where& where = where_[static_cast<std::size_t>(device)];
    const Entry entry{key, device};
    if (where.slot == kAbsent) {
      Segment& seg = heaps_[heap];
      where.heap = static_cast<std::uint32_t>(heap);
      where.slot = static_cast<std::uint32_t>(seg.size++);
      sift_up(seg, where.slot, entry);
    } else {
      Segment& seg = heaps_[where.heap];
      const std::size_t slot = where.slot;
      if (less(entry, slots_[seg.begin + slot])) {
        sift_up(seg, slot, entry);
      } else {
        sift_down(seg, slot, entry);
      }
    }
  }

  /// Re-key `device` if it is in a heap; no-op otherwise.
  void rekey(DeviceId device, double key) {
    if (contains(device)) set(device, key);
  }

  /// Remove `device` from its heap; no-op when absent.
  void erase(DeviceId device) {
    Where& where = where_[static_cast<std::size_t>(device)];
    if (where.slot == kAbsent) return;
    Segment& seg = heaps_[where.heap];
    const std::size_t slot = where.slot;
    where.slot = kAbsent;
    const std::size_t last = --seg.size;
    if (slot == last) return;
    // Refill the hole with the last entry, which may belong above or below.
    const Entry moved = slots_[seg.begin + last];
    if (slot > 0 && less(moved, slots_[seg.begin + (slot - 1) / 2])) {
      sift_up(seg, slot, moved);
    } else {
      sift_down(seg, slot, moved);
    }
  }

  /// Visit heap `heap`'s entries in ascending (key, id) order until `visit`
  /// returns false. Lazy: it orders only what it visits, so stopping at the
  /// k-th entry costs O(k log k), and the first entry costs nothing. Only
  /// the visit that ends the walk may change the heap.
  template <typename Visit>
  void walk(Visit&& visit, std::size_t heap = 0) const {
    const Segment& seg = heaps_[heap];
    if (seg.size == 0 || !visit(slots_[seg.begin])) return;
    // Frontier of segment-relative slots whose parents were visited, kept
    // as a heap with the smallest entry on top.
    const auto after = [&](std::size_t a, std::size_t b) {
      return less(slots_[seg.begin + b], slots_[seg.begin + a]);
    };
    frontier_.clear();
    const auto push_children = [&](std::size_t slot) {
      for (std::size_t c = 2 * slot + 1; c <= 2 * slot + 2 && c < seg.size; ++c) {
        frontier_.push_back(c);
        std::push_heap(frontier_.begin(), frontier_.end(), after);
      }
    };
    push_children(0);
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), after);
      const std::size_t slot = frontier_.back();
      frontier_.pop_back();
      if (!visit(slots_[seg.begin + slot])) return;
      push_children(slot);
    }
  }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  struct Where {
    std::uint32_t heap = 0;
    std::uint32_t slot = kAbsent;  ///< relative to the heap's segment
  };
  struct Segment {
    std::size_t begin = 0;  ///< first slot of the heap in slots_
    std::size_t size = 0;
  };

  static bool less(const Entry& a, const Entry& b) {
    return a.key < b.key || (!(b.key < a.key) && a.device < b.device);
  }

  void place(const Segment& seg, std::size_t slot, const Entry& entry) {
    slots_[seg.begin + slot] = entry;
    where_[static_cast<std::size_t>(entry.device)].slot =
        static_cast<std::uint32_t>(slot);
  }

  /// Put `entry` at `slot` or above it, moving larger parents down.
  void sift_up(const Segment& seg, std::size_t slot, const Entry& entry) {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!less(entry, slots_[seg.begin + parent])) break;
      place(seg, slot, slots_[seg.begin + parent]);
      slot = parent;
    }
    place(seg, slot, entry);
  }

  /// Put `entry` at `slot` or below it, moving smaller children up.
  void sift_down(const Segment& seg, std::size_t slot, const Entry& entry) {
    for (;;) {
      std::size_t child = 2 * slot + 1;
      if (child >= seg.size) break;
      if (child + 1 < seg.size &&
          less(slots_[seg.begin + child + 1], slots_[seg.begin + child])) {
        ++child;
      }
      if (!less(slots_[seg.begin + child], entry)) break;
      place(seg, slot, slots_[seg.begin + child]);
      slot = child;
    }
    place(seg, slot, entry);
  }

  std::vector<Entry> slots_;
  std::vector<Where> where_;  ///< by device id
  std::vector<Segment> heaps_;
  /// walk() scratch: even const calls must not overlap (the schedulers run
  /// under the engine mutex).
  mutable std::vector<std::size_t> frontier_;
};

}  // namespace starvm::detail
