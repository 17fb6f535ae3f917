// The simulation schedulers' device heap (src/starvm/device_heap.hpp)
// against the ordered set it replaced: random insert, re-key and erase
// sequences with many equal keys, and after every step the same top, the
// same membership and the same full in-order walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "starvm/device_heap.hpp"

namespace starvm::detail {
namespace {

using Order = std::set<std::pair<double, DeviceId>>;

/// The heap's entries of heap `h`, in walk order.
std::vector<std::pair<double, DeviceId>> walked(const DeviceHeap& heap,
                                                std::size_t h = 0) {
  std::vector<std::pair<double, DeviceId>> out;
  heap.walk(
      [&](const DeviceHeap::Entry& e) {
        out.emplace_back(e.key, e.device);
        return true;
      },
      h);
  return out;
}

void expect_same(const DeviceHeap& heap, const Order& order,
                 const std::vector<double>& key, std::size_t h, int step) {
  ASSERT_EQ(heap.empty(h), order.empty()) << "step " << step;
  if (!order.empty()) {
    EXPECT_EQ(heap.top(h).key, order.begin()->first) << "step " << step;
    EXPECT_EQ(heap.top(h).device, order.begin()->second) << "step " << step;
  }
  for (const auto& [k, d] : order) {
    EXPECT_TRUE(heap.contains(d)) << "step " << step;
    EXPECT_EQ(key[static_cast<std::size_t>(d)], k);
  }
  const std::vector<std::pair<double, DeviceId>> expected(order.begin(), order.end());
  ASSERT_EQ(walked(heap, h), expected) << "step " << step;
}

TEST(DeviceHeap, MatchesOrderedSetUnderRandomOperations) {
  constexpr int kDevices = 64;
  std::mt19937 rng(7);
  DeviceHeap heap(kDevices);
  Order order;
  std::vector<double> key(kDevices, -1.0);  // -1 = absent
  for (int step = 0; step < 20000; ++step) {
    const auto d = static_cast<DeviceId>(rng() % kDevices);
    const auto slot = static_cast<std::size_t>(d);
    // Keys from a set of 6 values, so most comparisons tie on the key and
    // fall through to the device id.
    const double k = static_cast<double>(rng() % 6) * 0.5;
    switch (rng() % 4) {
      case 0:
      case 1:  // insert or re-key
        if (key[slot] >= 0.0) order.erase({key[slot], d});
        heap.set(d, k);
        order.insert({k, d});
        key[slot] = k;
        break;
      case 2:  // re-key only when present
        heap.rekey(d, k);
        if (key[slot] >= 0.0) {
          order.erase({key[slot], d});
          order.insert({k, d});
          key[slot] = k;
        }
        break;
      default:  // erase
        heap.erase(d);
        if (key[slot] >= 0.0) order.erase({key[slot], d});
        key[slot] = -1.0;
        break;
    }
    for (DeviceId dev = 0; dev < kDevices; ++dev) {
      ASSERT_EQ(heap.contains(dev), key[static_cast<std::size_t>(dev)] >= 0.0)
          << "step " << step << " device " << dev;
    }
    expect_same(heap, order, key, 0, step);
  }
}

TEST(DeviceHeap, SharedSlotArrayKeepsEachHeapApart) {
  // Three heaps over 30 devices, device d in heap d % 3 (capacity 10 each),
  // driven with the same random operations as three separate sets.
  constexpr int kDevices = 30;
  DeviceHeap heap(kDevices, {10, 10, 10});
  Order order[3];
  std::vector<double> key(kDevices, -1.0);
  std::mt19937 rng(11);
  for (int step = 0; step < 6000; ++step) {
    const auto d = static_cast<DeviceId>(rng() % kDevices);
    const auto slot = static_cast<std::size_t>(d);
    const std::size_t h = slot % 3;
    const double k = static_cast<double>(rng() % 4);
    if (rng() % 3 != 0) {
      if (key[slot] >= 0.0) order[h].erase({key[slot], d});
      heap.set(d, k, h);
      order[h].insert({k, d});
      key[slot] = k;
    } else {
      heap.erase(d);
      if (key[slot] >= 0.0) order[h].erase({key[slot], d});
      key[slot] = -1.0;
    }
    for (std::size_t i = 0; i < 3; ++i) expect_same(heap, order[i], key, i, step);
  }
}

TEST(DeviceHeap, WalkStopsWhereTheVisitorSays) {
  DeviceHeap heap(8);
  for (DeviceId d = 0; d < 8; ++d) heap.set(d, static_cast<double>(7 - d) / 2.0);
  std::vector<DeviceId> seen;
  heap.walk([&](const DeviceHeap::Entry& e) {
    seen.push_back(e.device);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<DeviceId>{7, 6, 5}));
}

}  // namespace
}  // namespace starvm::detail
