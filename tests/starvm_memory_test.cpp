// Tests of the bounded accelerator-memory model: LRU replica eviction and
// write-back accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "discovery/presets.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"

namespace starvm {
namespace {

/// One accelerator whose memory fits exactly `capacity_buffers` of the
/// test's 1 KiB buffers, plus a CPU for host-side work.
Engine capacity_engine(std::size_t capacity_buffers) {
  EngineConfig config;
  DeviceSpec accel;
  accel.name = "gpu";
  accel.kind = DeviceKind::kAccelerator;
  accel.memory_bytes = capacity_buffers * 1024;
  config.devices.push_back(accel);
  config.scheduler = SchedulerKind::kEager;
  return Engine(std::move(config));
}

constexpr std::size_t kDoubles = 128;  // 1 KiB per buffer

Codelet reader_codelet() {
  Codelet c;
  c.name = "read";
  c.impls.push_back({DeviceKind::kAccelerator, [](const ExecContext&) {}});
  return c;
}

TEST(MemoryModel, ReplicasFitWithinCapacityNoEviction) {
  Engine engine = capacity_engine(4);
  Codelet reader = reader_codelet();
  std::vector<std::vector<double>> buffers(3, std::vector<double>(kDoubles));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), buf.size());
    engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.transfers, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(MemoryModel, LruEvictionWhenOverCapacity) {
  Engine engine = capacity_engine(2);
  Codelet reader = reader_codelet();
  std::vector<std::vector<double>> buffers(4, std::vector<double>(kDoubles));
  std::vector<DataHandle*> handles;
  for (auto& buf : buffers) {
    handles.push_back(engine.register_vector(buf.data(), buf.size()));
  }
  // Stream 4 reads through a 2-buffer device: 2 evictions.
  for (DataHandle* h : handles) {
    engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
    EXPECT_TRUE(engine.wait_all().ok());  // serialize for deterministic LRU order
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.transfers, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  // Clean replicas (host still valid): no write-back traffic.
  EXPECT_EQ(stats.writeback_bytes, 0u);
  // The two oldest replicas are gone; the newest two remain (node id 1).
  EXPECT_FALSE(handles[0]->valid_on(1));
  EXPECT_FALSE(handles[1]->valid_on(1));
  EXPECT_TRUE(handles[2]->valid_on(1));
  EXPECT_TRUE(handles[3]->valid_on(1));
}

TEST(MemoryModel, ReaccessRefreshesLruOrder) {
  Engine engine = capacity_engine(2);
  Codelet reader = reader_codelet();
  std::vector<std::vector<double>> buffers(3, std::vector<double>(kDoubles));
  std::vector<DataHandle*> handles;
  for (auto& buf : buffers) {
    handles.push_back(engine.register_vector(buf.data(), buf.size()));
  }
  const auto read = [&](DataHandle* h) {
    engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
    EXPECT_TRUE(engine.wait_all().ok());
  };
  read(handles[0]);
  read(handles[1]);
  read(handles[0]);  // refresh 0: now 1 is the LRU victim
  read(handles[2]);  // evicts 1, not 0
  EXPECT_TRUE(handles[0]->valid_on(1));
  EXPECT_FALSE(handles[1]->valid_on(1));
  EXPECT_TRUE(handles[2]->valid_on(1));
}

TEST(MemoryModel, EvictingSoleReplicaWritesBack) {
  Engine engine = capacity_engine(1);
  Codelet writer;
  writer.name = "write";
  writer.impls.push_back({DeviceKind::kAccelerator, [](const ExecContext&) {}});

  std::vector<double> a(kDoubles), b(kDoubles);
  DataHandle* ha = engine.register_vector(a.data(), a.size());
  DataHandle* hb = engine.register_vector(b.data(), b.size());

  // Write `a` on the device: device holds the sole replica.
  engine.submit(TaskDesc{&writer, {{ha, Access::kWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_FALSE(ha->valid_on(kHostNode));

  // Touching `b` evicts `a`, which must be written back to the host first.
  engine.submit(TaskDesc{&writer, {{hb, Access::kWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.writeback_bytes, kDoubles * 8);
  EXPECT_TRUE(ha->valid_on(kHostNode));  // preserved by the write-back
  EXPECT_FALSE(ha->valid_on(1));
}

TEST(MemoryModel, PinnedBuffersAreNeverEvicted) {
  // Capacity 1, but a task touching two buffers must hold both: the node
  // over-commits instead of evicting the task's own data.
  Engine engine = capacity_engine(1);
  Codelet two;
  two.name = "two";
  two.impls.push_back({DeviceKind::kAccelerator, [](const ExecContext&) {}});
  std::vector<double> a(kDoubles), b(kDoubles);
  DataHandle* ha = engine.register_vector(a.data(), a.size());
  DataHandle* hb = engine.register_vector(b.data(), b.size());
  engine.submit(
      TaskDesc{&two, {{ha, Access::kRead}, {hb, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_TRUE(ha->valid_on(1));
  EXPECT_TRUE(hb->valid_on(1));
}

TEST(MemoryModel, UnlimitedByDefault) {
  EngineConfig config;
  DeviceSpec accel;
  accel.kind = DeviceKind::kAccelerator;  // memory_bytes = 0 -> unlimited
  config.devices.push_back(accel);
  Engine engine(std::move(config));
  Codelet reader = reader_codelet();
  std::vector<std::vector<double>> buffers(64, std::vector<double>(kDoubles));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), buf.size());
    engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().evictions, 0u);
}

// --- partition geometry --------------------------------------------------------
// partition_* must return exactly the requested block count even when the
// data is too small; surplus blocks are empty, never missing (callers index
// blocks[r * cols + c] unconditionally).

TEST(MemoryModel, PartitionVectorPadsWithEmptyBlocks) {
  Engine engine = capacity_engine(4);
  std::vector<double> v(5);
  DataHandle* h = engine.register_vector(v.data(), v.size());
  auto blocks = engine.partition_vector(h, 8);
  ASSERT_EQ(blocks.size(), 8u);
  std::size_t total = 0;
  for (const DataHandle* b : blocks) total += b->cols();  // element count
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(blocks.back()->rows(), 0u);
  EXPECT_EQ(blocks.back()->bytes(), 0u);
}

TEST(MemoryModel, PartitionTilesPadsWithEmptyBlocks) {
  Engine engine = capacity_engine(4);
  std::vector<double> m(2 * 2);
  DataHandle* h = engine.register_matrix(m.data(), 2, 2);
  auto tiles = engine.partition_tiles(h, 3, 3);
  ASSERT_EQ(tiles.size(), 9u);  // full 3x3 grid, not a ragged subset
  std::size_t cells = 0;
  for (const DataHandle* t : tiles) cells += t->rows() * t->cols();
  EXPECT_EQ(cells, 4u);
  // Row 2 and column 2 of the grid are empty.
  for (int r = 0; r < 3; ++r) EXPECT_EQ(tiles[r * 3 + 2]->cols(), 0u);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(tiles[2 * 3 + c]->rows(), 0u);
}

// One split rule: for every extent and block count, block_span hands out
// ceil(extent / nblocks)-element spans that tile [0, extent) in order with
// only a suffix empty, filled_blocks counts the non-empty ones, and every
// partition_* returns exactly those spans along the split dimension.
TEST(MemoryModel, BlockSplitRuleTilesExtentAndDrivesEveryPartition) {
  std::vector<double> data(80 * 3);
  const BlockSpan halves[2] = {block_span(3, 2, 0), block_span(3, 2, 1)};
  ASSERT_EQ(halves[0].count, 2u);
  ASSERT_EQ(halves[1].begin, 2u);
  for (std::size_t extent = 0; extent <= 70; ++extent) {
    Engine engine(EngineConfig::cpus(1));
    for (int nblocks = 1; nblocks <= 72; ++nblocks) {
      SCOPED_TRACE("extent " + std::to_string(extent) + ", nblocks " +
                   std::to_string(nblocks));
      const std::size_t per = (extent + nblocks - 1) / nblocks;
      std::size_t next = 0;
      int filled = 0;
      for (int b = 0; b < nblocks; ++b) {
        const BlockSpan span = block_span(extent, nblocks, b);
        ASSERT_EQ(span.begin, next) << "block " << b;
        ASSERT_EQ(span.count, std::min(per, extent - span.begin)) << "block " << b;
        if (span.count > 0) {
          ASSERT_EQ(filled, b) << "empty block before filled block " << b;
          ++filled;
        }
        next += span.count;
      }
      ASSERT_EQ(next, extent);
      ASSERT_EQ(filled_blocks(extent, nblocks), filled);

      const auto vec =
          engine.partition_vector(engine.register_vector(data.data(), extent), nblocks);
      const auto bands =
          engine.partition_rows(engine.register_matrix(data.data(), extent, 3), nblocks);
      const auto row_tiles = engine.partition_tiles(
          engine.register_matrix(data.data(), extent, 3), nblocks, 2);
      const auto col_tiles = engine.partition_tiles(
          engine.register_matrix(data.data(), 3, extent), 2, nblocks);
      ASSERT_EQ(vec.size(), static_cast<std::size_t>(nblocks));
      ASSERT_EQ(bands.size(), static_cast<std::size_t>(nblocks));
      ASSERT_EQ(row_tiles.size(), 2u * nblocks);
      ASSERT_EQ(col_tiles.size(), 2u * nblocks);
      for (int b = 0; b < nblocks; ++b) {
        const BlockSpan span = block_span(extent, nblocks, b);
        EXPECT_EQ(vec[b]->ptr(), data.data() + span.begin);
        EXPECT_EQ(vec[b]->cols(), span.count);
        EXPECT_EQ(bands[b]->ptr(), data.data() + span.begin * 3);
        EXPECT_EQ(bands[b]->rows(), span.count);
        for (int h = 0; h < 2; ++h) {
          const DataHandle* row_tile = row_tiles[b * 2 + h];
          EXPECT_EQ(row_tile->ptr(), data.data() + span.begin * 3 + halves[h].begin);
          EXPECT_EQ(row_tile->rows(), span.count);
          EXPECT_EQ(row_tile->cols(), halves[h].count);
          const DataHandle* col_tile = col_tiles[h * nblocks + b];
          EXPECT_EQ(col_tile->ptr(),
                    data.data() + halves[h].begin * extent + span.begin);
          EXPECT_EQ(col_tile->rows(), halves[h].count);
          EXPECT_EQ(col_tile->cols(), span.count);
        }
      }
    }
  }
}

TEST(MemoryModel, BridgeReadsCapacityFromPdl) {
  auto config = starvm::engine_config_from_platform(
      pdl::discovery::paper_platform_starpu_2gpu());
  ASSERT_TRUE(config.ok());
  for (const auto& d : config.value().devices) {
    if (d.name == "gpu1") {
      // GTX480: GLOBAL_MEM_SIZE 1572864 kB.
      EXPECT_EQ(d.memory_bytes, 1572864ull * 1024);
    }
    if (d.name == "gpu2") {
      EXPECT_EQ(d.memory_bytes, 1048576ull * 1024);
    }
  }
}

}  // namespace
}  // namespace starvm
