#include <gtest/gtest.h>

#include <numeric>

#include "starvm/graph.hpp"

namespace starvm {
namespace {

using Edge = TaskGraph::Edge;

/// True when `edges` holds an edge from->to of `kind`.
bool has_edge(const std::vector<Edge>& edges, int from, int to, Edge::Kind kind) {
  for (const Edge& e : edges) {
    if (e.from == from && e.to == to && e.kind == kind) return true;
  }
  return false;
}

TEST(TaskGraph, BuffersGetDisjointRanges) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  const int b = g.add_buffer("b", 256);
  EXPECT_FALSE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));
}

TEST(TaskGraph, AddBufferAtModelsAliasedRegistration) {
  TaskGraph g;
  const int a = g.add_buffer("alloc", 1024);
  // A second handle registered over the same allocation, as
  // register_vector(data.data(), n) twice would produce at runtime.
  const int b = g.add_buffer_at("alias", g.buffers()[a].base, 1024);
  EXPECT_TRUE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));  // two registrations, not parent/block
}

TEST(TaskGraph, PartitionSplitsRangeLikeEngine) {
  TaskGraph g;
  const int parent = g.add_buffer("v", 100);
  const std::vector<int> blocks = g.partition(parent, 3);
  ASSERT_EQ(blocks.size(), 3u);

  // Blocks tile the parent range exactly (chunk + remainder spread).
  std::uint64_t total = 0;
  std::uint64_t cursor = g.buffers()[parent].base;
  for (const int block : blocks) {
    const GraphBuffer& b = g.buffers()[block];
    EXPECT_EQ(b.base, cursor);
    EXPECT_EQ(b.parent, parent);
    cursor += b.bytes;
    total += b.bytes;
  }
  EXPECT_EQ(total, 100u);

  // Parent/block overlap is lineage; sibling blocks are disjoint.
  EXPECT_TRUE(g.ranges_overlap(parent, blocks[0]));
  EXPECT_TRUE(g.same_lineage(parent, blocks[0]));
  EXPECT_FALSE(g.ranges_overlap(blocks[0], blocks[1]));
}

TEST(TaskGraph, InfersRawWarWawEdges) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  const int w0 = g.add_task("w0", {{buf, Access::kWrite}});
  const int r0 = g.add_task("r0", {{buf, Access::kRead}});
  const int r1 = g.add_task("r1", {{buf, Access::kRead}});
  const int w1 = g.add_task("w1", {{buf, Access::kWrite}});

  const auto edges = g.edges();
  EXPECT_TRUE(has_edge(edges, w0, r0, Edge::kRaw));
  EXPECT_TRUE(has_edge(edges, w0, r1, Edge::kRaw));
  EXPECT_TRUE(has_edge(edges, w0, w1, Edge::kWaw));
  EXPECT_TRUE(has_edge(edges, r0, w1, Edge::kWar));
  EXPECT_TRUE(has_edge(edges, r1, w1, Edge::kWar));
  // Concurrent pure readers are unordered.
  EXPECT_FALSE(has_edge(edges, r0, r1, Edge::kRaw));
}

TEST(TaskGraph, PureReadersShareNoEdges) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  g.add_task("r0", {{buf, Access::kRead}});
  g.add_task("r1", {{buf, Access::kRead}});
  EXPECT_TRUE(g.edges().empty());
}

TEST(TaskGraph, ExplicitDepsKeepBackwardDropForward) {
  TaskGraph g;
  const int t0 = g.add_task("t0", {});
  // Depends on t0 (backward, kept) and on task 5 (forward/unknown: the
  // engine treats those as satisfied, so no edge may appear).
  const int t1 = g.add_task("t1", {}, {t0, 5});

  const auto all = g.edges();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(has_edge(all, t0, t1, Edge::kExplicit));

  // edges(false) drops inferred edges but keeps the declared ones.
  TaskGraph h;
  const int buf = h.add_buffer("v", 64);
  const int w0 = h.add_task("w0", {{buf, Access::kWrite}});
  const int w1 = h.add_task("w1", {{buf, Access::kWrite}}, {w0});
  EXPECT_TRUE(has_edge(h.edges(), w0, w1, Edge::kWaw));
  const auto explicit_only = h.edges(/*include_inferred=*/false);
  ASSERT_EQ(explicit_only.size(), 1u);
  EXPECT_TRUE(has_edge(explicit_only, w0, w1, Edge::kExplicit));
}

TEST(TaskGraph, ReachabilityIsTransitive) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  const int t0 = g.add_task("t0", {{buf, Access::kWrite}});
  const int t1 = g.add_task("t1", {{buf, Access::kReadWrite}});
  const int t2 = g.add_task("t2", {{buf, Access::kRead}});
  const int lone = g.add_task("lone", {});

  const auto reach = g.reachability(g.edges());
  EXPECT_TRUE(reach.before(t0, t1));
  EXPECT_TRUE(reach.before(t0, t2));  // via t1
  EXPECT_FALSE(reach.before(t2, t0));
  EXPECT_TRUE(reach.ordered(t0, t2));
  EXPECT_FALSE(reach.ordered(t0, lone));
}

TEST(TaskGraph, FindsDeclaredCycle) {
  TaskGraph g;
  // t0 forward-depends on t1, t1 backward-depends on t0: a declared cycle
  // the engine would silently break by dropping the forward half.
  g.add_task("t0", {}, {1});
  g.add_task("t1", {}, {0});
  const std::vector<int> cycle = g.find_declared_cycle();
  ASSERT_EQ(cycle.size(), 2u);
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), 0), cycle.end());
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), 1), cycle.end());
}

TEST(TaskGraph, AcyclicDeclaredDepsReportNoCycle) {
  TaskGraph g;
  const int t0 = g.add_task("t0", {});
  const int t1 = g.add_task("t1", {}, {t0});
  g.add_task("t2", {}, {t0, t1});
  EXPECT_TRUE(g.find_declared_cycle().empty());
}

TEST(TaskGraph, AddBufferAtRejectsWrappingRange) {
  TaskGraph g;
  // base + bytes past 2^64 would wrap and poison every overlap query.
  EXPECT_EQ(g.add_buffer_at("wrap", UINT64_MAX, 2), -1);
  EXPECT_EQ(g.add_buffer_at("wrap2", UINT64_MAX - 9, 10 + 1), -1);
  EXPECT_TRUE(g.buffers().empty());
  // The exact fit (base + bytes == 2^64) is still representable.
  EXPECT_GE(g.add_buffer_at("fit", UINT64_MAX - 10, 10), 0);
  // Fresh allocation would land past the top: it fails safely, it does
  // not wrap around into the low ranges.
  EXPECT_EQ(g.add_buffer("later", 64), -1);
}

TEST(TaskGraph, ZeroByteBuffersNeverOverlap) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  const int empty = g.add_buffer_at("empty", g.buffers()[a].base, 0);
  EXPECT_EQ(g.buffers()[empty].bytes, 0u);
  EXPECT_FALSE(g.ranges_overlap(a, empty));
  EXPECT_FALSE(g.ranges_overlap(empty, empty));
}

TEST(TaskGraph, OverlappingExplicitRangesAreModeled) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  // Partial overlap (tail of `a` / head of `b`) counts, not just identity.
  const int b = g.add_buffer_at("b", g.buffers()[a].base + 128, 256);
  EXPECT_TRUE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));
}

TEST(TaskGraph, TotalRootBytesCountsRootsOnly) {
  TaskGraph g;
  g.add_buffer("a", 300);
  const int b = g.add_buffer("b", 700);
  g.partition(b, 2);  // blocks must not double-count their root's bytes
  EXPECT_EQ(g.total_root_bytes(), 1000u);
}

TEST(TaskGraph, SetTaskFlopsIsBoundsChecked) {
  TaskGraph g;
  const int t = g.add_task("t", {});
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 0.0);
  g.set_task_flops(t, 2.5e9);
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 2.5e9);
  g.set_task_flops(-1, 1.0);   // out of range: ignored, no crash
  g.set_task_flops(42, 1.0);
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 2.5e9);
}

TEST(TaskGraph, PartitionOfPartitionKeepsLineage) {
  TaskGraph g;
  const int root = g.add_buffer("m", 1000);
  const auto rows = g.partition(root, 2);
  const auto tiles = g.partition(rows[0], 2);
  EXPECT_TRUE(g.same_lineage(root, tiles[0]));
  EXPECT_TRUE(g.same_lineage(rows[0], tiles[1]));
  EXPECT_FALSE(g.same_lineage(rows[1], tiles[0]));
  EXPECT_FALSE(g.ranges_overlap(rows[1], tiles[0]));
}

}  // namespace
}  // namespace starvm
