#include <gtest/gtest.h>

#include <numeric>

#include "starvm/codelet.hpp"
#include "starvm/engine.hpp"
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
}

TEST(TaskGraph, AddBufferAtModelsAliasedRegistration) {
  TaskGraph g;
  const int a = g.add_buffer("alloc", 1024);
  // A second handle registered over the same allocation, as
  // register_vector(data.data(), n) twice would produce at runtime.
  const int b = g.add_buffer_at("alias", g.buffers()[a].base, 1024);
  EXPECT_TRUE(g.ranges_overlap(a, b));
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
}

TEST(TaskGraph, TotalRootBytesCountsRootsOnly) {
  TaskGraph g;
  g.add_buffer("a", 300);
  const int b = g.add_buffer("b", 700);
  EXPECT_EQ(g.total_root_bytes(), 1000u);
  // Every registration is a root the engine holds as its own handle: one
  // aliasing the tail of `b` counts again, a zero-byte one adds nothing.
  g.add_buffer_at("b tail", g.buffers()[b].base + 500, 200);
  g.add_buffer_at("empty", g.buffers()[b].base, 0);
  EXPECT_EQ(g.total_root_bytes(), 1200u);
}

TEST(TaskGraph, AddTaskRejectsUnknownBuffer) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  // Indices past the end and negative ones are refused whole: nothing of
  // the task is recorded, as add_buffer_at records nothing of a wrap.
  EXPECT_EQ(g.add_task("past", {{buf, Access::kRead}, {buf + 1, Access::kWrite}}),
            -1);
  EXPECT_EQ(g.add_task("negative", {{-1, Access::kRead}}), -1);
  EXPECT_TRUE(g.tasks().empty());
  EXPECT_EQ(g.add_task("ok", {{buf, Access::kReadWrite}}), 0);
  ASSERT_EQ(g.tasks().size(), 1u);
  EXPECT_EQ(g.tasks()[0].name, "ok");
}

TEST(TaskGraph, SubmitGraphRunsTheEngineInEdgeOrder) {
  // One rule, one lowering: the engine run of a submitted graph starts no
  // task before every edge() predecessor has finished, and keeps declared
  // forward/unknown deps as harmless as edges() assumes.
  TaskGraph g;
  const int a = g.add_buffer("a", 64);
  const int b = g.add_buffer("b", 64);
  g.add_task("w", {{a, Access::kWrite}});
  g.add_task("r0", {{a, Access::kRead}, {b, Access::kWrite}}, {3, -1});
  g.add_task("r1", {{a, Access::kRead}});
  g.add_task("rw", {{a, Access::kReadWrite}, {b, Access::kRead}}, {0});

  // Pure-sim touches no byte: every handle may alias one word.
  double shared = 0.0;
  EngineConfig config = EngineConfig::cpus(3);
  config.mode = ExecutionMode::kPureSim;
  Engine engine(std::move(config));
  std::vector<DataHandle*> handles;
  for (const GraphBuffer& buffer : g.buffers()) {
    handles.push_back(engine.register_vector(&shared, buffer.bytes / 8, buffer.name));
  }
  std::vector<Codelet> codelets(g.tasks().size());
  for (std::size_t t = 0; t < codelets.size(); ++t) {
    codelets[t].name = g.tasks()[t].name;
    codelets[t].impls = {{DeviceKind::kCpu, {}}};
    codelets[t].flops = [](const std::vector<BufferView>&) { return 1e6; };
  }
  submit_graph(engine, g, handles, codelets);
  ASSERT_TRUE(engine.wait_all().ok());

  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.trace.size(), g.tasks().size());
  std::vector<double> start(g.tasks().size());
  std::vector<double> finish(g.tasks().size());
  for (const TaskTrace& row : stats.trace) {
    const std::size_t t = static_cast<std::size_t>(row.id - 1);
    EXPECT_EQ(row.label, g.tasks()[t].name);
    start[t] = row.start_vtime;
    finish[t] = row.finish_vtime;
  }
  const auto edges = g.edges();
  EXPECT_TRUE(has_edge(edges, 1, 3, Edge::kWar));
  for (const Edge& e : edges) {
    EXPECT_LE(finish[static_cast<std::size_t>(e.from)],
              start[static_cast<std::size_t>(e.to)])
        << e.from << " -> " << e.to;
  }
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

}  // namespace
}  // namespace starvm
