// Static task-graph extraction: a declarative recorder that captures the
// buffers, accesses, and dependencies of a starvm program WITHOUT executing
// it. Analysis tools (pdlcheck) build a TaskGraph from annotated programs
// (or by hand in tests) and query it for the facts static rules need:
//
//   * the dependency edges Engine::submit infers, from the same per-buffer
//     rule (dependency.hpp: RAW, WAR, WAW) plus explicit deps,
//   * happens-before reachability over those edges,
//   * byte-range overlap between distinct buffers (double registration
//     over one allocation),
//   * declared-dependency cycles — which the engine silently *breaks*
//     (forward task ids are treated as already satisfied), making them a
//     static bug worth surfacing rather than a runtime deadlock.
//
// Buffers use abstract base addresses: add_buffer() allocates disjoint
// ranges, add_buffer_at() places a buffer at a caller-chosen base so
// aliasing can be modeled. submit_graph() runs the recorded program on an
// engine; it is the one lowering starmc and the A5xx plan share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdl/diagnostics.hpp"
#include "starvm/types.hpp"

namespace starvm {

class DataHandle;
class Engine;
struct Codelet;

/// One buffer the recorded program registers.
struct GraphBuffer {
  std::string name;
  std::uint64_t base = 0;   ///< Abstract start address of the byte range.
  std::uint64_t bytes = 0;  ///< Range length; may be 0.
  pdl::SourceLoc loc;  ///< Source location of the registration, if known.

  // Accuracy contract (A7xx, docs/ANALYSIS.md): a declared tolerance is the
  // maximum acceptable per-element absolute error of the buffer's final
  // contents; a declared range is the maximum |value| the program feeds in
  // through this buffer (the magnitude the error bounds are evaluated at).
  double tolerance = 0.0;
  bool has_tolerance = false;
  pdl::SourceLoc tolerance_loc;  ///< Where the tolerance was declared.
  double range = 0.0;
  bool has_range = false;
};

/// One buffer access of a recorded task.
struct GraphAccess {
  int buffer = -1;
  Access mode = Access::kRead;
};

/// One recorded task in submission order.
struct GraphTask {
  std::string name;
  std::vector<GraphAccess> accesses;
  std::vector<int> declared_deps;  ///< Task indices as written by the program.
  /// Useful work of the task for analytic cost models; 0 = unknown (static
  /// analyses fall back to the perf model's default estimate).
  double flops = 0.0;
  /// Declared error model of the implementation this task runs (A7xx);
  /// kUnspecified tasks make every bound they write unknown (A702).
  ErrorModel error_model;
  /// Accumulation depth the error model is evaluated at; 0 falls back to
  /// the model's own default depth, then to 1.
  double depth = 0.0;
  pdl::SourceLoc loc;
};

class TaskGraph {
 public:
  // --- Recording ------------------------------------------------------------

  /// Register a buffer on a fresh, disjoint abstract range (-1 when the
  /// address space is exhausted, see add_buffer_at).
  int add_buffer(std::string name, std::uint64_t bytes,
                 pdl::SourceLoc loc = {});

  /// Register a buffer at an explicit base address. Overlapping an
  /// existing range is allowed — that is precisely how double registration
  /// over one allocation is modeled. Zero-byte buffers are legal and never
  /// overlap anything. A range whose `base + bytes` would wrap past 2^64 is
  /// rejected (returns -1): wrapped ranges would make every overlap and
  /// footprint query downstream (A403/A501) garbage-in.
  int add_buffer_at(std::string name, std::uint64_t base, std::uint64_t bytes,
                    pdl::SourceLoc loc = {});

  /// Record a task touching `accesses`, optionally with explicitly declared
  /// dependencies (indices of other tasks, forward references permitted —
  /// the engine would silently satisfy those, see declared-cycle notes).
  /// An access to a buffer the graph does not hold is refused: returns -1
  /// and records nothing.
  int add_task(std::string name, std::vector<GraphAccess> accesses,
               std::vector<int> declared_deps = {}, pdl::SourceLoc loc = {});

  /// Attach an analytic cost to a recorded task (see GraphTask::flops).
  void set_task_flops(int task, double flops);

  /// Declare the maximum acceptable absolute error of a buffer's final
  /// contents (A701 checks propagated bounds against it). `loc` is the
  /// declaration site the finding should point at.
  void set_buffer_tolerance(int buffer, double tolerance,
                            pdl::SourceLoc loc = {});

  /// Declare the maximum |value| the program feeds in through a buffer —
  /// the magnitude error bounds are evaluated at. Without ranges on the
  /// inputs every rounding bound is vacuous (A704).
  void set_buffer_range(int buffer, double range);

  /// Attach the implementation's declared error model to a recorded task.
  void set_task_error_model(int task, ErrorModel model);

  /// Accumulation depth the task's error model is evaluated at (e.g. the k
  /// extent of a GEMM); see GraphTask::depth.
  void set_task_depth(int task, double depth);

  // --- Introspection --------------------------------------------------------

  const std::vector<GraphBuffer>& buffers() const { return buffers_; }
  const std::vector<GraphTask>& tasks() const { return tasks_; }

  struct Edge {
    enum Kind { kExplicit, kRaw, kWar, kWaw };
    int from = -1;  ///< Must complete first.
    int to = -1;    ///< Depends on `from`.
    Kind kind = kExplicit;
    int buffer = -1;  ///< Buffer inducing the edge; -1 for explicit deps.
  };

  /// The effective dependency edges of the recorded program: each task's
  /// explicit deps, then the engine's own per-buffer rule (order_access,
  /// dependency.hpp) over its accesses, in submission order. Explicit
  /// declared deps are included only when they point backwards to an
  /// existing task — forward/unknown ids are dropped exactly like the
  /// engine drops them. Set `include_inferred` to false to get only the
  /// explicit edges (the ordering a relaxed-consistency runtime would keep).
  std::vector<Edge> edges(bool include_inferred = true) const;

  /// Happens-before closure over a set of edges.
  class Reachability {
   public:
    Reachability(int n, std::vector<bool> bits)
        : n_(n), bits_(std::move(bits)) {}
    /// True when task `a` is ordered before task `b`.
    bool before(int a, int b) const { return bits_[static_cast<std::size_t>(a) * n_ + b]; }
    /// True when the pair is ordered either way.
    bool ordered(int a, int b) const { return before(a, b) || before(b, a); }

   private:
    int n_;
    std::vector<bool> bits_;
  };

  Reachability reachability(const std::vector<Edge>& edges) const;

  /// True when the byte ranges of two distinct buffers intersect.
  bool ranges_overlap(int a, int b) const;

  /// Sum of every registered buffer's bytes — the total working set
  /// assuming every registration is live at once (the capacity analyzer's
  /// upper bound; an aliasing registration counts again, as the engine
  /// holds it as a separate handle).
  std::uint64_t total_root_bytes() const;

  /// A declared-dependency cycle (task indices in cycle order), or empty.
  /// Cycles can only arise through forward declared deps; the engine
  /// silently treats those as satisfied, so a cycle means the program's
  /// stated ordering is unenforceable.
  std::vector<int> find_declared_cycle() const;

 private:
  std::vector<GraphBuffer> buffers_;
  std::vector<GraphTask> tasks_;
  std::uint64_t next_base_ = 0;
};

/// Submit the recorded program to `engine`: one Engine::submit per task,
/// in graph order, task t running `codelets[t]` on `handles[b]` for each
/// access to buffer b. A declared dependency d becomes task id d + 1
/// (ids are dense from 1, so `engine` must have no earlier task); the
/// engine treats forward and negative indices as satisfied, as edges()
/// does. `handles` holds one handle per graph buffer.
void submit_graph(Engine& engine, const TaskGraph& graph,
                  const std::vector<DataHandle*>& handles,
                  const std::vector<Codelet>& codelets);

}  // namespace starvm
