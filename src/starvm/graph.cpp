#include "starvm/graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "starvm/codelet.hpp"
#include "starvm/dependency.hpp"
#include "starvm/engine.hpp"

namespace starvm {

namespace {

/// Root buffers are placed on disjoint ranges separated by a guard gap so
/// off-by-one range math in rules can never produce accidental overlap.
constexpr std::uint64_t kGuardGap = 64;

}  // namespace

int TaskGraph::add_buffer(std::string name, std::uint64_t bytes,
                          pdl::SourceLoc loc) {
  // add_buffer_at moves next_base_ past the new range and its guard gap.
  return add_buffer_at(std::move(name), next_base_, bytes, std::move(loc));
}

int TaskGraph::add_buffer_at(std::string name, std::uint64_t base,
                             std::uint64_t bytes, pdl::SourceLoc loc) {
  if (base > UINT64_MAX - bytes) return -1;  // wrapped range: see header
  GraphBuffer buffer;
  buffer.name = std::move(name);
  buffer.base = base;
  buffer.bytes = bytes;
  buffer.loc = std::move(loc);
  const std::uint64_t end = base + bytes;  // no wrap: checked above
  next_base_ = std::max(next_base_,
                        end > UINT64_MAX - kGuardGap ? end : end + kGuardGap);
  buffers_.push_back(std::move(buffer));
  return static_cast<int>(buffers_.size() - 1);
}

int TaskGraph::add_task(std::string name, std::vector<GraphAccess> accesses,
                        std::vector<int> declared_deps, pdl::SourceLoc loc) {
  for (const GraphAccess& access : accesses) {
    if (access.buffer < 0 || access.buffer >= static_cast<int>(buffers_.size())) {
      return -1;
    }
  }
  GraphTask task;
  task.name = std::move(name);
  task.accesses = std::move(accesses);
  task.declared_deps = std::move(declared_deps);
  task.loc = std::move(loc);
  tasks_.push_back(std::move(task));
  return static_cast<int>(tasks_.size() - 1);
}

void TaskGraph::set_buffer_tolerance(int buffer, double tolerance,
                                     pdl::SourceLoc loc) {
  if (buffer < 0 || buffer >= static_cast<int>(buffers_.size())) return;
  buffers_[static_cast<std::size_t>(buffer)].tolerance = tolerance;
  buffers_[static_cast<std::size_t>(buffer)].has_tolerance = true;
  buffers_[static_cast<std::size_t>(buffer)].tolerance_loc = std::move(loc);
}

void TaskGraph::set_buffer_range(int buffer, double range) {
  if (buffer < 0 || buffer >= static_cast<int>(buffers_.size())) return;
  buffers_[static_cast<std::size_t>(buffer)].range = range;
  buffers_[static_cast<std::size_t>(buffer)].has_range = true;
}

void TaskGraph::set_task_error_model(int task, ErrorModel model) {
  if (task < 0 || task >= static_cast<int>(tasks_.size())) return;
  tasks_[static_cast<std::size_t>(task)].error_model = model;
}

void TaskGraph::set_task_depth(int task, double depth) {
  if (task < 0 || task >= static_cast<int>(tasks_.size())) return;
  tasks_[static_cast<std::size_t>(task)].depth = depth;
}

void TaskGraph::set_task_flops(int task, double flops) {
  if (task < 0 || task >= static_cast<int>(tasks_.size())) return;
  tasks_[task].flops = flops;
}

std::uint64_t TaskGraph::total_root_bytes() const {
  std::uint64_t total = 0;
  for (const GraphBuffer& buffer : buffers_) total += buffer.bytes;
  return total;
}

std::vector<TaskGraph::Edge> TaskGraph::edges(bool include_inferred) const {
  std::vector<Edge> result;
  // The engine's per-buffer tails, over engine task ids (graph index + 1).
  std::vector<AccessTail<TaskId>> tails(buffers_.size());

  // Every edge into task t is appended while t is processed, so a
  // duplicate can only be among t's own edges: scan from t's first one.
  std::size_t first_of_task = 0;
  const auto add_edge = [&](int from, int to, Edge::Kind kind, int buffer) {
    if (from == to) return;
    for (std::size_t i = first_of_task; i < result.size(); ++i) {
      const Edge& e = result[i];
      if (e.from == from && e.to == to && e.kind == kind && e.buffer == buffer) {
        return;
      }
    }
    result.push_back(Edge{from, to, kind, buffer});
  };

  for (int t = 0; t < static_cast<int>(tasks_.size()); ++t) {
    const GraphTask& task = tasks_[t];
    first_of_task = result.size();
    // Backward declared deps become edges; forward/unknown ids are dropped,
    // matching Engine::submit (ids not yet submitted are "satisfied").
    for (int dep : task.declared_deps) {
      if (dep >= 0 && dep < t) {
        add_edge(dep, t, Edge::kExplicit, -1);
      }
    }
    if (!include_inferred) continue;
    for (const GraphAccess& access : task.accesses) {
      order_access(tails[static_cast<std::size_t>(access.buffer)],
                   static_cast<TaskId>(t + 1), access.mode,
                   [&](TaskId dep, DepKind kind) {
                     add_edge(static_cast<int>(dep - 1), t,
                              kind == DepKind::kRaw   ? Edge::kRaw
                              : kind == DepKind::kWar ? Edge::kWar
                                                      : Edge::kWaw,
                              access.buffer);
                   });
    }
  }
  return result;
}

TaskGraph::Reachability TaskGraph::reachability(
    const std::vector<Edge>& edges) const {
  const int n = static_cast<int>(tasks_.size());
  std::vector<std::vector<int>> succ(n);
  for (const Edge& e : edges) {
    if (e.from >= 0 && e.from < n && e.to >= 0 && e.to < n) {
      succ[e.from].push_back(e.to);
    }
  }
  std::vector<bool> bits(static_cast<std::size_t>(n) * n, false);
  for (int start = 0; start < n; ++start) {
    std::queue<int> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      const int node = frontier.front();
      frontier.pop();
      for (int next : succ[node]) {
        const std::size_t idx = static_cast<std::size_t>(start) * n + next;
        if (!bits[idx]) {
          bits[idx] = true;
          frontier.push(next);
        }
      }
    }
  }
  return Reachability(n, std::move(bits));
}

bool TaskGraph::ranges_overlap(int a, int b) const {
  if (a == b || a < 0 || b < 0 || a >= static_cast<int>(buffers_.size()) ||
      b >= static_cast<int>(buffers_.size())) {
    return false;
  }
  const GraphBuffer& x = buffers_[a];
  const GraphBuffer& y = buffers_[b];
  if (x.bytes == 0 || y.bytes == 0) return false;
  return x.base < y.base + y.bytes && y.base < x.base + x.bytes;
}

std::vector<int> TaskGraph::find_declared_cycle() const {
  const int n = static_cast<int>(tasks_.size());
  // DFS over declared deps (dep -> task direction) with a gray/black mark;
  // the first back edge closes the reported cycle.
  enum class Mark { kWhite, kGray, kBlack };
  std::vector<Mark> mark(n, Mark::kWhite);
  std::vector<int> stack;
  std::vector<int> cycle;

  std::function<bool(int)> visit = [&](int node) {
    mark[node] = Mark::kGray;
    stack.push_back(node);
    for (int dep : tasks_[node].declared_deps) {
      if (dep < 0 || dep >= n) continue;
      if (mark[dep] == Mark::kGray) {
        auto it = std::find(stack.begin(), stack.end(), dep);
        cycle.assign(it, stack.end());
        return true;
      }
      if (mark[dep] == Mark::kWhite && visit(dep)) return true;
    }
    stack.pop_back();
    mark[node] = Mark::kBlack;
    return false;
  };

  for (int t = 0; t < n; ++t) {
    if (mark[t] == Mark::kWhite && visit(t)) break;
  }
  return cycle;
}

void submit_graph(Engine& engine, const TaskGraph& graph,
                  const std::vector<DataHandle*>& handles,
                  const std::vector<Codelet>& codelets) {
  const std::vector<GraphTask>& tasks = graph.tasks();
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    TaskDesc desc;
    desc.codelet = &codelets[t];
    for (const GraphAccess& access : tasks[t].accesses) {
      desc.buffers.push_back(
          {handles[static_cast<std::size_t>(access.buffer)], access.mode});
    }
    // A negative d maps to 0 or wraps past every id: unknown, satisfied.
    for (const int dep : tasks[t].declared_deps) {
      desc.depends_on.push_back(static_cast<TaskId>(dep + 1));
    }
    engine.submit(std::move(desc));
  }
}

}  // namespace starvm
