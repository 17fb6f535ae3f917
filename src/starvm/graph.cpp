#include "starvm/graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace starvm {

namespace {

/// Root buffers are placed on disjoint ranges separated by a guard gap so
/// off-by-one range math in rules can never produce accidental overlap.
constexpr std::uint64_t kGuardGap = 64;

}  // namespace

int TaskGraph::add_buffer(std::string name, std::uint64_t bytes,
                          pdl::SourceLoc loc) {
  const std::uint64_t base = next_base_;
  next_base_ += bytes + kGuardGap;
  return add_buffer_at(std::move(name), base, bytes, std::move(loc));
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

std::vector<int> TaskGraph::partition(int buffer, int nblocks) {
  std::vector<int> blocks;
  if (buffer < 0 || buffer >= static_cast<int>(buffers_.size()) || nblocks < 1) {
    return blocks;
  }
  const std::uint64_t base = buffers_[buffer].base;
  const std::uint64_t bytes = buffers_[buffer].bytes;
  const std::uint64_t chunk = bytes / nblocks;
  const std::uint64_t remainder = bytes % nblocks;
  std::uint64_t offset = 0;
  for (int i = 0; i < nblocks; ++i) {
    // Same split as Engine::partition_vector: early blocks absorb the
    // remainder one byte at a time.
    const std::uint64_t len = chunk + (static_cast<std::uint64_t>(i) < remainder ? 1 : 0);
    GraphBuffer block;
    block.name = buffers_[buffer].name + "[" + std::to_string(i) + "]";
    block.base = base + offset;
    block.bytes = len;
    block.parent = buffer;
    block.loc = buffers_[buffer].loc;
    offset += len;
    buffers_.push_back(std::move(block));
    const int id = static_cast<int>(buffers_.size() - 1);
    buffers_[buffer].children.push_back(id);
    blocks.push_back(id);
  }
  return blocks;
}

int TaskGraph::add_task(std::string name, std::vector<GraphAccess> accesses,
                        std::vector<int> declared_deps, pdl::SourceLoc loc) {
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
  for (const GraphBuffer& buffer : buffers_) {
    if (buffer.parent < 0) total += buffer.bytes;
  }
  return total;
}

std::vector<TaskGraph::Edge> TaskGraph::edges(bool include_inferred) const {
  std::vector<Edge> result;
  // Per-buffer sequential-consistency state, replayed in submission order
  // exactly like Engine::submit.
  struct BufferState {
    int last_writer = -1;
    std::vector<int> readers_since_write;
  };
  std::vector<BufferState> state(buffers_.size());

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
    // matching Engine::submit (ids >= next_task_id_ are "satisfied").
    for (int dep : task.declared_deps) {
      if (dep >= 0 && dep < t) {
        add_edge(dep, t, Edge::kExplicit, -1);
      }
    }
    if (!include_inferred) continue;
    for (const GraphAccess& access : task.accesses) {
      if (access.buffer < 0 ||
          access.buffer >= static_cast<int>(buffers_.size())) {
        continue;
      }
      BufferState& bs = state[access.buffer];
      if (reads(access.mode) && bs.last_writer >= 0) {
        add_edge(bs.last_writer, t, Edge::kRaw, access.buffer);
      }
      if (writes(access.mode)) {
        if (bs.last_writer >= 0) {
          add_edge(bs.last_writer, t, Edge::kWaw, access.buffer);
        }
        for (int reader : bs.readers_since_write) {
          add_edge(reader, t, Edge::kWar, access.buffer);
        }
        bs.last_writer = t;
        bs.readers_since_write.clear();
      }
      if (reads(access.mode) && !writes(access.mode)) {
        bs.readers_since_write.push_back(t);
      }
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

bool TaskGraph::same_lineage(int a, int b) const {
  if (a < 0 || b < 0) return false;
  for (int node = a; node >= 0; node = buffers_[node].parent) {
    if (node == b) return true;
  }
  for (int node = b; node >= 0; node = buffers_[node].parent) {
    if (node == a) return true;
  }
  return false;
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

}  // namespace starvm
