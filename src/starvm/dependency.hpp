// Dependency inference: sequential consistency per buffer, like StarPU. A
// read depends on the buffer's last writer (RAW); a write depends on the
// last writer (WAW) and on every reader since that write (WAR), then
// becomes the last writer. This is the one copy of the rule: the engine
// applies it to each DataHandle at submit, TaskGraph::edges to each
// recorded buffer.
#pragma once

#include <vector>

#include "starvm/types.hpp"

namespace starvm {

/// Why a task must wait for an earlier one on a shared buffer.
enum class DepKind { kRaw, kWar, kWaw };

/// What ordering needs to know of one buffer's past accesses. `Task` is a
/// cheap task reference whose value-initialized state means "none": the
/// engine's node pointer, or an engine TaskId (0 = no task).
template <class Task>
struct AccessTail {
  Task last_writer{};
  std::vector<Task> readers_since_write;
};

/// Orders `task`'s access in `mode` after the buffer's past: calls
/// `on_dep(dep, kind)` for every earlier task it must wait for (RAW first,
/// then WAW, then each WAR in read order), then records the access.
template <class Task, class OnDep>
inline void order_access(AccessTail<Task>& tail, Task task, Access mode,
                         OnDep&& on_dep) {
  if (reads(mode) && tail.last_writer) on_dep(tail.last_writer, DepKind::kRaw);
  if (writes(mode)) {
    if (tail.last_writer) on_dep(tail.last_writer, DepKind::kWaw);
    for (Task reader : tail.readers_since_write) on_dep(reader, DepKind::kWar);
    tail.last_writer = task;
    tail.readers_since_write.clear();
  } else {
    tail.readers_since_write.push_back(task);
  }
}

}  // namespace starvm
