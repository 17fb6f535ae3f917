// Data handles: registered application buffers with replica tracking and
// BLOCK partitioning (the paper's distribution specifier).
//
// starvm follows StarPU's data-management design: the application registers
// buffers once, tasks name handles with access modes, and the runtime
// (a) infers dependencies and (b) accounts for transfers between memory
// nodes. Because accelerators are simulated, replicas are *bookkeeping
// only* — all real computation touches the host buffer; the valid-set per
// node drives the modeled transfer costs (MSI-style: a write leaves the
// writer's node as the only valid replica).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "starvm/dependency.hpp"
#include "starvm/types.hpp"

namespace starvm {

class Engine;

namespace detail {
struct TaskNode;
}

/// A registered buffer (or a partition block of one).
class DataHandle {
 public:
  /// Host pointer of this block (top-left element for matrix blocks).
  void* ptr() const { return ptr_; }
  /// Payload bytes (for matrix blocks: rows*cols*8, ignoring the stride gap).
  std::size_t bytes() const { return bytes_; }
  const std::string& name() const { return name_; }

  /// Matrix geometry in doubles. Vectors are 1 x n with ld = n.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Row stride of the underlying allocation (== cols for unpartitioned).
  std::size_t ld() const { return ld_; }

  /// Parent handle when this is a partition block; nullptr for roots.
  DataHandle* parent() const { return parent_; }
  const std::vector<DataHandle*>& children() const { return children_; }
  bool partitioned() const { return !children_.empty(); }

  /// True when node `n` holds a valid replica (bookkeeping; see header).
  bool valid_on(MemoryNodeId n) const {
    return n >= 0 && n < 64 && (valid_ & node_bit(n)) != 0;
  }

  /// Lowest-numbered node holding a valid replica; -1 when none. The host
  /// is node 0, so "prefer the host, else the first valid node" is exactly
  /// the mask's lowest set bit — O(1) where the transfer-source search used
  /// to scan every node per buffer. Guarded by the engine's memory mutex.
  MemoryNodeId first_valid_node() const {
    return valid_ == 0 ? -1 : static_cast<MemoryNodeId>(std::countr_zero(valid_));
  }

 private:
  friend class Engine;

  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t rows_ = 0, cols_ = 0, ld_ = 0;
  std::string name_;
  DataHandle* parent_ = nullptr;
  std::vector<DataHandle*> children_;

  // --- engine-private state ---
  static std::uint64_t node_bit(MemoryNodeId n) { return std::uint64_t{1} << n; }

  /// Replica valid-set, one bit per memory node (ids are dense and small:
  /// host + one per accelerator; <= 64 nodes enforced at engine
  /// construction). A plain word instead of vector<bool> keeps handle
  /// registration allocation-free. Guarded by the engine's memory mutex.
  std::uint64_t valid_ = 0;
  /// Dependency-inference tail (dependency.hpp), guarded by the engine's
  /// submit mutex.
  AccessTail<detail::TaskNode*> tail_;
};

}  // namespace starvm
