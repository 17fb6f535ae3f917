// Turn a recorded TaskGraph (graph_io fixture text or a programmatically
// built graph) into a model-checkable mc::Program.
//
// The generated program owns real storage for every buffer — honoring
// declared base addresses, so aliased registrations share bytes — submits
// the graph through starvm::submit_graph (the lowering the A5xx plan uses
// too) and runs a deterministic integer-valued mixing kernel per task:
// reads are summed, writes accumulate a value derived from the task and its
// inputs. All arithmetic stays exact in doubles (integers well below 2^53),
// so the output hash is bit-stable and additive writes commute exactly: two
// unordered writers over an aliased range produce the same bytes in either
// order, which is what lets the explorer demand numeric equivalence across
// interleavings (A602) even on aliased-WAW graphs.
#pragma once

#include <string>

#include "mc/explorer.hpp"
#include "starvm/fault.hpp"
#include "starvm/graph.hpp"
#include "starvm/types.hpp"
#include "util/result.hpp"

namespace mc {

struct GraphProgramOptions {
  int devices = 2;
  double gflops = 5.0;
  starvm::SchedulerKind scheduler = starvm::SchedulerKind::kHeft;
  starvm::FaultToleranceConfig fault_tolerance;
  /// FaultPlan spec string (fault.hpp grammar); empty = no plan. Plans that
  /// fire device- or history-dependently make outcomes legitimately
  /// schedule-dependent — pair them with Options::check_serial = false.
  std::string fault_plan;
};

/// Build a Program from a task graph. Fails only on an unparsable fault
/// plan. The returned Program owns its state (graph copy, storage,
/// codelets) via shared handles inside its closures; it is safely copyable
/// and reusable across explorations.
pdl::util::Result<Program> make_graph_program(const starvm::TaskGraph& graph,
                                              GraphProgramOptions options);

/// True when `spec` can fire differently depending on which device runs a
/// task (device-qualified fail/delay, kill, random): outcomes are then
/// schedule-dependent by design and the serial-equivalence check must be
/// disabled.
bool fault_plan_is_schedule_sensitive(const std::string& spec);

}  // namespace mc
