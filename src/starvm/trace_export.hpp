// Trace export: render an EngineStats record for humans and tools.
//
//   * Chrome trace-event JSON — load in chrome://tracing / Perfetto to see
//     the per-device virtual-time schedule;
//   * a merged timeline that also carries the toolchain's wall-time spans
//     (obs::Tracer) in a separate process lane;
//   * an ASCII Gantt chart for terminals and logs;
//   * the starvm.* samples of the obs metrics registry (JSON snapshot and
//     Prometheus), which an engine publishes when it ends.
#pragma once

#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "starvm/stats.hpp"

namespace starvm {

/// Chrome trace-event format (JSON array of complete events, "X" phase).
/// One row per device; timestamps are the virtual clock in microseconds.
/// Degenerate traces are sanitized: non-finite or negative durations clamp
/// to zero, a non-finite flops estimate is omitted from the args, and
/// tasks that never ran (device == -1) land on an "unassigned" lane.
/// Scheduler decisions, when recorded, appear as instant events ("i")
/// carrying the candidate devices and their modeled finish times.
std::string to_chrome_trace(const EngineStats& stats);

/// One Chrome trace combining toolchain wall-time spans (pid 1, from
/// obs::Tracer) with the engine's virtual-clock schedule (pid 2, when
/// `stats` is non-null). The two clocks are unrelated; separate pid lanes
/// keep the viewer from implying simultaneity.
std::string merged_chrome_trace(const std::vector<obs::SpanRecord>& spans,
                                const EngineStats* stats);

/// Fixed-width ASCII Gantt chart of the virtual-time schedule.
/// `width` = number of character cells spanning the makespan.
std::string to_ascii_gantt(const EngineStats& stats, int width = 72);

/// Chrome trace of a flight-recorder snapshot, on its own process lane
/// (pid 3, "flight recorder") so post-mortem evidence never mixes with the
/// schedule lanes. Records with an end timestamp become "X" complete
/// events; records without one (a task that started but never finished —
/// exactly what a post-mortem wants to show — and point events like
/// retries) become "i" instant events. One tid per lane; the fault lane
/// renders as tid = device count, named "faults".
std::string flight_chrome_trace(const std::vector<obs::FlightEvent>& events,
                                const obs::FlightLabelFn& label = {});

/// Add one finished run's totals to the global metrics registry: the
/// counters starvm.tasks_submitted, tasks_completed, transfers, evictions,
/// task_failures, task_timeouts, task_retries, device_blacklists and
/// decisions.<policy> (one per attempt: completions plus failures), and one
/// starvm.task_exec_us sample per trace row. Every instrument is created,
/// zeros included. Engine::~Engine calls it while obs::metrics_enabled().
void publish_metrics(const EngineStats& stats);

}  // namespace starvm
