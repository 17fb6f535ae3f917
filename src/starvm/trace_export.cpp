#include "starvm/trace_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace starvm {

namespace {

using obs::json_escape;

/// Non-finite or negative values render as 0 (degenerate stats must still
/// produce a trace every viewer can load).
double sane(double v) { return std::isfinite(v) && v >= 0.0 ? v : 0.0; }

/// Append the engine's virtual-time schedule as Chrome events under `pid`:
/// thread_name metadata per device (plus an "unassigned" lane when needed),
/// one "X" event per task, one "i" event per recorded decision.
void append_engine_events(std::ostringstream& os, const EngineStats& stats,
                          int pid, bool& first) {
  const auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };

  for (std::size_t d = 0; d < stats.devices.size(); ++d) {
    comma();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << d << ",\"args\":{\"name\":\""
       << json_escape(stats.devices[d].name) << " ("
       << to_string(stats.devices[d].kind) << ")\"}}";
  }
  // Tasks that never reached a device share one extra lane.
  const auto unassigned_tid = static_cast<long>(stats.devices.size());
  bool any_unassigned = false;
  for (const auto& t : stats.trace) any_unassigned |= t.device < 0;
  for (const auto& e : stats.fault_events) any_unassigned |= e.device < 0;
  if (any_unassigned) {
    os << (first ? "" : ",")
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << unassigned_tid
       << ",\"args\":{\"name\":\"unassigned\"}}";
    first = false;
  }

  for (const auto& t : stats.trace) {
    comma();
    const double start_us = sane(t.start_vtime) * 1e6;
    const double raw_dur = t.finish_vtime - t.start_vtime;
    const double dur_us = sane(raw_dur) * 1e6;
    const long tid = t.device < 0 ? unassigned_tid : t.device;
    os << "{\"name\":\"" << json_escape(t.label) << "\",\"ph\":\"X\",\"pid\":"
       << pid << ",\"tid\":" << tid << ",\"ts\":" << start_us
       << ",\"dur\":" << dur_us
       << ",\"args\":{\"transfer_us\":" << sane(t.transfer_seconds) * 1e6
       << ",\"exec_us\":" << sane(t.exec_seconds) * 1e6;
    if (std::isfinite(t.flops)) os << ",\"flops\":" << t.flops;
    os << "}}";
  }

  for (const auto& e : stats.fault_events) {
    comma();
    const long tid = e.device < 0 ? unassigned_tid : e.device;
    os << "{\"name\":\"fault: " << to_string(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":" << sane(e.vtime) * 1e6 << ",\"args\":{\"task\":" << e.task
       << ",\"attempt\":" << e.attempt << ",\"detail\":\""
       << json_escape(e.detail) << "\"}}";
  }

  for (const auto& d : stats.decisions) {
    comma();
    const long tid = d.chosen < 0 ? unassigned_tid : d.chosen;
    os << "{\"name\":\"decision: " << json_escape(d.label)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":" << sane(d.decided_vtime) * 1e6
       << ",\"args\":{\"policy\":\"" << to_string(stats.scheduler)
       << "\",\"chosen\":" << d.chosen << ",\"candidates\":[";
    for (std::size_t i = 0; i < d.candidates.size(); ++i) {
      const DecisionCandidate& c = d.candidates[i];
      if (i > 0) os << ",";
      os << "{\"device\":" << c.device << ",\"name\":\""
         << json_escape(c.device_name) << "\",\"devices\":" << c.class_size
         << ",\"est_finish_us\":" << sane(c.est_finish_vtime) * 1e6 << "}";
    }
    os << "]}}";
  }
}

}  // namespace

std::string to_chrome_trace(const EngineStats& stats) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  append_engine_events(os, stats, 1, first);
  os << "]";
  return os.str();
}

std::string merged_chrome_trace(const std::vector<obs::SpanRecord>& spans,
                                const EngineStats* stats) {
  std::string out = "[";
  bool first = true;
  // Wall time (toolchain) and virtual time (engine model) are unrelated
  // clocks; distinct process lanes keep the viewer honest about that.
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"toolchain wall time\"}}";
  first = false;
  if (stats != nullptr) {
    out +=
        ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"args\":{\"name\":\"engine virtual time\"}}";
  }
  obs::append_chrome_span_events(out, spans, 1, first);
  if (stats != nullptr) {
    std::ostringstream os;
    append_engine_events(os, *stats, 2, first);
    out += os.str();
  }
  out += "]";
  return out;
}

std::string flight_chrome_trace(const std::vector<obs::FlightEvent>& events,
                                const obs::FlightLabelFn& label) {
  constexpr int kPid = 3;  // pids 1/2 belong to merged_chrome_trace's lanes
  std::ostringstream os;
  os << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
     << ",\"args\":{\"name\":\"flight recorder\"}}";

  // One tid per lane. A lane record's lane is its device; the highest lane
  // present is taken for the fault lane only when it carries fault-kind
  // records (it does, by construction).
  std::uint32_t max_ring = 0;
  for (const auto& e : events) max_ring = std::max(max_ring, e.ring);
  for (std::uint32_t r = 0; r <= max_ring; ++r) {
    bool fault_ring = false, seen = false;
    for (const auto& e : events) {
      if (e.ring != r) continue;
      seen = true;
      fault_ring |= e.kind >= obs::FlightKind::kRetry;
    }
    if (!seen && r == max_ring) break;
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
       << ",\"tid\":" << r << ",\"args\":{\"name\":\""
       << (fault_ring ? "faults" : ("device " + std::to_string(r))) << "\"}}";
  }

  for (const auto& e : events) {
    std::string name = to_string(e.kind);
    if (e.task != 0) {
      const std::string task_label = label ? label(e.task) : std::string();
      name += ": " + (task_label.empty() ? "task " + std::to_string(e.task)
                                         : task_label);
    }
    os << ",{\"name\":\"" << json_escape(name) << "\",\"pid\":" << kPid
       << ",\"tid\":" << e.ring << ",\"ts\":" << sane(e.t0) * 1e6;
    if (e.has_end()) {
      os << ",\"ph\":\"X\",\"dur\":" << sane(e.t1 - e.t0) * 1e6;
    } else {
      // No end timestamp: either a point event or an attempt cut short by
      // the crash being dumped — render it as an instant, not a zero-width
      // sliver that viewers hide.
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":{\"seq\":" << e.seq << ",\"task\":" << e.task
       << ",\"device\":" << e.device << ",\"attempt\":" << e.aux
       << ",\"value\":" << e.value;
    if (e.value2 != 0.0) os << ",\"value2\":" << e.value2;
    os << "}}";
  }
  os << "]";
  return os.str();
}

std::string to_ascii_gantt(const EngineStats& stats, int width) {
  std::ostringstream os;
  const double makespan = stats.makespan_seconds;
  if (makespan <= 0.0 || stats.devices.empty()) {
    return "(empty trace)\n";
  }
  width = std::max(10, width);
  const double per_cell = makespan / width;

  for (std::size_t d = 0; d < stats.devices.size(); ++d) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const auto& t : stats.trace) {
      if (static_cast<std::size_t>(t.device) != d) continue;
      int begin = static_cast<int>(t.start_vtime / per_cell);
      int end = static_cast<int>(t.finish_vtime / per_cell);
      begin = std::clamp(begin, 0, width - 1);
      end = std::clamp(end, begin + 1, width);
      // Tasks paint '#'; the transfer fraction at the front paints '-'.
      const double span = t.finish_vtime - t.start_vtime;
      const int transfer_cells =
          span > 0.0 ? static_cast<int>((t.transfer_seconds / span) * (end - begin))
                     : 0;
      for (int cell = begin; cell < end; ++cell) {
        row[static_cast<std::size_t>(cell)] =
            cell - begin < transfer_cells ? '-' : '#';
      }
    }
    char label[40];
    std::snprintf(label, sizeof label, "%-14.14s|", stats.devices[d].name.c_str());
    os << label << row << "|\n";
  }
  char footer[96];
  std::snprintf(footer, sizeof footer,
                "%-14s 0%*s%.3fs   ('#' compute, '-' transfer)\n", "", width - 7,
                "", makespan);
  os << footer;
  return os.str();
}

void publish_metrics(const EngineStats& stats) {
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"starvm.tasks_submitted", stats.tasks_submitted},
      {"starvm.tasks_completed", stats.tasks_completed},
      {"starvm.transfers", stats.transfers},
      {"starvm.evictions", stats.evictions},
      {"starvm.task_failures", stats.task_failures},
      {"starvm.task_timeouts", stats.timeouts},
      {"starvm.task_retries", stats.retries},
      {"starvm.device_blacklists", stats.devices_blacklisted},
  };
  for (const auto& [name, value] : totals) obs::counter(name).inc(value);
  // Every attempt begins with a decision and ends completed or failed.
  obs::counter("starvm.decisions." + std::string(to_string(stats.scheduler)))
      .inc(stats.tasks_completed + stats.task_failures);
  obs::Histogram& exec_us = obs::histogram("starvm.task_exec_us");
  for (const TaskTrace& t : stats.trace) {
    exec_us.record(t.exec_seconds > 0.0 ? static_cast<std::uint64_t>(t.exec_seconds * 1e6)
                                        : 0);
  }
}

}  // namespace starvm
