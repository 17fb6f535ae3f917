// Environment-variable opt-in for observability.
//
//   PDL_TRACE=<path>    enable the tracer; write a Chrome trace to <path>
//   PDL_TRACE=1         enable the tracer without an output file (the
//                       program decides where the trace goes)
//   PDL_METRICS=<path>  write a metrics snapshot to <path> at exit
//   PDL_METRICS_PROM=<path>
//                       write a Prometheus text-format snapshot to <path>
//                       at exit, via tmp+rename so a scraper never reads a
//                       torn file
//
// Tools call init_from_env() at startup; benches, tests and examples can
// do the same to opt in without flag plumbing. Programs that produce a
// richer artifact themselves (e.g. cascabelc's merged trace) write their
// file first and the atexit fallback skips paths already written.
#pragma once

#include <string>

namespace obs {

/// PDL_TRACE's value when it names a file ("" when unset, "0" or "1").
std::string env_trace_path();

/// PDL_METRICS's value ("" when unset or "0").
std::string env_metrics_path();

/// PDL_METRICS_PROM's value ("" when unset or "0").
std::string env_metrics_prom_path();

/// Write the Prometheus rendering of the metrics registry to `path`
/// atomically (tmp file + rename). False on I/O error.
bool write_prometheus_file(const std::string& path);

/// Apply the environment: enable the tracer when PDL_TRACE is set (and not
/// "0"), turn metrics collection on when any of the three variables is,
/// and register an atexit hook that writes the env-named trace and
/// metrics files not explicitly written earlier. Idempotent; returns true
/// when any variable is active.
bool init_from_env();

/// Write the global metrics registry snapshot as JSON. False on I/O error.
bool write_metrics_file(const std::string& path);

/// Write arbitrary text (a rendered trace) to `path`. False on I/O error.
/// Marks `path` as written so the init_from_env() atexit hook skips it.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace obs
