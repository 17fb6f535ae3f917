#include "obs/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs {

namespace {

std::mutex g_written_mutex;
std::set<std::string>& written_paths() {
  // Leaked on purpose: the atexit hook below consults this set, and a
  // function-local static would be destroyed before the hook runs when the
  // set is first touched after init_from_env() registered it.
  static std::set<std::string>* paths = new std::set<std::string>();
  return *paths;
}

bool already_written(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_written_mutex);
  return written_paths().count(path) != 0;
}

void mark_written(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_written_mutex);
  written_paths().insert(path);
}

std::string env_value(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

void flush_env_outputs() {
  const std::string trace_path = env_trace_path();
  if (!trace_path.empty() && !already_written(trace_path)) {
    write_text_file(trace_path, to_chrome_trace(Tracer::instance().snapshot()));
  }
  const std::string metrics_path = env_metrics_path();
  if (!metrics_path.empty() && !already_written(metrics_path)) {
    write_metrics_file(metrics_path);
  }
  const std::string prom_path = env_metrics_prom_path();
  if (!prom_path.empty()) write_prometheus_file(prom_path);
}

}  // namespace

std::string env_trace_path() {
  const std::string value = env_value("PDL_TRACE");
  return value == "0" || value == "1" ? "" : value;
}

std::string env_metrics_path() {
  const std::string value = env_value("PDL_METRICS");
  return value == "0" ? "" : value;
}

std::string env_metrics_prom_path() {
  const std::string value = env_value("PDL_METRICS_PROM");
  return value == "0" ? "" : value;
}

bool write_prometheus_file(const std::string& path) {
  // tmp + rename: a scraper reading mid-write must never see a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return false;
    out << render_prometheus();
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  mark_written(path);
  return true;
}

bool init_from_env() {
  const std::string trace = env_value("PDL_TRACE");
  const std::string metrics = env_metrics_path();
  const std::string prom = env_metrics_prom_path();
  const bool trace_active = !trace.empty() && trace != "0";
  if (trace_active) Tracer::instance().set_enabled(true);
  if (trace_active || !metrics.empty() || !prom.empty()) {
    set_metrics_enabled(true);
    static std::once_flag atexit_once;
    std::call_once(atexit_once, [] { std::atexit(flush_env_outputs); });
    return true;
  }
  return false;
}

bool write_metrics_file(const std::string& path) {
  return write_text_file(path, metrics_snapshot_json() + "\n");
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  if (!out) return false;
  mark_written(path);
  return true;
}

}  // namespace obs
