#include "starvm/perf_store.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace starvm::perf_store {

namespace {

constexpr char kHeaderPrefix[] = "# starvm perf-store v";

/// %.17g round-trips every double exactly, which keeps save() output
/// byte-stable across runs.
std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// A class key: 1 to 16 hex digits, nothing else.
bool parse_key(const std::string& hex, std::uint64_t& key) {
  if (hex.empty() || hex.size() > 16) return false;
  char* end = nullptr;
  key = std::strtoull(hex.c_str(), &end, 16);
  return *end == '\0' && std::isxdigit(static_cast<unsigned char>(hex[0]));
}

}  // namespace

LoadResult load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path);
  if (!in) {
    result.status = LoadStatus::kMissing;
    result.detail = "no store at '" + path + "'";
    return result;
  }
  std::string line;
  if (!std::getline(in, line) || line.rfind(kHeaderPrefix, 0) != 0) {
    result.status = LoadStatus::kCorrupt;
    result.detail = "not a perf store (bad header)";
    return result;
  }
  if (line != std::string(kHeaderPrefix) + std::to_string(kFormatVersion)) {
    result.status = LoadStatus::kBadVersion;
    result.detail = "unsupported store version ('" + line + "')";
    return result;
  }
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    std::string key;
    Entry entry;
    fields >> kind;
    if (kind != "rate") {
      result.status = LoadStatus::kCorrupt;
      result.detail = "unknown record '" + kind + "'";
      return result;
    }
    if (!(fields >> entry.codelet >> key >> entry.ema_seconds >> entry.count >>
          entry.ema_gflops) ||
        !parse_key(key, entry.class_key) || entry.count == 0 ||
        !(entry.ema_seconds > 0.0)) {
      result.status = LoadStatus::kCorrupt;
      result.detail = "malformed rate line '" + line + "'";
      return result;
    }
    result.store.entries.push_back(std::move(entry));
  }
  result.status = LoadStatus::kLoaded;
  result.detail.clear();
  return result;
}

std::string render_text(const Store& store) {
  std::string text = std::string(kHeaderPrefix) +
                     std::to_string(kFormatVersion) + "\n";
  std::vector<const Entry*> ordered;
  ordered.reserve(store.entries.size());
  for (const Entry& entry : store.entries) ordered.push_back(&entry);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->codelet != b->codelet) return a->codelet < b->codelet;
                     return a->class_key < b->class_key;
                   });
  for (const Entry* entry : ordered) {
    char key[32];
    std::snprintf(key, sizeof(key), " %016llx ",
                  static_cast<unsigned long long>(entry->class_key));
    text += "rate ";
    text += entry->codelet;
    text += key;
    text += fmt_double(entry->ema_seconds);
    text += ' ';
    text += std::to_string(entry->count);
    text += ' ';
    text += fmt_double(entry->ema_gflops);
    text += '\n';
  }
  return text;
}

bool save(const Store& store, const std::string& path) {
  // tmp + rename: a concurrent load() must never see a torn store.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << render_text(store);
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::size_t applicable(Store& store, const std::vector<DeviceSpec>& devices) {
  const std::vector<std::uint64_t> keys = device_classes(devices).keys;
  const auto foreign = std::stable_partition(
      store.entries.begin(), store.entries.end(), [&](const Entry& entry) {
        return std::find(keys.begin(), keys.end(), entry.class_key) != keys.end();
      });
  return static_cast<std::size_t>(foreign - store.entries.begin());
}

std::size_t preload(const Store& store, PerfModel& model) {
  return static_cast<std::size_t>(
      std::count_if(store.entries.begin(), store.entries.end(),
                    [&](const Entry& entry) { return model.preload(entry); }));
}

std::string env_store_path() {
  const char* env = std::getenv("PDL_PERF_STORE");
  if (env == nullptr || env[0] == '\0' ||
      (env[0] == '0' && env[1] == '\0')) {
    return "";
  }
  return env;
}

}  // namespace starvm::perf_store
