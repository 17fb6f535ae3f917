#include "util/string_util.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pdl::util {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() && is_space(s[begin])) ++begin;
  std::size_t end = s.size();
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_trimmed(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (const auto& field : split(s, sep)) {
    auto t = trim(field);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

// ASCII only, whatever the process locale: std::tolower follows it, and in
// a Turkish locale 'I' does not fold to 'i', so "RISCV" would not equal
// "riscv".
char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

char ascii_upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_upper);
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) {
      return false;
    }
  }
  return true;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // Only plain decimal/scientific notation: strtod also accepts "inf",
  // "nan" and hex floats ("0x1p3"), none of which are valid PDL property
  // values — a non-finite parse would poison every model downstream.
  bool any_digit = false;
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      any_digit = true;
    } else if (c != '.' && c != '+' && c != '-' && c != 'e' && c != 'E') {
      return std::nullopt;
    }
  }
  if (!any_digit) return std::nullopt;
  // std::from_chars<double> is available in gcc 12 but be conservative with
  // locale-free strtod on a NUL-terminated copy.
  std::string copy(s);
  char* endp = nullptr;
  errno = 0;
  double value = std::strtod(copy.c_str(), &endp);
  if (endp != copy.c_str() + copy.size()) return std::nullopt;
  // Overflow ("1e999") returns HUGE_VAL with ERANGE: reject rather than
  // silently hand back infinity. Underflow-to-zero is accepted.
  if (errno == ERANGE && !std::isfinite(value)) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

std::string replace_all(std::string s, std::string_view from, std::string_view to) {
  if (from.empty()) return s;
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

std::string location_string(std::string_view file, int line, int column) {
  std::ostringstream os;
  if (!file.empty()) os << file << ":";
  os << line << ":" << column;
  return os.str();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return static_cast<bool>(out);
}

}  // namespace pdl::util
