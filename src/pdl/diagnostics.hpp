// Diagnostics shared by the PDL structural validator, the extension-schema
// checker, the Cascabel front-end and the cross-layer static analyzer
// (src/analysis): tools report problems with severity, a stable rule id and
// a real source location instead of aborting (PDL files and annotated
// programs are user input).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

namespace pdl {

enum class Severity { kInfo, kWarning, kError };

inline const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "?";
}

/// A position in an input document ("file:line:col", 1-based). Default
/// (line 0) means "no location known" — e.g. models built in memory.
struct SourceLoc {
  std::string file;
  int line = 0;
  int column = 0;

  bool valid() const { return line > 0; }

  /// "file:line:col" (omitting the column when unknown); "" when invalid.
  std::string str() const {
    if (!valid()) return {};
    std::string out = file.empty() ? "<input>" : file;
    out += ':';
    out += std::to_string(line);
    if (column > 0) {
      out += ':';
      out += std::to_string(column);
    }
    return out;
  }

  friend bool operator==(const SourceLoc& a, const SourceLoc& b) {
    return a.line == b.line && a.column == b.column && a.file == b.file;
  }
};

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string message;
  std::string where;  ///< PU id path or similar logical locator.
  /// Stable machine-readable rule id ("V6", "A301-dead-variant", ...).
  /// Empty for ad-hoc diagnostics (e.g. parser notes).
  std::string rule;
  /// Real source position, when the producer could thread one through.
  SourceLoc loc;

  std::string str() const {
    std::string out;
    if (loc.valid()) out += loc.str() + ": ";
    out += std::string(to_string(severity)) + ": " + message;
    if (!rule.empty()) out += " [" + rule + "]";
    if (!where.empty()) out += " [" + where + "]";
    return out;
  }
};

using Diagnostics = std::vector<Diagnostic>;

inline bool has_errors(const Diagnostics& diags) {
  for (const auto& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

inline std::size_t count_severity(const Diagnostics& diags, Severity severity) {
  std::size_t n = 0;
  for (const auto& d : diags) {
    if (d.severity == severity) ++n;
  }
  return n;
}

inline void add_error(Diagnostics& diags, std::string message, std::string where = {}) {
  diags.push_back({Severity::kError, std::move(message), std::move(where), {}, {}});
}

inline void add_warning(Diagnostics& diags, std::string message, std::string where = {}) {
  diags.push_back({Severity::kWarning, std::move(message), std::move(where), {}, {}});
}

inline void add_info(Diagnostics& diags, std::string message, std::string where = {}) {
  diags.push_back({Severity::kInfo, std::move(message), std::move(where), {}, {}});
}

/// The general form rule-based checkers use: severity + rule id + location.
inline Diagnostic& add_finding(Diagnostics& diags, Severity severity, std::string rule,
                               std::string message, SourceLoc loc = {},
                               std::string where = {}) {
  diags.push_back(
      {severity, std::move(message), std::move(where), std::move(rule), std::move(loc)});
  return diags.back();
}

/// Total order used for stable tool output: by location (file, line, col),
/// then severity (errors first), rule, message, logical locator.
inline bool diagnostic_less(const Diagnostic& a, const Diagnostic& b) {
  if (a.loc.file != b.loc.file) return a.loc.file < b.loc.file;
  if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
  if (a.loc.column != b.loc.column) return a.loc.column < b.loc.column;
  if (a.severity != b.severity) {
    return static_cast<int>(a.severity) > static_cast<int>(b.severity);
  }
  if (a.rule != b.rule) return a.rule < b.rule;
  if (a.message != b.message) return a.message < b.message;
  return a.where < b.where;
}

/// Sort and drop exact duplicates so tool output and CI golden files are
/// byte-stable across runs regardless of check order. Every CLI tool calls
/// this before printing.
inline void normalize(Diagnostics& diags) {
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return diagnostic_less(a, b);
                   });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.severity == b.severity && a.rule == b.rule &&
                                   a.message == b.message && a.where == b.where &&
                                   a.loc == b.loc;
                          }),
              diags.end());
}

}  // namespace pdl
