#include "pdl/pattern.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "pdl/query.hpp"
#include "util/string_util.hpp"

namespace pdl {

namespace {

// --- Compact-syntax parser ----------------------------------------------------

class PatternParser {
 public:
  explicit PatternParser(std::string_view text) : text_(text) {}

  util::Result<Platform> run() {
    skip_ws();
    auto pu = parse_pu();
    if (!pu) return error_;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after pattern");
    }
    if (pu.value()->kind() != PuKind::kMaster) {
      return fail("pattern root must be a Master ('M')");
    }
    Platform platform;
    platform.add_master(std::move(pu).value());
    return platform;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void advance() { ++pos_; }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  util::Error fail(std::string message) {
    if (error_.message.empty()) {
      error_ = util::Error{std::move(message), "pattern offset " + std::to_string(pos_)};
    }
    return error_;
  }

  util::Result<std::unique_ptr<ProcessingUnit>> parse_pu() {
    skip_ws();
    PuKind kind;
    switch (peek()) {
      case 'M': kind = PuKind::kMaster; break;
      case 'H': kind = PuKind::kHybrid; break;
      case 'W': kind = PuKind::kWorker; break;
      default: return fail("expected PU kind letter M, H or W");
    }
    advance();
    // Pattern PUs get synthesized ids; matching never uses them.
    auto pu = std::make_unique<ProcessingUnit>(kind, "p" + std::to_string(next_id_++));

    skip_ws();
    if (peek() == '(') {
      advance();
      while (true) {
        skip_ws();
        std::string key;
        while (peek() != '\0' && peek() != '=' && peek() != ',' && peek() != ')') {
          key += peek();
          advance();
        }
        key = std::string(util::trim(key));
        if (key.empty()) return fail("empty property name in pattern");
        std::string value;
        bool fixed = false;
        if (peek() == '=') {
          advance();
          while (peek() != '\0' && peek() != ',' && peek() != ')') {
            value += peek();
            advance();
          }
          value = std::string(util::trim(value));
          fixed = true;
        }
        Property prop;
        prop.name = key;
        prop.value = value;
        prop.fixed = fixed;  // bare "NAME" (no '=') is an existence constraint
        pu->descriptor().add(std::move(prop));
        if (peek() == ',') {
          advance();
          continue;
        }
        if (peek() == ')') {
          advance();
          break;
        }
        return fail("expected ',' or ')' in property list");
      }
    }

    skip_ws();
    if (peek() == 'x') {
      advance();
      std::string digits;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        digits += peek();
        advance();
      }
      auto q = util::parse_int(digits);
      if (!q || *q < 1 || *q > std::numeric_limits<int>::max()) {
        return fail("expected positive integer after 'x'");
      }
      pu->set_quantity(static_cast<int>(*q));
    }

    skip_ws();
    if (peek() == '[') {
      advance();
      while (true) {
        auto child = parse_pu();
        if (!child) return error_;
        pu->add_child(std::move(child).value());
        skip_ws();
        if (peek() == ',') {
          advance();
          continue;
        }
        if (peek() == ']') {
          advance();
          break;
        }
        return fail("expected ',' or ']' in child list");
      }
    }
    return pu;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int next_id_ = 0;
  util::Error error_;
};

// --- Matching -------------------------------------------------------------------

/// Check the pattern PU's property constraints against a concrete PU.
/// `reason` may be null: a mismatch is formatted only for a caller that
/// reads it.
bool properties_satisfied(const ProcessingUnit& pattern, const ProcessingUnit& concrete,
                          std::string* reason) {
  for (const auto& p : pattern.descriptor().properties()) {
    const Property* c = resolve_property(concrete, p.name);
    if (c == nullptr) {
      if (reason != nullptr) {
        *reason = "concrete PU '" + concrete.id() + "' lacks property '" + p.name + "'";
      }
      return false;
    }
    if (p.fixed && !util::iequals(c->value, p.value)) {
      if (reason != nullptr) {
        *reason = "property '" + p.name + "' is '" + c->value + "', pattern requires '" +
                  p.value + "' on PU '" + concrete.id() + "'";
      }
      return false;
    }
  }
  return true;
}

bool match_pu(const ProcessingUnit& pattern, const ProcessingUnit& concrete,
              std::vector<MatchBinding>& bindings, std::string* reason);

/// Satisfy each pattern child against disjoint concrete children.
///
/// Greedy with quantity accumulation: for a pattern child requiring
/// quantity q, scan unused concrete children; each one that matches
/// structurally contributes its quantity. Greedy assignment is sound here
/// because pattern children with identical constraints are interchangeable
/// and more-specific pattern children are processed in declaration order —
/// the documented contract is "declare more-specific children first".
/// A rejected child's reason is never reported, so child attempts format
/// none.
bool match_children(const ProcessingUnit& pattern, const ProcessingUnit& concrete,
                    std::vector<MatchBinding>& bindings, std::string* reason) {
  std::vector<bool> used(concrete.children().size(), false);
  for (const auto& pchild : pattern.children()) {
    int satisfied = 0;
    const int required = pchild->quantity();
    for (std::size_t i = 0; i < concrete.children().size() && satisfied < required; ++i) {
      if (used[i]) continue;
      const ProcessingUnit& cchild = *concrete.children()[i];
      std::vector<MatchBinding> sub_bindings;
      if (match_pu(*pchild, cchild, sub_bindings, nullptr)) {
        used[i] = true;
        satisfied += cchild.quantity();
        bindings.insert(bindings.end(), sub_bindings.begin(), sub_bindings.end());
      }
    }
    if (satisfied < required) {
      if (reason != nullptr) {
        *reason = "pattern requires " + std::to_string(required) + " x " +
                  std::string(to_string(pchild->kind())) + " under '" + concrete.id() +
                  "', only " + std::to_string(satisfied) + " available";
      }
      return false;
    }
  }
  return true;
}

bool match_pu(const ProcessingUnit& pattern, const ProcessingUnit& concrete,
              std::vector<MatchBinding>& bindings, std::string* reason) {
  if (pattern.kind() != concrete.kind()) {
    if (reason != nullptr) {
      *reason = "kind mismatch: pattern " + std::string(to_string(pattern.kind())) +
                " vs concrete " + std::string(to_string(concrete.kind())) + " ('" +
                concrete.id() + "')";
    }
    return false;
  }
  if (!properties_satisfied(pattern, concrete, reason)) return false;
  if (!match_children(pattern, concrete, bindings, reason)) return false;
  bindings.push_back(MatchBinding{&pattern, &concrete});
  return true;
}

}  // namespace

util::Result<Platform> parse_pattern(std::string_view text) {
  return PatternParser(text).run();
}

namespace {

void render_pu(std::ostringstream& os, const ProcessingUnit& pu) {
  switch (pu.kind()) {
    case PuKind::kMaster: os << 'M'; break;
    case PuKind::kHybrid: os << 'H'; break;
    case PuKind::kWorker: os << 'W'; break;
  }
  if (!pu.descriptor().empty()) {
    os << '(';
    bool first = true;
    for (const auto& p : pu.descriptor().properties()) {
      if (!first) os << ',';
      first = false;
      os << p.name;
      if (p.fixed) os << '=' << p.value;
    }
    os << ')';
  }
  if (pu.quantity() != 1) os << 'x' << pu.quantity();
  if (!pu.children().empty()) {
    os << '[';
    bool first = true;
    for (const auto& child : pu.children()) {
      if (!first) os << ',';
      first = false;
      render_pu(os, *child);
    }
    os << ']';
  }
}

}  // namespace

std::string pattern_to_string(const ProcessingUnit& pu) {
  std::ostringstream os;
  render_pu(os, pu);
  return os.str();
}

std::string pattern_to_string(const Platform& pattern) {
  std::ostringstream os;
  bool first = true;
  for (const auto& master : pattern.masters()) {
    if (!first) os << ';';
    first = false;
    render_pu(os, *master);
  }
  return os.str();
}

bool pu_satisfies(const ProcessingUnit& pattern_pu, const ProcessingUnit& concrete) {
  if (pattern_pu.kind() != concrete.kind()) return false;
  return properties_satisfied(pattern_pu, concrete, nullptr);
}

MatchResult match(const ProcessingUnit& pattern, const ProcessingUnit& concrete) {
  MatchResult result;
  result.matched = match_pu(pattern, concrete, result.bindings, &result.reason);
  if (!result.matched) result.bindings.clear();
  return result;
}

MatchResult match(const Platform& pattern, const Platform& concrete) {
  MatchResult result;
  std::vector<bool> used(concrete.masters().size(), false);
  for (const auto& pmaster : pattern.masters()) {
    bool satisfied = false;
    std::string last_reason = "no concrete master available";
    for (std::size_t i = 0; i < concrete.masters().size(); ++i) {
      if (used[i]) continue;
      std::vector<MatchBinding> bindings;
      std::string reason;
      if (match_pu(*pmaster, *concrete.masters()[i], bindings, &reason)) {
        used[i] = true;
        satisfied = true;
        result.bindings.insert(result.bindings.end(), bindings.begin(), bindings.end());
        break;
      }
      last_reason = reason;
    }
    if (!satisfied) {
      result.matched = false;
      result.bindings.clear();
      result.reason = last_reason;
      return result;
    }
  }
  result.matched = true;
  return result;
}

MatchResult match(std::string_view compact_pattern, const Platform& concrete) {
  auto pattern = parse_pattern(compact_pattern);
  if (!pattern) {
    MatchResult result;
    result.matched = false;
    result.reason = "pattern syntax error: " + pattern.error().str();
    return result;
  }
  return match(pattern.value(), concrete);
}

}  // namespace pdl
