#include "pdl/validate.hpp"

#include <algorithm>
#include <functional>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdl {

namespace {

struct Checker {
  const Platform& platform;
  Diagnostics& diags;
  // Views of the ids seen so far, in hash-set nodes carved from one pool:
  // no heap allocation per id.
  std::pmr::monotonic_buffer_resource pool;
  std::pmr::unordered_set<std::string_view> pu_ids{&pool};
  std::pmr::unordered_set<std::string_view> mr_ids{&pool};

  void report(Severity severity, const char* rule, std::string message,
              SourceLoc loc, std::string where) {
    add_finding(diags, severity, rule, std::move(message), std::move(loc),
                std::move(where));
  }

  /// A descriptor's location falls back to its owner's when the property
  /// itself was built in memory.
  static SourceLoc prop_loc(const Property& p, const SourceLoc& owner) {
    return p.loc.valid() ? p.loc : owner;
  }

  /// `where` returns the finding's locator; it is called only when a
  /// finding is reported, so a clean descriptor builds no string.
  template <typename Where>
  void check_descriptor(const Descriptor& d, const SourceLoc& loc, const Where& where) {
    const auto& props = d.properties();
    for (auto p = props.begin(); p != props.end(); ++p) {
      if (p->name.empty()) {
        report(Severity::kWarning, "V11", "property with empty name",
               prop_loc(*p, loc), where());
        continue;
      }
      // Descriptors hold a handful of properties: a scan of the earlier
      // ones is cheaper than a set of names.
      const auto same_name = [&](const Property& q) { return q.name == p->name; };
      if (std::any_of(props.begin(), p, same_name)) {
        report(Severity::kWarning, "V11", "duplicate property '" + p->name + "'",
               prop_loc(*p, loc), where());
      }
      if (p->fixed && p->value.empty()) {
        report(Severity::kWarning, "V12",
               "fixed property '" + p->name + "' has no value", prop_loc(*p, loc),
               where());
      }
    }
  }

  void check_pu(const ProcessingUnit& pu) {
    const auto where = [&pu] { return pu.path(); };
    const SourceLoc& loc = pu.loc();

    // V6: unique ids.
    if (!pu.id().empty() && !pu_ids.insert(pu.id()).second) {
      report(Severity::kError, "V6", "duplicate PU id '" + pu.id() + "'", loc, where());
    }
    if (pu.id().empty()) {
      report(Severity::kError, "V6", "PU without id", loc, where());
    }

    // V7: quantity.
    if (pu.quantity() < 1) {
      report(Severity::kError, "V7", "PU quantity must be >= 1", loc, where());
    }

    // V2/V3/V5: position rules per kind.
    const bool top_level = pu.parent() == nullptr;
    switch (pu.kind()) {
      case PuKind::kMaster:
        if (!top_level) {
          report(Severity::kError, "V2", "Master '" + pu.id() + "' below the top level",
                 loc, where());
        }
        break;
      case PuKind::kWorker:
        if (top_level) {
          report(Severity::kError, "V4",
                 "Worker '" + pu.id() + "' is uncontrolled at top level", loc, where());
        }
        if (!pu.is_leaf()) {
          report(Severity::kError, "V3", "Worker '" + pu.id() + "' controls other PUs",
                 loc, where());
        }
        break;
      case PuKind::kHybrid:
        if (top_level) {
          report(Severity::kError, "V5",
                 "Hybrid '" + pu.id() + "' is uncontrolled at top level", loc, where());
        }
        if (pu.is_leaf()) {
          report(Severity::kWarning, "V5",
                 "Hybrid '" + pu.id() + "' controls nothing; use Worker instead", loc,
                 where());
        }
        break;
    }

    check_descriptor(pu.descriptor(), loc, where);

    // V10: memory region id uniqueness.
    for (const auto& mr : pu.memory_regions()) {
      const SourceLoc mr_loc = mr.loc.valid() ? mr.loc : loc;
      if (!mr.id.empty() && !mr_ids.insert(mr.id).second) {
        report(Severity::kWarning, "V10", "duplicate MemoryRegion id '" + mr.id + "'",
               mr_loc, where());
      }
      check_descriptor(mr.descriptor, mr_loc,
                       [&] { return pu.path() + "/MR:" + mr.id; });
    }

    for (const auto& child : pu.children()) {
      check_pu(*child);
    }
  }

  /// Interconnects are checked after the id set is complete (V8/V9).
  void check_interconnects(const ProcessingUnit& pu) {
    for (const auto& ic : pu.interconnects()) {
      const SourceLoc ic_loc = ic.loc.valid() ? ic.loc : pu.loc();
      for (const std::string* endpoint : {&ic.from, &ic.to}) {
        if (endpoint->empty() || pu_ids.count(*endpoint) == 0) {
          report(Severity::kError, "V8",
                 "interconnect endpoint '" + *endpoint + "' is not a known PU id",
                 ic_loc, pu.path());
        }
      }
      // V9: the declaring PU should be involved, directly or via a descendant.
      const auto in_scope = [&](const std::string& id) {
        std::function<bool(const ProcessingUnit&)> walk =
            [&](const ProcessingUnit& node) {
              if (node.id() == id) return true;
              for (const auto& c : node.children()) {
                if (walk(*c)) return true;
              }
              return false;
            };
        return walk(pu);
      };
      if (!ic.from.empty() && !ic.to.empty() && !in_scope(ic.from) && !in_scope(ic.to)) {
        report(Severity::kWarning, "V9",
               "interconnect " + ic.from + "->" + ic.to +
                   " does not involve the declaring PU's scope",
               ic_loc, pu.path());
      }
      check_descriptor(ic.descriptor, ic_loc,
                       [&] { return pu.path() + "/IC:" + ic.from + "->" + ic.to; });
    }
    for (const auto& child : pu.children()) {
      check_interconnects(*child);
    }
  }
};

}  // namespace

bool validate(const Platform& platform, Diagnostics& diags) {
  obs::Span span("pdl.validate", platform.name());
  static obs::Counter& validations = obs::counter("pdl.validations");
  static obs::Counter& diag_errors = obs::counter("pdl.diags_error");
  static obs::Counter& diag_warnings = obs::counter("pdl.diags_warning");
  const std::size_t errors_before = count_severity(diags, Severity::kError);
  const std::size_t warnings_before = count_severity(diags, Severity::kWarning);
  Checker checker{platform, diags};

  // V1.
  if (platform.masters().empty()) {
    add_finding(diags, Severity::kError, "V1",
                "platform has no Master processing unit",
                SourceLoc{platform.source_name(), 1, 1});
  }
  for (const auto& master : platform.masters()) {
    checker.check_pu(*master);
  }
  for (const auto& master : platform.masters()) {
    checker.check_interconnects(*master);
  }
  validations.inc();
  diag_errors.inc(count_severity(diags, Severity::kError) - errors_before);
  diag_warnings.inc(count_severity(diags, Severity::kWarning) - warnings_before);
  return count_severity(diags, Severity::kError) == errors_before;
}

bool is_valid(const Platform& platform) {
  Diagnostics diags;
  return validate(platform, diags);
}

}  // namespace pdl
