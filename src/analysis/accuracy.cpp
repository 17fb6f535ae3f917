#include "analysis/accuracy.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"

namespace analysis {

namespace {

// A703 gates: a chain only counts as a blow-up when it is long enough that
// no single kernel dominates it — short pipelines and one heavy GEMM
// surrounded by cheap steps stay clean.
constexpr int kChainMinSteps = 4;
constexpr double kChainBlowupFactor = 8.0;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

struct Emit {
  const AnalysisOptions& options;
  pdl::Diagnostics& diags;

  void operator()(const char* rule, std::string message, pdl::SourceLoc loc,
                  std::string where) const {
    if (!rule_enabled(options, rule)) return;
    pdl::Severity severity = pdl::Severity::kWarning;
    if (const RuleInfo* info = find_rule(rule)) {
      severity = info->default_severity;
    }
    severity = effective_severity(options, rule, severity);
    pdl::add_finding(diags, severity, rule, std::move(message), std::move(loc),
                     std::move(where));
  }
};

/// Why a propagated bound is not a number: a declared range is missing
/// somewhere upstream (A704), or an unmodeled task touched the value
/// (A702). kNoModel dominates — it is the stronger statement.
enum class Why { kKnown, kMissingRange, kNoModel };

Why worse(Why a, Why b) { return a > b ? a : b; }

/// Per-buffer dataflow facts, updated in submission order.
struct BufferState {
  double magnitude = 0.0;  ///< bound on the max |value| the buffer holds
  Why magnitude_why = Why::kKnown;
  double error = 0.0;  ///< worst-case absolute error of the contents
  Why error_why = Why::kKnown;
  /// First unmodeled task that poisoned this value (error_why == kNoModel);
  /// the A702 finding points at it.
  int no_model_task = -1;

  // A703 bookkeeping: the heaviest RAW chain of rounding steps whose error
  // terms make up this buffer's bound.
  std::vector<int> chain;
  double chain_sum = 0.0;
  double chain_max = 0.0;
};

}  // namespace

double accuracy_epsilon_floor(const pdl::Platform& platform) {
  double floor = 0.0;
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    const pdl::Property* prop = pdl::resolve_property(*pu, pdl::props::kAccuracy);
    if (prop == nullptr) continue;
    const auto value = prop->as_double();
    if (value && *value > 0.0) floor = std::max(floor, *value);
  }
  return floor;
}

void analyze_accuracy(const starvm::TaskGraph& graph,
                      const AnalysisOptions& options, pdl::Diagnostics& diags,
                      double epsilon_floor) {
  const Emit emit{options, diags};
  const auto& buffers = graph.buffers();
  const auto& tasks = graph.tasks();

  std::vector<BufferState> state(buffers.size());
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    if (buffers[b].has_range) {
      state[b].magnitude = buffers[b].range;
    } else {
      state[b].magnitude_why = Why::kMissingRange;
    }
  }

  // Submission order is a topological order of the RAW edges the engine
  // would infer (readers always follow the writer they depend on), so one
  // forward sweep reaches the fixpoint.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const starvm::GraphTask& task = tasks[t];
    starvm::ErrorModel model = task.error_model;
    if (model.kind == starvm::ErrorModel::Kind::kRounding) {
      model.epsilon = std::max(model.epsilon, epsilon_floor);
    }
    const double depth =
        task.depth > 0.0 ? task.depth : (model.depth > 0.0 ? model.depth : 1.0);

    std::vector<int> pure_reads;
    for (const starvm::GraphAccess& a : task.accesses) {
      if (a.mode == starvm::Access::kRead) pure_reads.push_back(a.buffer);
    }

    // Magnitude product over the pure-read inputs (1 for generator tasks).
    double product = 1.0;
    Why product_why = Why::kKnown;
    int product_no_model = -1;
    for (const int r : pure_reads) {
      product *= state[static_cast<std::size_t>(r)].magnitude;
      const Why why = state[static_cast<std::size_t>(r)].magnitude_why;
      product_why = worse(product_why, why);
      if (why == Why::kNoModel && product_no_model < 0) {
        product_no_model = state[static_cast<std::size_t>(r)].no_model_task;
      }
    }

    // Amplified input error: d * sum_i (E_i * prod_{j!=i} R_j). An input
    // with a zero known error contributes nothing even when the sibling
    // magnitudes are unknown, so exact pipelines over clean inputs stay
    // exactly zero.
    double input_error = 0.0;
    Why input_why = Why::kKnown;
    int input_no_model = -1;
    const BufferState* heaviest_chain = nullptr;
    for (std::size_t i = 0; i < pure_reads.size(); ++i) {
      const BufferState& in = state[static_cast<std::size_t>(pure_reads[i])];
      if (in.error_why == Why::kKnown && in.error == 0.0) continue;
      double amplified = in.error * depth;
      Why why = in.error_why;
      int no_model = in.no_model_task;
      for (std::size_t j = 0; j < pure_reads.size(); ++j) {
        if (j == i) continue;
        const BufferState& other = state[static_cast<std::size_t>(pure_reads[j])];
        amplified *= other.magnitude;
        why = worse(why, other.magnitude_why);
        if (other.magnitude_why == Why::kNoModel && no_model < 0) {
          no_model = other.no_model_task;
        }
      }
      input_error += amplified;
      input_why = worse(input_why, why);
      if (why == Why::kNoModel && input_no_model < 0) input_no_model = no_model;
      if (in.error_why == Why::kKnown &&
          (heaviest_chain == nullptr || in.chain_sum > heaviest_chain->chain_sum)) {
        heaviest_chain = &in;
      }
    }

    // The task's own rounding contribution at this depth and magnitude.
    double own_term = 0.0;
    Why own_why = Why::kKnown;
    if (model.kind == starvm::ErrorModel::Kind::kRounding) {
      own_term = model.term(depth, product);
      own_why = product_why;
    }

    for (const starvm::GraphAccess& a : task.accesses) {
      if (a.mode == starvm::Access::kRead) continue;
      const auto b = static_cast<std::size_t>(a.buffer);
      BufferState& out = state[b];

      if (!model.specified()) {
        // No claim to propagate: the written value is unbounded. A702
        // points at the first such task once the poison reaches a
        // tolerance-carrying buffer (possibly transitively).
        out.error_why = Why::kNoModel;
        out.magnitude_why = Why::kNoModel;
        if (out.no_model_task < 0) out.no_model_task = static_cast<int>(t);
        out.chain.clear();
        out.chain_sum = 0.0;
        out.chain_max = 0.0;
        continue;
      }

      // own_why already carries the product's unknownness for rounding
      // models; exact models add no rounding error, so an unknown magnitude
      // must not poison their (zero) error contribution.
      const double contribution = input_error + own_term;
      const Why contribution_why = worse(input_why, own_why);
      int contribution_no_model = input_no_model >= 0 ? input_no_model
                                                      : product_no_model;
      const double magnitude_growth = depth * product;

      if (a.mode == starvm::Access::kWrite) {
        out.error = contribution;
        out.error_why = contribution_why;
        out.no_model_task = contribution_no_model;
        out.magnitude = magnitude_growth;
        out.magnitude_why = product_why;
        out.chain.clear();
        out.chain_sum = 0.0;
        out.chain_max = 0.0;
        if (heaviest_chain != nullptr) {
          out.chain = heaviest_chain->chain;
          out.chain_sum = heaviest_chain->chain_sum;
          out.chain_max = heaviest_chain->chain_max;
        }
      } else {  // kReadWrite accumulates into the previous contents
        out.error += contribution;
        out.error_why = worse(out.error_why, contribution_why);
        if (out.no_model_task < 0) out.no_model_task = contribution_no_model;
        out.magnitude += magnitude_growth;
        out.magnitude_why = worse(out.magnitude_why, product_why);
        if (heaviest_chain != nullptr &&
            heaviest_chain->chain_sum > out.chain_sum) {
          out.chain = heaviest_chain->chain;
          out.chain_sum = heaviest_chain->chain_sum;
          out.chain_max = heaviest_chain->chain_max;
        }
      }

      if (out.error_why == Why::kKnown && own_term > 0.0) {
        out.chain.push_back(static_cast<int>(t));
        out.chain_sum += own_term;
        out.chain_max = std::max(out.chain_max, own_term);
      } else if (out.error_why != Why::kKnown) {
        out.chain.clear();
      }
    }
  }

  // A701 / A702 / A704: judge every tolerance-carrying buffer's final bound.
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const starvm::GraphBuffer& buffer = buffers[b];
    if (!buffer.has_tolerance) continue;
    const BufferState& final_state = state[b];
    switch (final_state.error_why) {
      case Why::kKnown:
        if (final_state.error > buffer.tolerance) {
          emit(kToleranceExceeded,
               "worst-case absolute error bound " + num(final_state.error) +
                   " of buffer '" + buffer.name +
                   "' exceeds its declared tolerance " + num(buffer.tolerance),
               buffer.tolerance_loc, buffer.name);
        }
        break;
      case Why::kMissingRange:
        emit(kVacuousTolerance,
             "buffer '" + buffer.name +
                 "' declares tolerance " + num(buffer.tolerance) +
                 " but no `range` reaches it, so its propagated error bound "
                 "is vacuous (declare ranges on the input buffers)",
             buffer.tolerance_loc, buffer.name);
        break;
      case Why::kNoModel: {
        const int t = final_state.no_model_task;
        const bool valid = t >= 0 && t < static_cast<int>(tasks.size());
        const std::string task_name =
            valid ? tasks[static_cast<std::size_t>(t)].name : "<unknown>";
        emit(kUnmodeledWrite,
             "task '" + task_name +
                 "' has no declared error model but its output reaches "
                 "tolerance-carrying buffer '" +
                 buffer.name + "' — the bound cannot be established",
             valid ? tasks[static_cast<std::size_t>(t)].loc : pdl::SourceLoc{},
             task_name);
        break;
      }
    }
  }

  // A703: accumulation blow-up. Collect each buffer's final chain, drop
  // chains that are a prefix of a longer candidate (the long chain is the
  // finding; its prefixes are the same story truncated), and report the
  // survivors with the chain as the logical location.
  struct Candidate {
    std::size_t buffer;
    const BufferState* st;
  };
  std::vector<Candidate> candidates;
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const BufferState& st = state[b];
    if (st.error_why != Why::kKnown) continue;
    if (static_cast<int>(st.chain.size()) < kChainMinSteps) continue;
    if (!(st.chain_max > 0.0)) continue;
    if (!(st.chain_sum > kChainBlowupFactor * st.chain_max)) continue;
    candidates.push_back({b, &st});
  }
  std::set<std::vector<int>> reported;
  for (const Candidate& c : candidates) {
    const std::vector<int>& chain = c.st->chain;
    bool is_prefix = false;
    for (const Candidate& other : candidates) {
      const std::vector<int>& longer = other.st->chain;
      if (longer.size() <= chain.size()) continue;
      if (std::equal(chain.begin(), chain.end(), longer.begin())) {
        is_prefix = true;
        break;
      }
    }
    if (is_prefix || !reported.insert(chain).second) continue;
    std::string path;
    for (const int t : chain) {
      if (!path.empty()) path += "->";
      path += tasks[static_cast<std::size_t>(t)].name;
    }
    const int last = chain.back();
    emit(kAccumulationBlowup,
         "RAW chain of " + std::to_string(chain.size()) +
             " rounding steps accumulates an error bound of " +
             num(c.st->chain_sum) + " on buffer '" + buffers[c.buffer].name +
             "', " + num(c.st->chain_sum / c.st->chain_max) +
             "x its largest single step (" + num(c.st->chain_max) + ")",
         tasks[static_cast<std::size_t>(last)].loc, path);
  }
}

}  // namespace analysis
