#include "cascabel/codegen.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <vector>

#include "pdl/serializer.hpp"
#include "util/string_util.hpp"

namespace cascabel {

namespace {

struct Edit {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;
};

const char* access_enum(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRead: return "::cascabel::AccessMode::kRead";
    case AccessMode::kWrite: return "::cascabel::AccessMode::kWrite";
    case AccessMode::kReadWrite: return "::cascabel::AccessMode::kReadWrite";
  }
  return "::cascabel::AccessMode::kRead";
}

const char* dist_enum(DistributionKind kind) {
  switch (kind) {
    case DistributionKind::kNone: return "::cascabel::DistributionKind::kNone";
    case DistributionKind::kBlock: return "::cascabel::DistributionKind::kBlock";
    case DistributionKind::kCyclic: return "::cascabel::DistributionKind::kCyclic";
    case DistributionKind::kBlockCyclic:
      return "::cascabel::DistributionKind::kBlockCyclic";
  }
  return "::cascabel::DistributionKind::kNone";
}

const char* kind_enum(starvm::DeviceKind kind) {
  return kind == starvm::DeviceKind::kAccelerator
             ? "::starvm::DeviceKind::kAccelerator"
             : "::starvm::DeviceKind::kCpu";
}

/// Comment out every line of a source span.
std::string comment_out(std::string_view text) {
  std::string out;
  for (const auto& line : pdl::util::split(text, '\n')) {
    out += "// ";
    out += line;
    out += '\n';
  }
  if (!out.empty()) out.pop_back();  // drop the extra trailing newline
  return out;
}

/// The generated replacement for one annotated call site, or nullopt when
/// the call cannot be translated (diagnostic added; original call kept).
std::optional<std::string> generate_call_block(const AnnotatedProgram& program,
                                               const CallSite& call,
                                               const CodegenOptions& options,
                                               pdl::Diagnostics& diags) {
  const auto variants = program.variants_of(call.pragma.task_interface);
  if (variants.empty()) return std::nullopt;  // already diagnosed by the front-end
  const TaskVariant& variant = *variants.front();

  const auto where = program.source_name + ":" + std::to_string(call.pragma.range.line);

  std::string out = "{ // cascabel: execute " + call.pragma.task_interface;
  if (!call.pragma.execution_group.empty()) {
    out += " on group '" + call.pragma.execution_group + "'";
  }
  out += " (generated)\n";
  out += "  ::cascabel::rt::execute(\"" + call.pragma.task_interface + "\", \"" +
         call.pragma.execution_group + "\", {\n";

  // Arguments in paramlist order (the buffer-index convention adapters use).
  for (std::size_t p = 0; p < variant.pragma.params.size(); ++p) {
    const ParamSpec& param = variant.pragma.params[p];

    // Pointer expression: positional — the call argument at the parameter's
    // position in the function signature.
    std::string pointer_expr = param.name;
    for (std::size_t i = 0; i < variant.function.param_names.size(); ++i) {
      if (variant.function.param_names[i] == param.name && i < call.args.size()) {
        pointer_expr = call.args[i];
        break;
      }
    }

    // Extents from the matching distribution entry.
    const DistributionSpec* dist = nullptr;
    for (const auto& d : call.pragma.distributions) {
      if (d.param == param.name) dist = &d;
    }
    if (dist == nullptr || dist->sizes.empty()) {
      add_warning(diags,
                  "call to '" + call.pragma.task_interface + "': parameter '" +
                      param.name +
                      "' has no distribution sizes; call left untranslated",
                  where);
      return std::nullopt;
    }
    out += "    ";
    if (dist->sizes.size() == 1) {
      out += "::cascabel::rt::arg(" + pointer_expr + ", static_cast<std::size_t>(" +
             dist->sizes[0] + "), " + access_enum(param.mode) + ", " +
             dist_enum(dist->kind) + ")";
    } else {
      out += "::cascabel::rt::arg_matrix(" + pointer_expr +
             ", static_cast<std::size_t>(" + dist->sizes[0] +
             "), static_cast<std::size_t>(" + dist->sizes[1] + "), " +
             access_enum(param.mode) + ", " + dist_enum(dist->kind) + ")";
    }
    out += p + 1 < variant.pragma.params.size() ? ",\n" : "\n";
  }
  out += "  });\n";
  if (options.sync_each_call) {
    out += "  ::cascabel::rt::wait();\n";
  }
  out += "}";
  return out;
}

/// Adapter body: call the in-file function with buffers in paramlist order
/// and block geometry for trailing scalars (see DESIGN.md conventions).
std::string generate_adapter(const TaskVariant& variant, pdl::Diagnostics& diags,
                             const std::string& where) {
  std::string out = variant.function.name + "(";
  int scalar_index = 0;
  // Count scalars to choose the geometry convention:
  //   one scalar  -> cols(0)            (square matrices / vector length)
  //   two scalars -> rows(0), cols(0)
  int scalar_count = 0;
  for (const auto& name : variant.function.param_names) {
    bool in_paramlist = false;
    for (const auto& p : variant.pragma.params) in_paramlist |= p.name == name;
    if (!in_paramlist) ++scalar_count;
  }
  for (std::size_t i = 0; i < variant.function.param_names.size(); ++i) {
    if (i != 0) out += ", ";
    const std::string& name = variant.function.param_names[i];
    int buffer_index = -1;
    for (std::size_t p = 0; p < variant.pragma.params.size(); ++p) {
      if (variant.pragma.params[p].name == name) {
        buffer_index = static_cast<int>(p);
      }
    }
    if (buffer_index >= 0) {
      out += "ctx.buffer(" + std::to_string(buffer_index) + ")";
      continue;
    }
    // Trailing scalar: block geometry of buffer 0.
    const std::string& type = i < variant.function.param_types.size()
                                  ? variant.function.param_types[i]
                                  : std::string();
    const bool want_rows = scalar_count == 2 && scalar_index == 0;
    std::string expr = want_rows ? "ctx.handle(0).rows()" : "ctx.handle(0).cols()";
    if (!type.empty() && type != "std::size_t" && type != "size_t") {
      expr = "static_cast<" + type + ">(" + expr + ")";
    }
    out += expr;
    ++scalar_index;
    if (type.find('*') != std::string::npos) {
      add_warning(diags,
                  "adapter for '" + variant.pragma.variant_name +
                      "': pointer parameter '" + name +
                      "' is not in the pragma parameterlist",
                  where);
    }
  }
  out += ");";
  return out;
}

/// The suffix of the embedded description's raw-string delimiter: the
/// first of CASCABEL_PDL, CASCABEL_PDL0, CASCABEL_PDL1, ... whose closing
/// sequence `)<delimiter>"` does not occur in `text` ("" for CASCABEL_PDL).
/// nullopt when each delimiter of at most 16 characters (the C++ limit),
/// up to CASCABEL_PDL9999, occurs.
std::optional<std::string> delimiter_suffix(std::string_view text) {
  constexpr std::string_view kClose = ")CASCABEL_PDL";
  // [0]: CASCABEL_PDL; [n + 1]: CASCABEL_PDL<n>, n < 10000.
  std::vector<bool> taken;
  for (std::size_t at = text.find(kClose); at != std::string_view::npos;
       at = text.find(kClose, at + kClose.size())) {
    // An occurrence closes the delimiter that the digits after it spell,
    // when a quote follows them and they are a number of the sequence.
    const std::string_view rest = text.substr(at + kClose.size());
    const std::size_t digits =
        std::min(rest.find_first_not_of("0123456789"), rest.size());
    if (digits == rest.size() || rest[digits] != '"' || digits > 4 ||
        (digits > 1 && rest[0] == '0')) {
      continue;
    }
    std::size_t n = 0;
    std::from_chars(rest.data(), rest.data() + digits, n);
    if (taken.empty()) taken.resize(1 + 10000);
    taken[digits == 0 ? 0 : n + 1] = true;
  }
  const auto free = std::find(taken.begin(), taken.end(), false);
  if (free == taken.begin()) return std::string();  // also when none is taken
  if (free == taken.end()) return std::nullopt;
  return std::to_string(free - taken.begin() - 1);
}

}  // namespace

pdl::util::Result<std::string> generate_source(const AnnotatedProgram& program,
                                               const pdl::Platform& target,
                                               const CodegenOptions& options,
                                               pdl::Diagnostics& diags) {
  std::vector<Edit> edits;

  // Task pragmas: comment out (unknown to downstream compilers).
  for (const auto& variant : program.variants) {
    const SourceRange& r = variant.pragma.range;
    edits.push_back(
        Edit{r.begin, r.end, comment_out(program.source.substr(r.begin, r.end - r.begin))});
  }

  // Call sites: pragma + statement replaced by the generated block.
  for (const auto& call : program.calls) {
    auto block = generate_call_block(program, call, options, diags);
    const std::size_t begin = call.pragma.range.begin;
    const std::size_t end = call.statement.end;
    if (!block) {
      // Keep the original call; just comment the pragma.
      const SourceRange& r = call.pragma.range;
      edits.push_back(Edit{
          r.begin, r.end, comment_out(program.source.substr(r.begin, r.end - r.begin))});
      continue;
    }
    edits.push_back(Edit{begin, end, std::move(*block)});
  }

  // Prologue.
  std::string out = "// ===== Generated by cascabel =====\n";
  out += "// input:  " + program.source_name + "\n";
  out += "// target: ";
  out += target.name().empty() ? "<unnamed platform>" : target.name();
  out += "\n";
  out += "// Do not edit; regenerate from the annotated input program.\n";
  out += "#include <cstddef>\n";
  out += "#include \"cascabel/rt.hpp\"\n\n";

  // The input with its edits spliced in, front to back (edits do not overlap).
  std::sort(edits.begin(), edits.end(),
            [](const Edit& a, const Edit& b) { return a.begin < b.begin; });
  std::size_t copied = 0;
  for (const auto& edit : edits) {
    out.append(program.source, copied, edit.begin - copied);
    out += edit.text;
    copied = edit.end;
  }
  out.append(program.source, copied);

  out += "\n\n// ===== cascabel epilogue: variant registration & runtime init =====\n";
  out += "namespace {\n";

  // Adapters + registrations for in-file variants.
  for (const auto& variant : program.variants) {
    const std::string where =
        program.source_name + ":" + std::to_string(variant.pragma.range.line);
    out += "[[maybe_unused]] const bool cascabel_reg_" + variant.pragma.variant_name +
           " = ::cascabel::rt::register_variant(\n";
    out += "    \"" + variant.pragma.task_interface + "\", \"" +
           variant.pragma.variant_name + "\",\n    {";
    for (std::size_t i = 0; i < variant.pragma.target_platforms.size(); ++i) {
      out += i ? ", \"" : "\"";
      out += variant.pragma.target_platforms[i] + "\"";
    }
    // The in-file variant's device class follows its first target platform.
    out += "},\n    ";
    out += kind_enum(device_kind_for_target(variant.pragma.target_platforms.front()));
    out += ",\n";
    out += "    [](const ::starvm::ExecContext& ctx) { " +
           generate_adapter(variant, diags, where) + " });\n";
  }

  if (options.emit_initialize) {
    // The description is written once, straight into the file, then given
    // a raw-string delimiter that it cannot close early.
    out += "\nconst char cascabel_target_pdl[] = R\"CASCABEL_PDL(\n";
    const std::size_t description = out.size();
    pdl::SerializeOptions so;
    so.pretty = true;
    pdl::serialize(target, out, so);
    const auto suffix = delimiter_suffix(std::string_view(out).substr(description));
    if (!suffix) {
      return pdl::util::Error{
          "no raw-string delimiter from CASCABEL_PDL to CASCABEL_PDL9999 is free: "
          "the target description holds the closing sequence of each",
          target.name()};
    }
    if (!suffix->empty()) out.insert(description - 2, *suffix);  // before "(\n"
    out += ")CASCABEL_PDL" + *suffix + "\";\n";
    out += "[[maybe_unused]] const bool cascabel_rt_ready =\n";
    out += "    ::cascabel::rt::initialize(cascabel_target_pdl);\n";
  }
  out += "}  // namespace\n";
  return out;
}

}  // namespace cascabel
