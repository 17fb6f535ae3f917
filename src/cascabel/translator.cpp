#include "cascabel/translator.hpp"

#include "cascabel/builtin_variants.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cascabel {

pdl::util::Result<TranslationResult> translate(std::string_view source,
                                               std::string source_name,
                                               const pdl::Platform& target) {
  return translate(source, std::move(source_name), target, TranslationOptions{});
}

pdl::util::Result<TranslationResult> translate(std::string_view source,
                                               std::string source_name,
                                               const pdl::Platform& target,
                                               const TranslationOptions& options) {
  obs::Span translate_span("cascabel.translate", source_name);
  static obs::Counter& translations = obs::counter("cascabel.translations");
  TranslationResult result;

  // Step 1 — task registration.
  auto program = [&] {
    obs::Span span("cascabel.parse", source_name);
    return parse_annotated_source(source, std::move(source_name),
                                  result.diagnostics);
  }();
  if (!program) return program.error();
  result.program = std::move(program).value();

  result.repository = TaskRepository::with_defaults();
  if (options.use_builtin_variants) {
    register_builtin_variants(result.repository);
  }
  result.repository.register_program(result.program);

  // Expert variant files (paper Figure 1): variants only, call sites ignored.
  for (const auto& [name, text] : options.variant_sources) {
    auto extra = parse_annotated_source(text, name, result.diagnostics);
    if (!extra) return extra.error();
    if (!result.repository.register_program(extra.value())) {
      return pdl::util::Error{"duplicate variant name in variant source", name};
    }
    if (!extra.value().calls.empty()) {
      pdl::add_warning(result.diagnostics,
                       "variant source contains execute annotations; ignored",
                       name);
    }
  }

  // Step 2 — static pre-selection against the target PDL.
  result.selection = preselect(result.repository, target, result.diagnostics);
  if (pdl::has_errors(result.diagnostics)) {
    return pdl::util::Error{"pre-selection failed (see diagnostics)",
                            result.program.source_name};
  }

  // Step 3 — output generation.
  auto output = [&] {
    obs::Span span("cascabel.codegen", options.codegen.program_name);
    return generate_source(result.program, target, options.codegen,
                           result.diagnostics);
  }();
  if (!output) return output.error();
  result.output_source = std::move(output).value();

  // Step 4 — compilation plan.
  const std::string generated_name = options.codegen.program_name + ".cascabel.cpp";
  {
    obs::Span span("cascabel.compile_plan", generated_name);
    result.compile_plan =
        derive_compile_plan(target, generated_name, options.executable_name);
  }

  translations.inc();
  return result;
}

}  // namespace cascabel
