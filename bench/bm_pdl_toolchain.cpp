// ABL4 — PDL processing cost (DESIGN.md): parse, validate, query and
// serialize synthetic platforms of growing size. The paper positions PDL
// descriptors as inputs to compilers/auto-tuners/runtimes; these numbers
// show the descriptor layer is never the bottleneck.
#include <benchmark/benchmark.h>

#include "discovery/presets.hpp"
#include "pdl/extension.hpp"
#include "pdl/parser.hpp"
#include "pdl/query.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "pdl/well_known.hpp"
#include "xml/reader.hpp"

namespace {

/// A platform with `n` workers under hybrids of 8, each with properties.
pdl::Platform synthetic_platform(int n) {
  pdl::Platform p("synthetic");
  pdl::ProcessingUnit* m = p.add_master("m");
  m->descriptor().add(pdl::props::kArchitecture, "x86");
  pdl::ProcessingUnit* hybrid = nullptr;
  for (int i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      hybrid = m->add_child(pdl::PuKind::kHybrid, "h" + std::to_string(i / 8));
      hybrid->descriptor().add(pdl::props::kArchitecture, "x86");
    }
    pdl::ProcessingUnit* w =
        hybrid->add_child(pdl::PuKind::kWorker, "w" + std::to_string(i));
    w->descriptor().add(pdl::props::kArchitecture, i % 3 == 0 ? "gpu" : "x86_core");
    w->descriptor().add(pdl::props::kFrequencyMhz, "2660");
    w->descriptor().add(pdl::props::kPeakGflops, "10.6");
    w->logic_groups().push_back(i % 3 == 0 ? "gpu" : "cpu");
  }
  return p;
}

/// The shape of perfbench's `wide` description: `n` x86 workers written PU
/// by PU directly under one Master, four properties and one group each.
pdl::Platform flat_platform(int n) {
  pdl::Platform p("flat");
  pdl::ProcessingUnit* m = p.add_master("m0");
  m->descriptor().add(pdl::props::kArchitecture, "x86");
  for (int i = 0; i < n; ++i) {
    pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "core" + std::to_string(i));
    w->descriptor().add(pdl::props::kArchitecture, "x86_core");
    w->descriptor().add(pdl::props::kFrequencyMhz, "2660");
    w->descriptor().add(pdl::props::kPeakGflops, "10.64");
    w->descriptor().add(pdl::props::kSustainedGflops, "9.8");
    w->logic_groups().push_back("all");
  }
  return p;
}

void BM_Serialize(benchmark::State& state) {
  const pdl::Platform p = synthetic_platform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string xml = pdl::serialize(p);
    benchmark::DoNotOptimize(xml);
  }
}
BENCHMARK(BM_Serialize)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

void BM_ParsePlatform(benchmark::State& state) {
  const std::string xml =
      pdl::serialize(synthetic_platform(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    pdl::Diagnostics diags;
    auto p = pdl::parse_platform(xml, diags);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ParsePlatform)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

void BM_SerializeFlat(benchmark::State& state) {
  const pdl::Platform p = flat_platform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string xml = pdl::serialize(p);
    benchmark::DoNotOptimize(xml);
  }
}
BENCHMARK(BM_SerializeFlat)->Arg(1000);

void BM_ParseFlatPlatform(benchmark::State& state) {
  const std::string xml = pdl::serialize(flat_platform(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    pdl::Diagnostics diags;
    auto p = pdl::parse_platform(xml, diags);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ParseFlatPlatform)->Arg(1000);

/// The XML layer alone: one xml::Reader walk over the text BM_ParsePlatform
/// reads, with no model built from the tokens.
void BM_XmlTokenScan(benchmark::State& state) {
  const std::string xml =
      pdl::serialize(synthetic_platform(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    pdl::xml::Reader reader(xml);
    pdl::xml::Token token = reader.next();
    while (token != pdl::xml::Token::kEnd && token != pdl::xml::Token::kError) {
      token = reader.next();
    }
    benchmark::DoNotOptimize(token);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlTokenScan)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

void BM_Validate(benchmark::State& state) {
  const pdl::Platform p = synthetic_platform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    pdl::Diagnostics diags;
    benchmark::DoNotOptimize(pdl::validate(p, diags));
  }
}
BENCHMARK(BM_Validate)->Arg(16)->Arg(128)->Arg(1024);

void BM_ValidateExtensions(benchmark::State& state) {
  const pdl::Platform p = synthetic_platform(static_cast<int>(state.range(0)));
  const pdl::SchemaRegistry& registry = pdl::builtin_registry();
  for (auto _ : state) {
    pdl::Diagnostics diags;
    benchmark::DoNotOptimize(registry.validate_properties(p, diags));
  }
}
BENCHMARK(BM_ValidateExtensions)->Arg(16)->Arg(128)->Arg(1024);

void BM_QueryGroupMembers(benchmark::State& state) {
  const pdl::Platform p = synthetic_platform(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto members = pdl::group_members(p, "gpu");
    benchmark::DoNotOptimize(members);
  }
}
BENCHMARK(BM_QueryGroupMembers)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

void BM_QueryDataPath(benchmark::State& state) {
  const pdl::Platform p = synthetic_platform(static_cast<int>(state.range(0)));
  const int n = static_cast<int>(state.range(0));
  const std::string from = "w0";
  const std::string to = "w" + std::to_string(n - 1);
  for (auto _ : state) {
    auto path = pdl::data_path(p, from, to);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_QueryDataPath)->Arg(16)->Arg(128)->Arg(1024);

void BM_RoundTrip(benchmark::State& state) {
  const pdl::Platform p = pdl::discovery::paper_platform_starpu_2gpu();
  for (auto _ : state) {
    pdl::Diagnostics diags;
    auto back = pdl::parse_platform(pdl::serialize(p), diags);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RoundTrip);

}  // namespace

BENCHMARK_MAIN();
