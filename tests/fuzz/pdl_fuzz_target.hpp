// Fuzz entry over the PDL input surface: xml::Reader, pdl::parse_platform,
// pdl::validate and pdl::serialize. `LLVMFuzzerTestOneInput` (in
// pdl_fuzz_target.cpp) aborts when `check_pdl_input` reports a finding;
// tests/fuzz/pdl_fuzz_replay_test.cpp replays the committed corpus and
// seeded mutations of it through the same check.
#pragma once

#include <string>
#include <string_view>

namespace pdl::fuzz {

/// Runs one input through the PDL surface. Returns "" when every property
/// holds, else a description of the first one that broke:
///   * nothing throws, and a failure carries a non-empty message;
///   * walking the xml::Reader, a text, CDATA or comment token comes only
///     inside an element, each end tag names the innermost open start tag,
///     depth() counts the open start tags, pos() never moves backwards and
///     kEnd comes only with no element open;
///   * for every input that parses, serialize(parse(serialize(p))) ==
///     serialize(p) under all four SerializeOptions combinations.
std::string check_pdl_input(std::string_view input);

}  // namespace pdl::fuzz
