// PDL serialization: pdl::Platform -> XML text, written straight through
// xml::Emitter (no intermediate DOM).
//
// Round-trips with pdl/parser.hpp: serialize(parse(x)) is structurally equal
// to x for every valid document (tested in tests/pdl_roundtrip_test.cpp).
#pragma once

#include <string>

#include "pdl/model.hpp"

namespace pdl {

struct SerializeOptions {
  /// Emit a bare <Master> root when the platform has exactly one master and
  /// no name (matching paper Listing 1); otherwise a <Platform> wrapper.
  bool bare_master_root = false;
  bool pretty = true;
};

/// Serialize to XML text appended to `out`, reserving room for all of it
/// up front.
void serialize(const Platform& platform, std::string& out,
               const SerializeOptions& options = {});
/// Serialize to XML text.
std::string serialize(const Platform& platform, const SerializeOptions& options = {});

}  // namespace pdl
