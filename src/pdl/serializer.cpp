#include "pdl/serializer.hpp"

#include "xml/reader.hpp"
#include "xml/writer.hpp"

namespace pdl {

namespace {

class PlatformWriter {
 public:
  PlatformWriter(std::string& out, const SerializeOptions& options)
      : emit_(out, options.pretty) {}

  void write(const Platform& platform, bool bare) {
    emit_.declaration("1.0", "UTF-8");
    if (bare) {
      write_pu(*platform.masters().front(), &platform);
      return;
    }
    emit_.start("Platform");
    if (!platform.name().empty()) emit_.attribute("name", platform.name());
    emit_.attribute("version", platform.schema_version());
    write_namespaces(platform);
    if (platform.masters().empty()) {
      emit_.end_empty();
      return;
    }
    emit_.begin_content(true);
    for (const auto& master : platform.masters()) write_pu(*master);
    emit_.end("Platform");
  }

 private:
  void write_namespaces(const Platform& platform) {
    bool has_xsi = false;
    for (const auto& [prefix, uri] : platform.namespaces()) {
      if (prefix.empty()) {
        emit_.attribute("xmlns", uri);
      } else {
        name_.assign("xmlns:").append(prefix);
        emit_.attribute(name_, uri);
      }
      if (prefix == "xsi") has_xsi = true;
    }
    // Extension-typed properties need xsi; declare it unconditionally so
    // generated documents are always self-consistent.
    if (!has_xsi) emit_.attribute("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance");
  }

  /// `<name>text</name>` on one line, also when the text is empty.
  void write_leaf(const std::string& name, std::string_view unit, std::string_view text) {
    emit_.start(name);
    if (!unit.empty()) emit_.attribute("unit", unit);
    emit_.begin_content(false);
    emit_.text(text);
    emit_.end(name);
  }

  void write_property(const Property& prop) {
    emit_.start("Property");
    emit_.attribute("fixed", prop.fixed ? "true" : "false");
    // Extension-typed properties carry their subschema prefix on the
    // name/value children, matching paper Listing 2. A prefix that is not
    // an XML name would break the markup, so such children stay unprefixed.
    std::string_view prefix;
    if (!prop.xsi_type.empty()) {
      emit_.attribute("xsi:type", prop.xsi_type);
      const auto colon = prop.xsi_type.find(':');
      if (colon != std::string::npos) {
        prefix = std::string_view(prop.xsi_type).substr(0, colon + 1);
        if (!xml::is_name(prefix)) prefix = {};
      }
    }
    emit_.begin_content(true);
    write_leaf(name_.assign(prefix).append("name"), {}, prop.name);
    write_leaf(name_.assign(prefix).append("value"), prop.unit, prop.value);
    emit_.end("Property");
  }

  void write_descriptor(const Descriptor& descriptor, std::string_view element) {
    if (descriptor.empty()) return;
    emit_.start(element);
    emit_.begin_content(true);
    for (const auto& prop : descriptor.properties()) write_property(prop);
    emit_.end(element);
  }

  /// Closes the start tag of an element whose only content is `descriptor`.
  void write_descriptor_content(const Descriptor& descriptor, std::string_view parent,
                                std::string_view element) {
    if (descriptor.empty()) {
      emit_.end_empty();
      return;
    }
    emit_.begin_content(true);
    write_descriptor(descriptor, element);
    emit_.end(parent);
  }

  /// A PU's element; as the bare document root it also declares the
  /// platform's namespaces.
  void write_pu(const ProcessingUnit& pu, const Platform* root_of = nullptr) {
    const std::string_view element = to_string(pu.kind());
    emit_.start(element);
    if (root_of != nullptr) write_namespaces(*root_of);
    emit_.attribute("id", pu.id());
    emit_.attribute("quantity", std::to_string(pu.quantity()));
    if (pu.descriptor().empty() && pu.logic_groups().empty() &&
        pu.memory_regions().empty() && pu.children().empty() &&
        pu.interconnects().empty()) {
      emit_.end_empty();
      return;
    }
    emit_.begin_content(true);
    write_descriptor(pu.descriptor(), "PUDescriptor");
    for (const auto& group : pu.logic_groups()) {
      emit_.start("LogicGroupAttribute");
      emit_.attribute("group", group);
      emit_.end_empty();
    }
    for (const auto& mr : pu.memory_regions()) {
      emit_.start("MemoryRegion");
      emit_.attribute("id", mr.id);
      write_descriptor_content(mr.descriptor, "MemoryRegion", "MRDescriptor");
    }
    for (const auto& child : pu.children()) write_pu(*child);
    // Interconnects last, matching the paper's listing order.
    for (const auto& ic : pu.interconnects()) {
      emit_.start("Interconnect");
      emit_.attribute("type", ic.type);
      emit_.attribute("from", ic.from);
      emit_.attribute("to", ic.to);
      emit_.attribute("scheme", ic.scheme);
      write_descriptor_content(ic.descriptor, "Interconnect", "ICDescriptor");
    }
    emit_.end(element);
  }

  xml::Emitter emit_;
  std::string name_;  // reused buffer for prefixed element names
};

/// A little over the size of `pu`'s pretty-printed markup. Reserving it up
/// front spares a large description's output from regrowing (copying and
/// faulting in fresh pages) through megabytes.
std::size_t markup_size(const ProcessingUnit& pu, std::size_t depth) {
  const auto descriptor_size = [depth](const Descriptor& d) {
    std::size_t n = 0;
    for (const auto& p : d.properties()) {
      n += 96 + 8 * depth + p.name.size() + p.value.size() + 3 * p.xsi_type.size();
    }
    return n;
  };
  std::size_t n = 80 + 2 * depth + pu.id().size() + descriptor_size(pu.descriptor());
  for (const auto& group : pu.logic_groups()) n += 48 + 2 * depth + group.size();
  for (const auto& mr : pu.memory_regions()) {
    n += 80 + mr.id.size() + descriptor_size(mr.descriptor);
  }
  for (const auto& ic : pu.interconnects()) n += 112 + descriptor_size(ic.descriptor);
  for (const auto& child : pu.children()) n += markup_size(*child, depth + 1);
  return n;
}

}  // namespace

void serialize(const Platform& platform, std::string& out,
               const SerializeOptions& options) {
  std::size_t size = 256;
  for (const auto& master : platform.masters()) size += markup_size(*master, 1);
  // Compact output has no indentation or newlines.
  out.reserve(out.size() + (options.pretty ? size : size * 3 / 4));
  const bool bare = options.bare_master_root && platform.masters().size() == 1 &&
                    platform.name().empty();
  PlatformWriter(out, options).write(platform, bare);
}

std::string serialize(const Platform& platform, const SerializeOptions& options) {
  std::string out;
  serialize(platform, out, options);
  return out;
}

}  // namespace pdl
