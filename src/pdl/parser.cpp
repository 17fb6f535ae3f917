#include "pdl/parser.hpp"

#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "util/string_util.hpp"
#include "xml/reader.hpp"

namespace pdl {

namespace {

/// Local part of a qualified name ("Property" for "ocl:Property").
std::string_view local_name(std::string_view name) {
  const auto colon = name.find(':');
  return colon == std::string_view::npos ? name : name.substr(colon + 1);
}

void trim_in_place(std::string& s) {
  const std::string_view kept = util::trim(s);
  const auto begin = static_cast<std::size_t>(kept.data() - s.data());
  s.erase(begin + kept.size());
  s.erase(0, begin);
}

/// Reads a Platform from xml::Reader tokens in one pass, without a DOM.
///
/// Accepted structure: a <Platform> root of <Master>s, or a bare <Master>
/// root (paper Listing 1); each PU holds a PUDescriptor, MemoryRegions,
/// Interconnects, LogicGroupAttributes and controlled PUs; descriptors hold
/// <Property> elements whose <name>/<value> children are matched by local
/// name, so any extension prefix works:
///   <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
///     <ocl:name>N</ocl:name><ocl:value unit="kB">V</ocl:value>
///   </Property>
/// Unknown elements are reported and skipped with their subtree. Findings
/// are buffered: a malformed document returns only its XML error.
class PlatformReader {
 public:
  PlatformReader(std::string_view text, std::string source_name)
      : reader_(text, source_name), source_name_(std::move(source_name)) {}

  util::Result<Platform> read(Diagnostics& diags) {
    xml::Token token;
    while ((token = reader_.next()) != xml::Token::kEnd && token != xml::Token::kError) {
      if (skip_until_ != 0) {
        if (token == xml::Token::kEndElement && reader_.depth() < skip_until_) {
          skip_until_ = 0;
        }
        continue;
      }
      switch (token) {
        case xml::Token::kStartElement: start_element(); break;
        case xml::Token::kEndElement: end_element(); break;
        case xml::Token::kText:
          // Whitespace-only runs between markup are not part of a value.
          if (util::trim(reader_.text()).empty()) break;
          [[fallthrough]];
        case xml::Token::kCData:
          if (!open_.empty() && open_.back().text != nullptr) {
            open_.back().text->append(reader_.text());
          }
          break;
        default: break;
      }
    }
    xml::count_read(reader_, token == xml::Token::kEnd);
    if (token == xml::Token::kError) return reader_.error();
    if (root_error_) return util::Error{std::move(*root_error_)};

    diags.insert(diags.end(), std::make_move_iterator(found_.begin()),
                 std::make_move_iterator(found_.end()));
    if (platform_.masters().empty()) {
      add_error(diags, "platform has no Master processing unit");
    }
    return std::move(platform_);
  }

 private:
  /// What an open PDL element is.
  enum class Kind { kPlatform, kPu, kDescriptor, kMemoryRegion, kInterconnect, kProperty,
                    kNameOrValue, kGroup };

  struct Open {
    Kind kind;
    std::string_view element;             // qualified name as written
    ProcessingUnit* pu = nullptr;         // kPu
    Descriptor* descriptor = nullptr;     // where child <Property>s go
    std::string* text = nullptr;          // text content accumulates here
  };

  SourceLoc loc() const {
    const xml::SourcePos pos = reader_.pos();
    return SourceLoc{source_name_, pos.line, pos.column};
  }

  void report(Severity severity, std::string message, SourceLoc at, std::string_view element) {
    add_finding(found_, severity, {}, std::move(message), std::move(at),
                "<" + std::string(element) + ">");
  }

  /// Ignore the current element and everything inside it.
  void skip() { skip_until_ = reader_.depth(); }

  void skip_unknown(std::string_view parent) {
    const std::string_view element = reader_.name();
    report(Severity::kWarning,
           "unknown element <" + std::string(element) + "> inside <" + std::string(parent) + ">",
           loc(), element);
    skip();
  }

  std::string attribute(std::string_view name, std::string_view fallback = {}) const {
    return std::string(reader_.attribute(name).value_or(fallback));
  }

  void start_element() {
    const std::string_view element = reader_.name();
    const std::string_view local = local_name(element);
    if (open_.empty()) {
      start_root(element, local);
      return;
    }
    const Open parent = open_.back();
    switch (parent.kind) {
      case Kind::kPlatform:
        if (local == "Master") {
          start_pu(nullptr, PuKind::kMaster);
        } else if (pu_kind_from_string(local)) {
          report(Severity::kError,
                 "top-level PU must be a Master, got <" + std::string(element) + ">", loc(),
                 element);
          skip();
        } else {
          skip_unknown("Platform");
        }
        break;
      case Kind::kPu:
        if (local == "PUDescriptor") {
          // A later descriptor replaces an earlier one.
          start_descriptor(element, parent.pu->descriptor());
        } else if (local == "MemoryRegion") {
          start_memory_region(*parent.pu);
        } else if (local == "Interconnect") {
          start_interconnect(*parent.pu);
        } else if (local == "LogicGroupAttribute") {
          // Group names can appear as a `group` attribute or as text content;
          // both are normalized to the PU's group list.
          group_ = attribute("group");
          group_loc_ = loc();
          open_.push_back({Kind::kGroup, element, nullptr, nullptr,
                           group_.empty() ? &group_ : nullptr});
        } else if (const auto kind = pu_kind_from_string(local)) {
          start_pu(parent.pu, *kind);
        } else {
          skip_unknown(parent.element);
        }
        break;
      case Kind::kDescriptor:
        if (local == "Property") {
          start_property(*parent.descriptor);
        } else {
          skip_unknown(parent.element);
        }
        break;
      case Kind::kMemoryRegion:
      case Kind::kInterconnect: {
        const bool mr = parent.kind == Kind::kMemoryRegion;
        if (local == (mr ? "MRDescriptor" : "ICDescriptor")) {
          start_descriptor(element, *parent.descriptor);
        } else if (local == "Property") {
          // Tolerate properties directly under MemoryRegion/Interconnect.
          start_property(*parent.descriptor);
        } else {
          skip_unknown(mr ? "MemoryRegion" : "Interconnect");
        }
        break;
      }
      case Kind::kProperty:
        if (local == "name") {
          property_named_ = true;
          property_->name.clear();
          open_.push_back({Kind::kNameOrValue, element, nullptr, nullptr, &property_->name});
        } else if (local == "value") {
          property_->value.clear();
          property_->unit = attribute("unit");
          open_.push_back({Kind::kNameOrValue, element, nullptr, nullptr, &property_->value});
        } else {
          skip_unknown("Property");
        }
        break;
      case Kind::kNameOrValue:
      case Kind::kGroup:
        skip();  // text content counts only the element's own text
        break;
    }
  }

  void end_element() {
    const Open closed = open_.back();
    open_.pop_back();
    switch (closed.kind) {
      case Kind::kProperty:
        if (!property_named_) {
          report(Severity::kError, "<Property> without <name>", property_->loc,
                 closed.element);
        }
        break;
      case Kind::kDescriptor:
        last_descriptor_size_ = closed.descriptor->size();
        break;
      case Kind::kNameOrValue:
        trim_in_place(*closed.text);
        break;
      case Kind::kGroup:
        if (closed.text != nullptr) trim_in_place(group_);
        if (group_.empty()) {
          report(Severity::kWarning, "<LogicGroupAttribute> without group name", group_loc_,
                 closed.element);
        } else {
          open_.back().pu->logic_groups().push_back(std::move(group_));
        }
        break;
      default: break;
    }
  }

  void start_root(std::string_view element, std::string_view local) {
    if (local != "Platform" && local != "Master") {
      root_error_ = "PDL root must be <Platform> or <Master>, got <" + std::string(element) + ">";
      skip();
      return;
    }
    platform_.set_source_name(source_name_);
    // Namespace declarations on the root element. Attribute names are
    // unique, so only "xmlns" and "xmlns:" can both declare the empty
    // prefix; as in Platform::declare_namespace the later URI wins.
    auto& namespaces = platform_.namespaces();
    std::optional<std::size_t> default_namespace;
    for (const auto& a : reader_.attributes()) {
      std::string_view prefix;
      if (util::starts_with(a.name, "xmlns:")) {
        prefix = a.name.substr(6);
      } else if (a.name != "xmlns") {
        continue;
      }
      if (prefix.empty() && default_namespace) {
        namespaces[*default_namespace].second = a.value;
        continue;
      }
      if (prefix.empty()) default_namespace = namespaces.size();
      namespaces.emplace_back(prefix, a.value);
    }
    if (local == "Master") {
      // Paper Listing 1: a bare Master as document root.
      start_pu(nullptr, PuKind::kMaster);
      return;
    }
    platform_.set_name(attribute("name"));
    platform_.set_schema_version(attribute("version", "1.0"));
    open_.push_back({Kind::kPlatform, element});
  }

  void start_pu(ProcessingUnit* parent, PuKind kind) {
    const std::string_view element = reader_.name();
    SourceLoc at = loc();
    std::string id = attribute("id");
    if (id.empty()) {
      report(Severity::kError, "<" + std::string(element) + "> without id", at, element);
    }
    int quantity = 1;
    if (const auto q = reader_.attribute("quantity")) {
      const auto parsed = util::parse_int(*q);
      // Upper bound matters too: parse_int yields int64, and quantity is
      // stored as int — "1e9"-style or absurd values must not wrap on the
      // narrowing cast and silently expand to garbage.
      if (!parsed || *parsed < 1 || *parsed > std::numeric_limits<int>::max()) {
        report(Severity::kError,
               "invalid quantity '" + std::string(*q) + "' on <" + std::string(element) +
                   "> (expected an integer >= 1)",
               at, element);
      } else {
        quantity = static_cast<int>(*parsed);
      }
    }
    auto pu = std::make_unique<ProcessingUnit>(kind, std::move(id), quantity);
    pu->set_loc(std::move(at));
    ProcessingUnit* added =
        parent != nullptr ? parent->add_child(std::move(pu)) : platform_.add_master(std::move(pu));
    open_.push_back({Kind::kPu, element, added});
  }

  void start_memory_region(ProcessingUnit& pu) {
    MemoryRegion& mr = pu.memory_regions().emplace_back();
    mr.id = attribute("id");
    mr.loc = loc();
    if (mr.id.empty()) {
      report(Severity::kWarning, "<MemoryRegion> without id", mr.loc, reader_.name());
    }
    open_.push_back({Kind::kMemoryRegion, reader_.name(), nullptr, &mr.descriptor});
  }

  void start_interconnect(ProcessingUnit& pu) {
    Interconnect& ic = pu.interconnects().emplace_back();
    ic.type = attribute("type");
    ic.from = attribute("from");
    ic.to = attribute("to");
    ic.scheme = attribute("scheme");
    ic.loc = loc();
    if (ic.from.empty() || ic.to.empty()) {
      report(Severity::kError, "<Interconnect> requires 'from' and 'to' PU ids", ic.loc,
             reader_.name());
    }
    open_.push_back({Kind::kInterconnect, reader_.name(), nullptr, &ic.descriptor});
  }

  /// Sibling descriptors tend to be alike: room for as many properties as
  /// the previous descriptor element held spares each later one from
  /// regrowing, and is never more than the input wrote out.
  void start_descriptor(std::string_view element, Descriptor& descriptor) {
    descriptor = Descriptor();
    descriptor.properties().reserve(last_descriptor_size_);
    open_.push_back({Kind::kDescriptor, element, nullptr, &descriptor});
  }

  void start_property(Descriptor& descriptor) {
    Property& prop = descriptor.properties().emplace_back();
    prop.fixed = !util::iequals(reader_.attribute("fixed").value_or("true"), "false");
    prop.xsi_type = attribute("xsi:type");
    prop.loc = loc();
    property_ = &prop;
    property_named_ = false;
    open_.push_back({Kind::kProperty, reader_.name()});
  }

  xml::Reader reader_;
  std::string source_name_;
  Platform platform_;
  Diagnostics found_;               // appended to the caller's once the XML is known good
  std::optional<std::string> root_error_;
  std::vector<Open> open_;          // open PDL elements, innermost last
  std::size_t skip_until_ = 0;      // nonzero: ignoring tokens until depth drops below it
  std::size_t last_descriptor_size_ = 0;  // properties of the last closed descriptor
  // At most one <Property> and one <LogicGroupAttribute> are open at a time.
  Property* property_ = nullptr;
  bool property_named_ = false;
  std::string group_;
  SourceLoc group_loc_;
};

}  // namespace

util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags,
                                      std::string source_name) {
  obs::Span span("xml.parse", source_name);
  return PlatformReader(xml_text, std::move(source_name)).read(diags);
}

util::Result<Platform> parse_platform(std::string_view xml_text, Diagnostics& diags) {
  return parse_platform(xml_text, diags, "<memory>");
}

util::Result<Platform> parse_platform_file(const std::string& path, Diagnostics& diags) {
  auto contents = util::read_file(path);
  if (!contents) return util::Error{"cannot open file", path};
  return parse_platform(*contents, diags, path);
}

util::Result<Platform> parse_platform(std::string_view xml_text) {
  Diagnostics diags;
  return parse_platform(xml_text, diags);
}

util::Result<Platform> parse_platform_file(const std::string& path) {
  Diagnostics diags;
  return parse_platform_file(path, diags);
}

}  // namespace pdl
