// The hierarchical machine model of the paper (§III-A) as C++ types.
//
// Processing units come in three classes:
//   * Master — feature-rich general-purpose PU; program entry point; only at
//     the top level of the hierarchy; several Masters may co-exist.
//   * Hybrid — acts as master and worker; only at inner nodes; must be
//     controlled by a Master or another Hybrid.
//   * Worker — specialized compute resource; only at leaf nodes; must be
//     controlled by a Master or Hybrid.
// Communication entities: MemoryRegion (directly addressable memory visible
// to a PU) and Interconnect (PU-to-PU connectivity used to derive data
// transfer paths). Every entity carries an extensible Descriptor, a list of
// Property{name, value} items that may be `fixed` (authoritative) or
// `unfixed` (to be filled in by later tools — paper §III-B).
//
// The same types represent both *generic platform patterns* and *concrete
// platforms*; see pattern.hpp for the matching semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pdl/diagnostics.hpp"

namespace pdl {

enum class PuKind { kMaster, kHybrid, kWorker };

/// "Master" / "Hybrid" / "Worker" (also the XML element names).
std::string_view to_string(PuKind kind);
/// Inverse of to_string; nullopt for unknown names.
std::optional<PuKind> pu_kind_from_string(std::string_view name);

/// One key/value descriptor entry (paper: Property with name, value).
struct Property {
  std::string name;
  std::string value;
  std::string unit;      ///< Optional unit on the value ("kB", "MHz", ...).
  bool fixed = true;     ///< Unfixed values are editable by downstream tools.
  std::string xsi_type;  ///< Extension subschema type, e.g. "ocl:oclDevicePropertyType".
  SourceLoc loc;         ///< Where the <Property> element was parsed from.

  /// Integer view of the value; nullopt when non-numeric.
  std::optional<std::int64_t> as_int() const;
  /// Floating-point view of the value; nullopt when non-numeric.
  std::optional<double> as_double() const;
  /// SIZE-style values normalized to bytes using the unit ("kB","MB","GB",
  /// "B" or none). nullopt when the value is non-numeric or unit unknown.
  std::optional<std::int64_t> as_bytes() const;
};

/// Ordered property list shared by PUDescriptor / MRDescriptor / ICDescriptor.
class Descriptor {
 public:
  const std::vector<Property>& properties() const { return properties_; }
  std::vector<Property>& properties() { return properties_; }
  bool empty() const { return properties_.empty(); }
  std::size_t size() const { return properties_.size(); }

  /// First property with the given name (case-sensitive); nullptr if absent.
  const Property* find(std::string_view name) const;
  Property* find(std::string_view name);

  /// Value of the property, or "" when absent.
  std::string get(std::string_view name) const;
  /// Value of the property, or `fallback` when absent.
  std::string get_or(std::string_view name, std::string fallback) const;
  /// Integer value of the property; nullopt when absent/non-numeric.
  std::optional<std::int64_t> get_int(std::string_view name) const;
  /// Floating-point value; nullopt when absent/non-numeric.
  std::optional<double> get_double(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != nullptr; }

  /// Append a simple fixed property; returns a reference for chaining edits.
  Property& add(std::string name, std::string value);
  /// Append a fully specified property.
  Property& add(Property property);
  /// Set (replacing the first occurrence) or append.
  Property& set(std::string_view name, std::string_view value);
  /// Remove all properties with the name; returns the count removed.
  std::size_t remove(std::string_view name);

 private:
  std::vector<Property> properties_;
};

/// Directly addressable memory attached to a PU (paper §III-A).
struct MemoryRegion {
  std::string id;
  Descriptor descriptor;  ///< MRDescriptor: sizes, affinities, speeds, ...
  SourceLoc loc;          ///< Where the <MemoryRegion> element was parsed from.
};

/// Connectivity between two PUs, referenced by PU id (paper Listing 1:
/// <Interconnect type="rDMA" from="0" to="1" scheme=""/>).
struct Interconnect {
  std::string type;    ///< e.g. "rDMA", "PCIe", "QPI", "EIB".
  std::string from;    ///< PU id of one endpoint.
  std::string to;      ///< PU id of the other endpoint.
  std::string scheme;  ///< Communication scheme (free-form).
  Descriptor descriptor;  ///< ICDescriptor: bandwidth, latency, ...
  SourceLoc loc;          ///< Where the <Interconnect> element was parsed from.
};

/// A processing unit node of the hierarchy.
class ProcessingUnit {
 public:
  ProcessingUnit(PuKind kind, std::string id, int quantity = 1)
      : kind_(kind), id_(std::move(id)), quantity_(quantity) {}

  ProcessingUnit(const ProcessingUnit&) = delete;
  ProcessingUnit& operator=(const ProcessingUnit&) = delete;

  PuKind kind() const { return kind_; }
  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  /// How many identical units this node stands for (paper: quantity="1").
  int quantity() const { return quantity_; }
  void set_quantity(int quantity) { quantity_ = quantity; }

  Descriptor& descriptor() { return descriptor_; }
  const Descriptor& descriptor() const { return descriptor_; }

  std::vector<MemoryRegion>& memory_regions() { return memory_regions_; }
  const std::vector<MemoryRegion>& memory_regions() const { return memory_regions_; }
  /// Memory region by id under this PU; nullptr if absent.
  const MemoryRegion* find_memory_region(std::string_view id) const;

  std::vector<Interconnect>& interconnects() { return interconnects_; }
  const std::vector<Interconnect>& interconnects() const { return interconnects_; }

  /// LogicGroupAttribute values: named sub-sets of PUs (paper §III-B) that
  /// execute annotations reference via their executiongroup field.
  std::vector<std::string>& logic_groups() { return logic_groups_; }
  const std::vector<std::string>& logic_groups() const { return logic_groups_; }
  bool in_group(std::string_view group) const;

  ProcessingUnit* parent() const { return parent_; }
  const std::vector<std::unique_ptr<ProcessingUnit>>& children() const { return children_; }

  /// Attach a controlled PU; returns a raw pointer to the adopted child.
  ProcessingUnit* add_child(std::unique_ptr<ProcessingUnit> child);
  /// Convenience: create and attach a child.
  ProcessingUnit* add_child(PuKind kind, std::string id, int quantity = 1);

  /// Depth from the owning Master (Master itself = 0).
  int depth() const;
  /// True when this PU has no children.
  bool is_leaf() const { return children_.empty(); }

  /// "masterId/…/thisId" path used in diagnostics.
  std::string path() const;

  /// Where this PU's element was parsed from (invalid for in-memory trees).
  const SourceLoc& loc() const { return loc_; }
  void set_loc(SourceLoc loc) { loc_ = std::move(loc); }

 private:
  PuKind kind_;
  std::string id_;
  int quantity_;
  Descriptor descriptor_;
  std::vector<MemoryRegion> memory_regions_;
  std::vector<Interconnect> interconnects_;
  std::vector<std::string> logic_groups_;
  SourceLoc loc_;
  ProcessingUnit* parent_ = nullptr;
  std::vector<std::unique_ptr<ProcessingUnit>> children_;
};

/// A complete platform description: one or more top-level Masters plus
/// document metadata (name, schema version, extension namespaces).
class Platform {
 public:
  Platform() = default;
  explicit Platform(std::string name) : name_(std::move(name)) {}

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;
  Platform(Platform&&) = default;
  Platform& operator=(Platform&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// PDL schema version the document declares (paper: XSD versioning).
  const std::string& schema_version() const { return schema_version_; }
  void set_schema_version(std::string v) { schema_version_ = std::move(v); }

  /// The document this platform was parsed from ("" for in-memory models);
  /// diagnostics use it as the file part of their locations.
  const std::string& source_name() const { return source_name_; }
  void set_source_name(std::string name) { source_name_ = std::move(name); }

  const std::vector<std::unique_ptr<ProcessingUnit>>& masters() const { return masters_; }
  ProcessingUnit* add_master(std::unique_ptr<ProcessingUnit> master);
  ProcessingUnit* add_master(std::string id, int quantity = 1);

  /// Extension namespaces declared on the document: prefix -> URI.
  const std::vector<std::pair<std::string, std::string>>& namespaces() const {
    return namespaces_;
  }
  std::vector<std::pair<std::string, std::string>>& namespaces() { return namespaces_; }
  void declare_namespace(std::string prefix, std::string uri);

  /// Deep copy (the tree is move-only by default; copies are explicit).
  Platform clone() const;

 private:
  std::string name_;
  std::string schema_version_ = "1.0";
  std::string source_name_;
  std::vector<std::unique_ptr<ProcessingUnit>> masters_;
  std::vector<std::pair<std::string, std::string>> namespaces_;
};

/// Deep copy of a PU subtree.
std::unique_ptr<ProcessingUnit> clone_pu(const ProcessingUnit& pu);

}  // namespace pdl
