// In-memory XML document model for the PDL toolchain (substrate S1).
//
// The paper's PDL is XML with XSD-style extension (namespaced xsi:type
// properties), so the DOM supports: elements with attributes, text, CDATA,
// comments, processing instructions, and namespace prefix resolution via
// xmlns declarations. It is a strict tree: elements own their children.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pdl::xml {

enum class NodeKind { kElement, kText, kCData, kComment, kProcInstr };

struct Attribute {
  std::string name;   ///< Qualified name as written ("xsi:type").
  std::string value;  ///< Entity-decoded value.
};

/// Source position of a node (1-based; 0 when synthesized in memory).
struct SourcePos {
  int line = 0;
  int column = 0;
};

class Element;

/// Base of all DOM nodes. Non-element nodes carry their text in `text`.
class Node {
 public:
  explicit Node(NodeKind kind) : kind_(kind) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }

  /// Downcasts; nullptr when the node is not an element.
  Element* as_element();
  const Element* as_element() const;

  /// Text/CData/Comment/PI content; empty for elements.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  Element* parent() const { return parent_; }
  SourcePos pos() const { return pos_; }
  void set_pos(SourcePos pos) { pos_ = pos; }

 private:
  friend class Element;
  NodeKind kind_;
  std::string text_;
  Element* parent_ = nullptr;
  SourcePos pos_;
};

/// Element node: qualified name, attributes, ordered children.
class Element : public Node {
 public:
  explicit Element(std::string name)
      : Node(NodeKind::kElement), name_(std::move(name)) {}

  // --- Name & namespaces -------------------------------------------------

  /// Qualified name as written, e.g. "ocl:Property".
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Local part of the name ("Property" for "ocl:Property").
  std::string_view local_name() const;
  /// Prefix part ("ocl" for "ocl:Property", "" when unprefixed).
  std::string_view prefix() const;

  /// Resolve a namespace prefix to its URI by walking xmlns declarations up
  /// the ancestor chain; "" prefix resolves default xmlns. nullopt if unbound.
  std::optional<std::string> resolve_namespace(std::string_view prefix) const;

  // --- Attributes ---------------------------------------------------------

  const std::vector<Attribute>& attributes() const { return attributes_; }
  /// Value of the attribute with the given qualified name; nullopt if absent.
  std::optional<std::string> attribute(std::string_view name) const;
  /// Value of the attribute, or `fallback` when absent.
  std::string attribute_or(std::string_view name, std::string fallback) const;
  /// Sets (replacing) or appends an attribute.
  void set_attribute(std::string_view name, std::string_view value);
  /// Appends an attribute the caller knows is not set yet (the parser has
  /// already rejected duplicates).
  void append_attribute(std::string_view name, std::string_view value) {
    attributes_.push_back(Attribute{std::string(name), std::string(value)});
  }
  /// Removes an attribute if present; returns whether it existed.
  bool remove_attribute(std::string_view name);

  // --- Children -----------------------------------------------------------

  const std::vector<std::unique_ptr<Node>>& children() const { return children_; }

  /// Appends a child node (takes ownership) and returns a raw pointer to it.
  Node* append(std::unique_ptr<Node> child);
  /// Convenience: append a new child element with the given name.
  Element* append_element(std::string name);
  /// Convenience: append a text node.
  Node* append_text(std::string text);

  /// First child element with the given qualified name (nullptr if none).
  Element* first_child(std::string_view name);
  const Element* first_child(std::string_view name) const;

  /// All child elements; optionally filtered by qualified name.
  std::vector<Element*> child_elements(std::string_view name = {});
  std::vector<const Element*> child_elements(std::string_view name = {}) const;

  /// Concatenated text content of immediate Text/CData children, trimmed.
  std::string text_content() const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// A parsed document: prolog info plus the single root element.
class Document {
 public:
  Document() = default;

  Element* root() { return root_.get(); }
  const Element* root() const { return root_.get(); }
  /// Replaces the root element.
  Element* set_root(std::unique_ptr<Element> root);
  /// Creates and installs a fresh root element with the given name.
  Element* create_root(std::string name);

  const std::string& xml_version() const { return xml_version_; }
  const std::string& encoding() const { return encoding_; }
  void set_declaration(std::string version, std::string encoding) {
    xml_version_ = std::move(version);
    encoding_ = std::move(encoding);
  }

 private:
  std::unique_ptr<Element> root_;
  std::string xml_version_ = "1.0";
  std::string encoding_ = "UTF-8";
};

}  // namespace pdl::xml
