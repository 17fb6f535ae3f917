#include "xml/dom.hpp"

#include "util/string_util.hpp"

namespace pdl::xml {

Element* Node::as_element() {
  return is_element() ? static_cast<Element*>(this) : nullptr;
}

const Element* Node::as_element() const {
  return is_element() ? static_cast<const Element*>(this) : nullptr;
}

std::string_view Element::local_name() const {
  const auto pos = name_.find(':');
  if (pos == std::string::npos) return name_;
  return std::string_view(name_).substr(pos + 1);
}

std::string_view Element::prefix() const {
  const auto pos = name_.find(':');
  if (pos == std::string::npos) return {};
  return std::string_view(name_).substr(0, pos);
}

std::optional<std::string> Element::resolve_namespace(std::string_view prefix) const {
  const std::string attr_name =
      prefix.empty() ? std::string("xmlns") : "xmlns:" + std::string(prefix);
  for (const Element* e = this; e != nullptr; e = e->parent()) {
    if (auto v = e->attribute(attr_name)) return v;
  }
  // The xml prefix is implicitly bound per the XML namespaces spec.
  if (prefix == "xml") return std::string("http://www.w3.org/XML/1998/namespace");
  return std::nullopt;
}

std::optional<std::string> Element::attribute(std::string_view name) const {
  for (const auto& a : attributes_) {
    if (a.name == name) return a.value;
  }
  return std::nullopt;
}

std::string Element::attribute_or(std::string_view name, std::string fallback) const {
  auto v = attribute(name);
  return v ? *v : std::move(fallback);
}

void Element::set_attribute(std::string_view name, std::string_view value) {
  for (auto& a : attributes_) {
    if (a.name == name) {
      a.value = std::string(value);
      return;
    }
  }
  append_attribute(name, value);
}

bool Element::remove_attribute(std::string_view name) {
  for (auto it = attributes_.begin(); it != attributes_.end(); ++it) {
    if (it->name == name) {
      attributes_.erase(it);
      return true;
    }
  }
  return false;
}

Node* Element::append(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Element* Element::append_element(std::string name) {
  auto child = std::make_unique<Element>(std::move(name));
  Element* raw = child.get();
  append(std::move(child));
  return raw;
}

Node* Element::append_text(std::string text) {
  auto child = std::make_unique<Node>(NodeKind::kText);
  child->set_text(std::move(text));
  return append(std::move(child));
}

Element* Element::first_child(std::string_view name) {
  for (auto& c : children_) {
    if (auto* e = c->as_element(); e != nullptr && e->name() == name) return e;
  }
  return nullptr;
}

const Element* Element::first_child(std::string_view name) const {
  return const_cast<Element*>(this)->first_child(name);
}

std::vector<Element*> Element::child_elements(std::string_view name) {
  std::vector<Element*> out;
  for (auto& c : children_) {
    if (auto* e = c->as_element(); e != nullptr && (name.empty() || e->name() == name)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<const Element*> Element::child_elements(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (const auto* e = c->as_element(); e != nullptr && (name.empty() || e->name() == name)) {
      out.push_back(e);
    }
  }
  return out;
}

std::string Element::text_content() const {
  std::string out;
  for (const auto& c : children_) {
    if (c->kind() == NodeKind::kText || c->kind() == NodeKind::kCData) {
      out += c->text();
    }
  }
  return std::string(util::trim(out));
}

Element* Document::set_root(std::unique_ptr<Element> root) {
  root_ = std::move(root);
  return root_.get();
}

Element* Document::create_root(std::string name) {
  return set_root(std::make_unique<Element>(std::move(name)));
}

}  // namespace pdl::xml
