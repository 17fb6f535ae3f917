#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pdl/schema_export.hpp"
#include "pdl/well_known.hpp"
#include "xml/reader.hpp"

namespace pdl {
namespace {

/// What the tests check of an XSD: how the Reader's walk ended, the root
/// start tag's name and `xmlns:xs`, and the `name` of each complexType and
/// element declared directly under the root.
struct SchemaOutline {
  xml::Token last = xml::Token::kError;
  std::string error;
  std::string root;
  std::string xs_namespace;
  std::vector<std::string> complex_types;
  std::vector<std::string> elements;
};

SchemaOutline outline(const std::string& xsd) {
  SchemaOutline out;
  xml::Reader reader(xsd);
  while ((out.last = reader.next()) != xml::Token::kEnd && out.last != xml::Token::kError) {
    if (out.last != xml::Token::kStartElement) continue;
    const std::string name(reader.attribute("name").value_or(""));
    if (reader.depth() == 1) {
      out.root = reader.name();
      out.xs_namespace = reader.attribute("xmlns:xs").value_or("");
    } else if (reader.depth() == 2 && reader.name() == "xs:complexType") {
      out.complex_types.push_back(name);
    } else if (reader.depth() == 2 && reader.name() == "xs:element") {
      out.elements.push_back(name);
    }
  }
  if (out.last == xml::Token::kError) out.error = reader.error().str();
  return out;
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(SchemaExport, ProducesWellFormedXml) {
  const SchemaOutline xsd = outline(export_xsd(builtin_registry()));
  ASSERT_EQ(xsd.last, xml::Token::kEnd) << xsd.error;
  EXPECT_EQ(xsd.root, "xs:schema");
  EXPECT_EQ(xsd.xs_namespace, "http://www.w3.org/2001/XMLSchema");
}

TEST(SchemaExport, DefinesBaseEntities) {
  const SchemaOutline xsd = outline(export_xsd(builtin_registry()));
  ASSERT_EQ(xsd.last, xml::Token::kEnd) << xsd.error;

  for (const char* type :
       {"PropertyType", "PUDescriptorType", "MRDescriptorType",
        "ICDescriptorType", "MemoryRegionType", "InterconnectType",
        "PUCommonType", "MasterType", "HybridType", "WorkerType"}) {
    EXPECT_TRUE(contains(xsd.complex_types, type)) << type;
  }
  // Both document roots the parser accepts are declared.
  EXPECT_TRUE(contains(xsd.elements, "Master"));
  EXPECT_TRUE(contains(xsd.elements, "Platform"));
}

TEST(SchemaExport, EmitsSubschemaDerivedTypes) {
  const std::string xsd = export_xsd(builtin_registry());
  // Each registered subschema appears as a derived property type with its
  // version and vocabulary documented.
  EXPECT_NE(xsd.find("oclDevicePropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("cudaDevicePropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("cellPUPropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("urn:pdl:ext:opencl"), std::string::npos);
  EXPECT_NE(xsd.find("v1.1"), std::string::npos);  // OpenCL subschema version
  EXPECT_NE(xsd.find("GLOBAL_MEM_SIZE : size (unit required)"), std::string::npos);
  EXPECT_NE(xsd.find("base=\"pdl:PropertyType\""), std::string::npos);
}

TEST(SchemaExport, ReflectsNewlyRegisteredSubschemas) {
  SchemaRegistry registry = SchemaRegistry::with_builtins();
  Subschema fpga;
  fpga.prefix = "fpga";
  fpga.uri = "urn:vendor:fpga";
  fpga.type_name = "fpga:fpgaPropertyType";
  fpga.version_major = 2;
  fpga.version_minor = 3;
  fpga.properties = {{"LUT_COUNT", PropertyValueKind::kInt, false, "logic cells"}};
  registry.register_subschema(fpga);

  const std::string xsd = export_xsd(registry);
  EXPECT_NE(xsd.find("fpgaPropertyType"), std::string::npos);
  EXPECT_NE(xsd.find("v2.3"), std::string::npos);
  EXPECT_NE(xsd.find("LUT_COUNT : int"), std::string::npos);
}

}  // namespace
}  // namespace pdl
