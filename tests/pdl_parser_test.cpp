#include <gtest/gtest.h>

#include "pdl/parser.hpp"
#include "pdl/query.hpp"
#include "pdl/serializer.hpp"
#include "pdl/well_known.hpp"
#include "time_per_byte.hpp"

namespace pdl {
namespace {

// Paper Listing 1: x86 Master with one GPU Worker and an rDMA interconnect.
constexpr const char* kListing1 = R"(<?xml version="1.0"?>
<Master id="0" quantity="1">
  <PUDescriptor>
    <Property fixed="true">
      <name>ARCHITECTURE</name>
      <value>x86</value>
    </Property>
  </PUDescriptor>
  <Worker quantity="1" id="1">
    <PUDescriptor>
      <Property fixed="true">
        <name>ARCHITECTURE</name>
        <value>gpu</value>
      </Property>
    </PUDescriptor>
  </Worker>
  <Interconnect type="rDMA" from="0" to="1" scheme=""/>
</Master>)";

// Paper Listing 2 fragment: extension-typed OpenCL device properties.
constexpr const char* kListing2Worker = R"(
<Platform name="l2" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
          xmlns:ocl="urn:pdl:ext:opencl">
<Master id="0">
 <Worker id="1">
  <PUDescriptor>
    <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
      <ocl:name>DEVICE_NAME</ocl:name>
      <ocl:value>GeForce GTX 480</ocl:value>
    </Property>
    <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
      <ocl:name>MAX_COMPUTE_UNITS</ocl:name>
      <ocl:value>15</ocl:value>
    </Property>
    <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
      <ocl:name>GLOBAL_MEM_SIZE</ocl:name>
      <ocl:value unit="kB">1572864</ocl:value>
    </Property>
    <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
      <ocl:name>LOCAL_MEM_SIZE</ocl:name>
      <ocl:value unit="kB">48</ocl:value>
    </Property>
  </PUDescriptor>
 </Worker>
</Master>
</Platform>)";

TEST(PdlParser, ParsesPaperListing1) {
  Diagnostics diags;
  auto platform = parse_platform(kListing1, diags);
  ASSERT_TRUE(platform.ok()) << platform.error().str();
  EXPECT_FALSE(has_errors(diags));

  const Platform& p = platform.value();
  ASSERT_EQ(p.masters().size(), 1u);
  const ProcessingUnit& master = *p.masters()[0];
  EXPECT_EQ(master.id(), "0");
  EXPECT_EQ(master.quantity(), 1);
  EXPECT_EQ(master.descriptor().get("ARCHITECTURE"), "x86");
  ASSERT_EQ(master.children().size(), 1u);

  const ProcessingUnit& worker = *master.children()[0];
  EXPECT_EQ(worker.kind(), PuKind::kWorker);
  EXPECT_EQ(worker.id(), "1");
  EXPECT_EQ(worker.descriptor().get("ARCHITECTURE"), "gpu");

  ASSERT_EQ(master.interconnects().size(), 1u);
  const Interconnect& ic = master.interconnects()[0];
  EXPECT_EQ(ic.type, "rDMA");
  EXPECT_EQ(ic.from, "0");
  EXPECT_EQ(ic.to, "1");
}

TEST(PdlParser, ParsesPaperListing2ExtensionProperties) {
  Diagnostics diags;
  auto platform = parse_platform(kListing2Worker, diags);
  ASSERT_TRUE(platform.ok()) << platform.error().str();

  const ProcessingUnit* worker = find_pu(platform.value(), "1");
  ASSERT_NE(worker, nullptr);
  const Descriptor& d = worker->descriptor();
  ASSERT_EQ(d.size(), 4u);

  const Property* name = d.find("DEVICE_NAME");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->value, "GeForce GTX 480");
  EXPECT_FALSE(name->fixed);
  EXPECT_EQ(name->xsi_type, "ocl:oclDevicePropertyType");

  const Property* mem = d.find("GLOBAL_MEM_SIZE");
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->unit, "kB");
  EXPECT_EQ(mem->as_bytes(), 1572864LL * 1024);  // exactly 1.5 GB

  // Namespace declarations survive.
  bool found_ocl = false;
  for (const auto& [prefix, uri] : platform.value().namespaces()) {
    if (prefix == "ocl") {
      found_ocl = true;
      EXPECT_EQ(uri, "urn:pdl:ext:opencl");
    }
  }
  EXPECT_TRUE(found_ocl);
}

TEST(PdlParser, ParsesPlatformWrapperWithMultipleMasters) {
  Diagnostics diags;
  auto platform = parse_platform(R"(
    <Platform name="multi" version="1.2">
      <Master id="a"/>
      <Master id="b" quantity="2"/>
    </Platform>)", diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_EQ(platform.value().name(), "multi");
  EXPECT_EQ(platform.value().schema_version(), "1.2");
  EXPECT_EQ(platform.value().masters().size(), 2u);
}

TEST(PdlParser, ParsesLogicGroupAttributeBothForms) {
  Diagnostics diags;
  auto platform = parse_platform(R"(
    <Master id="0">
      <Worker id="w">
        <LogicGroupAttribute group="gpu"/>
        <LogicGroupAttribute>execset01</LogicGroupAttribute>
      </Worker>
    </Master>)", diags);
  ASSERT_TRUE(platform.ok());
  const ProcessingUnit* w = find_pu(platform.value(), "w");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->logic_groups().size(), 2u);
  EXPECT_EQ(w->logic_groups()[0], "gpu");
  EXPECT_EQ(w->logic_groups()[1], "execset01");
}

TEST(PdlParser, ParsesMemoryRegions) {
  Diagnostics diags;
  auto platform = parse_platform(R"(
    <Master id="0">
      <MemoryRegion id="ram">
        <MRDescriptor>
          <Property fixed="true"><name>SIZE</name><value unit="kB">1024</value></Property>
        </MRDescriptor>
      </MemoryRegion>
    </Master>)", diags);
  ASSERT_TRUE(platform.ok());
  const ProcessingUnit& m = *platform.value().masters()[0];
  ASSERT_EQ(m.memory_regions().size(), 1u);
  EXPECT_EQ(m.memory_regions()[0].id, "ram");
  EXPECT_EQ(m.memory_regions()[0].descriptor.find("SIZE")->as_bytes(), 1024 * 1024);
}

TEST(PdlParser, HybridHierarchiesParse) {
  Diagnostics diags;
  auto platform = parse_platform(R"(
    <Master id="0">
      <Hybrid id="h0">
        <Worker id="w0" quantity="4"/>
      </Hybrid>
    </Master>)", diags);
  ASSERT_TRUE(platform.ok());
  const ProcessingUnit* h = find_pu(platform.value(), "h0");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind(), PuKind::kHybrid);
  EXPECT_EQ(h->children().size(), 1u);
}

TEST(PdlParser, ReportsMissingIds) {
  Diagnostics diags;
  auto platform = parse_platform("<Master><Worker id=\"w\"/></Master>", diags);
  ASSERT_TRUE(platform.ok());  // parses, but with diagnostics
  EXPECT_TRUE(has_errors(diags));
}

TEST(PdlParser, ReportsInvalidQuantity) {
  Diagnostics diags;
  auto platform = parse_platform("<Master id=\"0\" quantity=\"zero\"/>", diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_TRUE(has_errors(diags));
}

TEST(PdlParser, ReportsQuantityOverflowAndNonPositive) {
  // quantity is stored as int; values past INT_MAX must be rejected, not
  // silently wrapped into a bogus (possibly negative) device count.
  for (const char* bad : {"9999999999", "4294967296", "0", "-2"}) {
    Diagnostics diags;
    auto platform = parse_platform(
        std::string("<Master id=\"0\" quantity=\"") + bad + "\"/>", diags);
    ASSERT_TRUE(platform.ok()) << bad;
    EXPECT_TRUE(has_errors(diags)) << bad;
  }
  // Large-but-representable quantities are a lint concern (A106), not a
  // parse error.
  Diagnostics diags;
  auto platform = parse_platform("<Master id=\"0\" quantity=\"65535\"/>", diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_FALSE(has_errors(diags));
}

TEST(PdlParser, RejectsNonPdlRoot) {
  Diagnostics diags;
  auto platform = parse_platform("<Banana/>", diags);
  EXPECT_FALSE(platform.ok());
}

TEST(PdlParser, RejectsTopLevelWorkerInPlatform) {
  Diagnostics diags;
  auto platform = parse_platform("<Platform><Worker id=\"w\"/></Platform>", diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_TRUE(has_errors(diags));
}

TEST(PdlParser, WarnsOnUnknownElements) {
  Diagnostics diags;
  auto platform = parse_platform(
      "<Master id=\"0\"><Gadget/></Master>", diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_FALSE(has_errors(diags));
  EXPECT_EQ(count_severity(diags, Severity::kWarning), 1u);
}

TEST(PdlParser, PropertyWithoutNameIsError) {
  Diagnostics diags;
  auto platform = parse_platform(
      "<Master id=\"0\"><PUDescriptor><Property><value>x</value></Property>"
      "</PUDescriptor></Master>",
      diags);
  ASSERT_TRUE(platform.ok());
  EXPECT_TRUE(has_errors(diags));
}

TEST(PdlParser, RoundTripThroughSerializer) {
  Diagnostics diags;
  auto first = parse_platform(kListing1, diags);
  ASSERT_TRUE(first.ok());

  SerializeOptions options;
  options.bare_master_root = true;
  const std::string serialized = serialize(first.value(), options);
  // A bare-master document round-trips to a bare <Master> root.
  EXPECT_NE(serialized.find("<Master"), std::string::npos);

  Diagnostics diags2;
  auto second = parse_platform(serialized, diags2);
  ASSERT_TRUE(second.ok()) << second.error().str();
  EXPECT_FALSE(has_errors(diags2));

  const ProcessingUnit* worker = find_pu(second.value(), "1");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->descriptor().get("ARCHITECTURE"), "gpu");
  ASSERT_EQ(second.value().masters()[0]->interconnects().size(), 1u);
  EXPECT_EQ(second.value().masters()[0]->interconnects()[0].type, "rDMA");
}

TEST(PdlParser, ExtensionRoundTripKeepsTypesUnitsFixedness) {
  Diagnostics diags;
  auto first = parse_platform(kListing2Worker, diags);
  ASSERT_TRUE(first.ok());
  const std::string serialized = serialize(first.value());

  Diagnostics diags2;
  auto second = parse_platform(serialized, diags2);
  ASSERT_TRUE(second.ok()) << second.error().str();
  const ProcessingUnit* w = find_pu(second.value(), "1");
  ASSERT_NE(w, nullptr);
  const Property* mem = w->descriptor().find("GLOBAL_MEM_SIZE");
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->unit, "kB");
  EXPECT_FALSE(mem->fixed);
  EXPECT_EQ(mem->xsi_type, "ocl:oclDevicePropertyType");
}

// name/value children carry the xsi:type prefix only when that makes an
// XML name; otherwise the serialized document would not parse back.
TEST(PdlParser, XsiTypePrefixThatIsNotANameLeavesChildrenUnprefixed) {
  Platform platform;
  Property prop;
  prop.name = "N";
  prop.value = "V";
  prop.xsi_type = "o l:oclDevicePropertyType";
  platform.add_master("0")->descriptor().add(prop);
  const std::string text = serialize(platform);
  EXPECT_NE(text.find("<name>N</name>"), std::string::npos) << text;
  Diagnostics diags;
  auto back = parse_platform(text, diags);
  ASSERT_TRUE(back.ok()) << back.error().str();
  EXPECT_EQ(back.value().masters()[0]->descriptor().find("N")->xsi_type,
            "o l:oclDevicePropertyType");
  EXPECT_EQ(serialize(back.value()), text);
}

TEST(PdlParser, NestingPastTheLimitIsAPositionedError) {
  constexpr int kLevels = 100000;
  std::string text = "<Master id=\"0\">";
  for (int i = 0; i < kLevels; ++i) text += "<Hybrid id=\"h\">";
  for (int i = 0; i < kLevels; ++i) text += "</Hybrid>";
  text += "</Master>";
  Diagnostics diags;
  auto platform = parse_platform(text, diags);
  ASSERT_FALSE(platform.ok());
  EXPECT_EQ(platform.error().message, "elements nested deeper than 1024 levels");
  // The Master plus 1023 Hybrids are open when the 1025th start tag comes.
  EXPECT_EQ(platform.error().where,
            "<memory>:1:" + std::to_string(15 + 1023 * 15 + 1));
  EXPECT_TRUE(diags.empty());
}

TEST(PdlParser, NamespaceDeclarationCountScalesLinearly) {
  const auto platform_with = [](int n) {
    std::string text = "<Platform";
    for (int i = 0; i < n; ++i) {
      text += " xmlns:p" + std::to_string(i) + "=\"urn:" + std::to_string(i) + "\"";
    }
    return text + "><Master id=\"0\"/></Platform>";
  };
  const auto parse_ok = [](const std::string& text) {
    Diagnostics diags;
    auto platform = parse_platform(text, diags);
    ASSERT_TRUE(platform.ok()) << platform.error().str();
  };
  const double small = testing_util::seconds_per_byte(platform_with(10000), parse_ok);
  const double large = testing_util::seconds_per_byte(platform_with(100000), parse_ok);
  // Linear: about 1x; a rescan per declaration would make it about 10x.
  EXPECT_LT(large / small, 3.0);
}

TEST(PdlParser, ParseFileFailsGracefully) {
  Diagnostics diags;
  auto platform = parse_platform_file("/no/such/file.xml", diags);
  EXPECT_FALSE(platform.ok());
}

}  // namespace
}  // namespace pdl
