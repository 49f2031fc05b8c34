#include "psync/common/config.hpp"

#include <gtest/gtest.h>

#include "psync/common/check.hpp"

namespace psync {
namespace {

const char* kSample = R"(
# top comment
[experiment]
kind = fft2d    ; inline comment

[machine]
processors = 16
waveguide_gbps = 320.5
verify = true
hex = 0x20
)";

TEST(IniConfig, ParsesSectionsAndKeys) {
  const auto cfg = IniConfig::parse(kSample);
  EXPECT_TRUE(cfg.has_section("experiment"));
  EXPECT_TRUE(cfg.get("machine", "processors").has_value());
  EXPECT_FALSE(cfg.get("machine", "missing").has_value());
  EXPECT_EQ(cfg.sections(), (std::vector<std::string>{"experiment", "machine"}));
  EXPECT_EQ(cfg.keys("machine").size(), 4u);
}

TEST(IniConfig, TypedAccessors) {
  const auto cfg = IniConfig::parse(kSample);
  EXPECT_EQ(cfg.get_string("experiment", "kind", "?"), "fft2d");
  EXPECT_EQ(parse_int(*cfg.get("machine", "processors")), 16);
  EXPECT_EQ(parse_int(*cfg.get("machine", "hex")), 32);  // base 0 parsing
  EXPECT_DOUBLE_EQ(*parse_double(*cfg.get("machine", "waveguide_gbps")),
                   320.5);
  EXPECT_TRUE(cfg.get_bool("machine", "verify", false));
}

TEST(IniConfig, FallbacksWhenMissing) {
  const auto cfg = IniConfig::parse(kSample);
  EXPECT_TRUE(cfg.get_bool("machine", "nope", true));
  EXPECT_EQ(cfg.get_string("nosection", "k", "dflt"), "dflt");
  EXPECT_FALSE(cfg.get("nosection", "k").has_value());
}

TEST(IniConfig, BooleanSpellings) {
  const auto cfg = IniConfig::parse(
      "[b]\na = yes\nb = OFF\nc = 1\nd = False\n");
  EXPECT_TRUE(cfg.get_bool("b", "a", false));
  EXPECT_FALSE(cfg.get_bool("b", "b", true));
  EXPECT_TRUE(cfg.get_bool("b", "c", false));
  EXPECT_FALSE(cfg.get_bool("b", "d", true));
}

TEST(IniConfig, MalformedInputsRejectedWithLineNumbers) {
  EXPECT_THROW((void)IniConfig::parse("[unclosed\nk = v\n"), SimulationError);
  EXPECT_THROW((void)IniConfig::parse("key_outside = 1\n"), SimulationError);
  EXPECT_THROW((void)IniConfig::parse("[s]\nnot a pair\n"), SimulationError);
  EXPECT_THROW((void)IniConfig::parse("[s]\n= novalue\n"), SimulationError);
  EXPECT_THROW((void)IniConfig::parse("[s]\nk = 1\nk = 2\n"), SimulationError);
}

TEST(IniConfig, TypeErrorsAreLoud) {
  const auto cfg = IniConfig::parse("[s]\nn = 12abc\nf = x.y\nb = maybe\n");
  EXPECT_FALSE(parse_int(*cfg.get("s", "n")).has_value());
  EXPECT_FALSE(parse_double(*cfg.get("s", "f")).has_value());
  EXPECT_THROW((void)cfg.get_bool("s", "b", false), SimulationError);
}

TEST(ParseDecimal, DigitsOnlyOverTheFullU64Range) {
  EXPECT_EQ(parse_decimal("0"), 0u);
  EXPECT_EQ(parse_decimal("42"), 42u);
  EXPECT_EQ(parse_decimal("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "18446744073709551616", "99999999999999999999", "-1", "+1", " 1",
        "1 ", "0x10", "007", "1e3", "1.0", "\xd9\xa1"}) {
    EXPECT_FALSE(parse_decimal(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseDecimal, TakeStopsAtTheDigitRunAndLeavesTheCursorOnFailure) {
  const std::string text = "123 rest";
  const char* p = text.data();
  EXPECT_EQ(take_decimal(&p, text.data() + text.size()), 123u);
  EXPECT_EQ(std::string(p), " rest");
  EXPECT_FALSE(take_decimal(&p, text.data() + text.size()).has_value());
  EXPECT_EQ(std::string(p), " rest");
  const std::string bounded = "4567";
  p = bounded.data();
  EXPECT_EQ(take_decimal(&p, bounded.data() + 2), 45u);  // `end` is a wall
}

TEST(IniConfig, LoadMissingFileThrows) {
  EXPECT_THROW((void)IniConfig::load("/no/such/file.ini"), SimulationError);
}

TEST(IniConfig, EmptyAndCommentOnlyInputs) {
  const auto cfg = IniConfig::parse("# nothing\n\n; also nothing\n");
  EXPECT_TRUE(cfg.sections().empty());
}

ConfigSchema tiny_schema() {
  ConfigSchema s;
  s.key("machine", "processors", ConfigSchema::Type::kInt)
      .key("machine", "waveguide_gbps", ConfigSchema::Type::kDouble)
      .key("machine", "verify", ConfigSchema::Type::kBool)
      .key("sweep", "values", ConfigSchema::Type::kDoubleList)
      .key("fault", "seed", ConfigSchema::Type::kInt);
  return s;
}

TEST(ConfigSchema, CleanConfigHasNoDiagnostics) {
  const auto cfg = IniConfig::parse(
      "[machine]\nprocessors = 16\nwaveguide_gbps = 320.5\nverify = yes\n"
      "[sweep]\nvalues = 1 2.5 4\n[fault]\n");
  EXPECT_TRUE(tiny_schema().validate(cfg).empty());
}

TEST(ConfigSchema, UnknownSectionSuggestsNearestName) {
  const auto cfg = IniConfig::parse("[machin]\nprocessors = 16\n");
  const auto diags = tiny_schema().validate(cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, ConfigDiagnostic::Kind::kUnknownSection);
  EXPECT_EQ(diags[0].section, "machin");
  EXPECT_NE(diags[0].to_string().find("did you mean [machine]"),
            std::string::npos);
}

TEST(ConfigSchema, UnknownKeySuggestsNearestName) {
  const auto cfg = IniConfig::parse("[machine]\nproccessors = 16\n");
  const auto diags = tiny_schema().validate(cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, ConfigDiagnostic::Kind::kUnknownKey);
  EXPECT_EQ(diags[0].key, "proccessors");
  EXPECT_NE(diags[0].to_string().find("did you mean 'processors'"),
            std::string::npos);
}

TEST(ConfigSchema, TypeMismatchesReported) {
  const auto cfg = IniConfig::parse(
      "[machine]\nprocessors = sixteen\nwaveguide_gbps = fast\n"
      "verify = maybe\n[sweep]\nvalues = 1 two 3\n");
  const auto diags = tiny_schema().validate(cfg);
  ASSERT_EQ(diags.size(), 4u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.kind, ConfigDiagnostic::Kind::kBadValue);
    EXPECT_NE(d.to_string().find("expected"), std::string::npos);
  }
}

TEST(ConfigSchema, FarFetchedNamesGetNoSuggestion) {
  const auto cfg = IniConfig::parse("[zzzzqqqq]\nk = 1\n");
  const auto diags = tiny_schema().validate(cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].to_string().find("did you mean"), std::string::npos);
}

TEST(ConfigSchema, ValidatesMultipleProblemsInOrder) {
  const auto cfg = IniConfig::parse(
      "[machine]\nproccessors = 16\nprocessors = ok\n[bogus]\nx = 1\n");
  const auto diags = tiny_schema().validate(cfg);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].kind, ConfigDiagnostic::Kind::kUnknownKey);
  EXPECT_EQ(diags[1].kind, ConfigDiagnostic::Kind::kBadValue);
  EXPECT_EQ(diags[2].kind, ConfigDiagnostic::Kind::kUnknownSection);
}

}  // namespace
}  // namespace psync
