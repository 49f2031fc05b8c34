// common/json: the one JSON reader and escaper under the journal codec,
// the serve protocol and the bench report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "psync/common/json.hpp"

namespace psync::json {
namespace {

bool read_string(const std::string& text, std::string* out) {
  Cursor c(text);
  return c.read_string(out) && c.at_end();
}

TEST(Json, EveryEscapeDecodes) {
  std::string out;
  ASSERT_TRUE(read_string(
      R"( "q\"b\\s\/b\bf\fn\nr\rt\t\u0041\u0041e\u00e9eu\u20ac" )",
      &out));
  EXPECT_EQ(out,
            "q\"b\\s/b\bf\fn\nr\rt\tAAe\xC3\xA9"
            "eu\xE2\x82\xAC");
  ASSERT_TRUE(read_string("\"raw\x01\x7f\xff\"", &out));
  EXPECT_EQ(out, "raw\x01\x7f\xff");
}

TEST(Json, MalformedStringsAreRejected) {
  for (const char* bad : {
           R"("\u00g1")",  // bad hex digit
           R"("\u12")",    // short \u
           R"("\u12)",
           R"("\q")",      // unknown escape
           R"("abc)",      // unterminated
           R"("abc\)",     // escape cut off
           "abc",          // not a string
           "",
       }) {
    std::string out;
    EXPECT_FALSE(read_string(bad, &out)) << bad;
  }
}

TEST(Json, EscapeThenReadIsTheIdentityForEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string escaped = escape(one);
    for (const char ch : escaped) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "byte " << b;
    }
    std::string back;
    ASSERT_TRUE(read_string('"' + escaped + '"', &back)) << "byte " << b;
    EXPECT_EQ(back, one) << "byte " << b;
    all += one;
  }
  std::string back;
  ASSERT_TRUE(read_string('"' + escape(all) + '"', &back));
  EXPECT_EQ(back, all);
  EXPECT_EQ(escape("a\"b\\c\nd\re\tf\x01"), "a\\\"b\\\\c\\nd\\re\\tf\\u0001");
}

TEST(Json, U64IsStrictDecimal) {
  std::uint64_t v = 0;
  const std::string max_text = " 18446744073709551615,";
  Cursor max(max_text);
  ASSERT_TRUE(max.read_u64(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(max.expect(','));
  for (const std::string bad :
       {"18446744073709551616", "01", "-1", "+1", "", "x", "\"1\""}) {
    Cursor c(bad);
    EXPECT_FALSE(c.read_u64(&v)) << bad;
  }
  const std::string zero_text = "0";
  Cursor zero(zero_text);
  ASSERT_TRUE(zero.read_u64(&v));
  EXPECT_EQ(v, 0u);
}

TEST(Json, DoublesReadThroughStrtod) {
  double v = 0.0;
  const std::string text = " -1.25e3]";
  Cursor c(text);
  ASSERT_TRUE(c.read_double(&v));
  EXPECT_EQ(v, -1250.0);
  EXPECT_TRUE(c.expect(']'));
  const std::string bad_text = "x";
  Cursor bad(bad_text);
  EXPECT_FALSE(bad.read_double(&v));
}

TEST(Json, BoolsAreTheTwoLiterals) {
  for (const std::string text : {"true", " false"}) {
    bool v = text == "true" ? false : true;
    Cursor c(text);
    ASSERT_TRUE(c.read_bool(&v)) << text;
    EXPECT_EQ(v, text == "true");
    EXPECT_TRUE(c.at_end());
  }
  for (const std::string bad : {"t", "tru", "fals", "True", "1", ""}) {
    bool v = false;
    Cursor c(bad);
    EXPECT_FALSE(c.read_bool(&v)) << bad;
  }
}

TEST(Json, CaptureTakesNestedValuesWhole) {
  const std::string nested = R"({"a":["}","]",{"b":"\"}]"}],"c":{}})";
  const std::string line = " " + nested + " ,\"x\":7}";
  Cursor c(line);
  std::string out;
  ASSERT_TRUE(c.capture(&out));
  EXPECT_EQ(out, nested);
  EXPECT_TRUE(c.expect(','));

  const std::string string_text = R"("x\"y",)";
  Cursor s(string_text);
  ASSERT_TRUE(s.capture(&out));
  EXPECT_EQ(out, R"("x\"y")");

  const std::string scalar_text = "-12.5e3}";
  Cursor scalar(scalar_text);
  ASSERT_TRUE(scalar.capture(&out));
  EXPECT_EQ(out, "-12.5e3");
  EXPECT_TRUE(scalar.expect('}'));

  const std::string skipped_text = "[1,[2]] ";
  Cursor skipped(skipped_text);
  EXPECT_TRUE(skipped.capture(nullptr));
  EXPECT_TRUE(skipped.at_end());
}

TEST(Json, CaptureRejectsTruncatedAndEmptyValues) {
  const std::string nested = R"({"a":["}","]",{"b":"\"}]"}]})";
  for (std::size_t len = 0; len < nested.size(); ++len) {
    const std::string prefix = nested.substr(0, len);
    Cursor c(prefix);
    std::string out;
    EXPECT_FALSE(c.capture(&out)) << prefix;
  }
  for (const std::string bad : {"", " ", ",", "}", R"("open)"}) {
    Cursor c(bad);
    EXPECT_FALSE(c.capture(nullptr)) << bad;
  }
}

}  // namespace
}  // namespace psync::json
