#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/common/table.hpp"

namespace psync {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"k", "eta (%)"});
  t.row().add(1).add(50.0);
  t.row().add(64).add(99.38);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("k"), std::string::npos);
  EXPECT_NE(s.find("99.38"), std::string::npos);
  EXPECT_NE(s.find("50.00"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("--"), std::string::npos);
}

TEST(Table, CellAccessors) {
  Table t({"a", "b"});
  t.row().add("x").add(static_cast<std::int64_t>(-7));
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.at(0, 0), "x");
  EXPECT_EQ(t.at(0, 1), "-7");
}

TEST(Table, TitleAppearsFirst) {
  Table t({"a"});
  t.set_title("Table I");
  t.row().add("v");
  EXPECT_EQ(t.to_string().rfind("Table I", 0), 0u);
}

TEST(Table, IncompleteRowAborts) {
  Table t({"a", "b"});
  t.row().add("only-one");
  EXPECT_DEATH((void)t.to_string(), "incomplete");
}

TEST(FormatHelpers, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 3), "3.142");
}

}  // namespace
}  // namespace psync
