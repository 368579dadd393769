#include "common/table.hpp"

#include <gtest/gtest.h>

namespace numashare {
namespace {

TEST(TextTable, RendersAlignedCells) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |  22.5 |"), std::string::npos);
}

TEST(TextTable, SeparatorAddsRule) {
  TextTable t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + top + separator + bottom = 4 rules
  std::size_t rules = 0;
  std::size_t pos = 0;
  while ((pos = out.find("+---", pos)) != std::string::npos) {
    ++rules;
    pos += 1;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TextTable, WideCellGrowsColumn) {
  TextTable t({"h"});
  t.add_row({"a-much-wider-cell"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a-much-wider-cell |"), std::string::npos);
  EXPECT_NE(out.find("| h                 |"), std::string::npos);
}

TEST(TextTableDeath, RowWidthMismatchAborts) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

}  // namespace
}  // namespace numashare
