#include "common/config.hpp"

#include <gtest/gtest.h>

namespace numashare {
namespace {

TEST(Config, ParsesKeysSectionsComments) {
  const char* text = R"(
    # a comment
    top = 1
    [machine]
    nodes = 4           ; trailing comment
    bandwidth = 32.5
    name = paper-model
    [apps]
    count = 2
  )";
  std::string error;
  auto config = Config::parse(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->get_int("top"), 1);
  EXPECT_EQ(config->get_int("machine.nodes"), 4);
  EXPECT_DOUBLE_EQ(*config->get_double("machine.bandwidth"), 32.5);
  EXPECT_EQ(*config->get("machine.name"), "paper-model");
  EXPECT_EQ(config->get_int("apps.count"), 2);
  EXPECT_EQ(config->sections().size(), 2u);
}

TEST(Config, MalformedLineReportsLineNumber) {
  std::string error;
  EXPECT_FALSE(Config::parse("good = 1\nbad-line\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(Config, UnterminatedSectionFails) {
  std::string error;
  EXPECT_FALSE(Config::parse("[oops\n", &error).has_value());
}

TEST(Config, TypedGettersRejectGarbage) {
  auto config = Config::parse("x = notanumber\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->get_int("x").has_value());
  EXPECT_FALSE(config->get_double("x").has_value());
}

TEST(Config, Fallbacks) {
  auto config = Config::parse("x = 3\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->get_int_or("x", 7), 3);
  EXPECT_EQ(config->get_int_or("missing", 7), 7);
  EXPECT_DOUBLE_EQ(config->get_double_or("missing", 1.5), 1.5);
  EXPECT_EQ(config->get_or("missing", "d"), "d");
}

TEST(Config, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(Config::load("/nonexistent/path.ini", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace numashare
