#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace numashare {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // the classic textbook example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  for (int i = 0; i < 50; ++i) e.add(4.0);
  EXPECT_NEAR(e.value(), 4.0, 1e-9);
}

TEST(Ewma, ResetClears) {
  Ewma e(0.2);
  e.add(5.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
  e.add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

}  // namespace
}  // namespace numashare
