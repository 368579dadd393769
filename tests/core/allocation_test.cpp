#include "core/allocation.hpp"

#include <gtest/gtest.h>

#include "support/allocation_matrix.hpp"
#include "topology/presets.hpp"

namespace numashare::model {
namespace {

TEST(Allocation, UniformPerNode) {
  const auto machine = topo::paper_model_machine();
  const auto a = Allocation::uniform_per_node(machine, {1, 1, 1, 5});
  EXPECT_EQ(a.app_count(), 4u);
  EXPECT_EQ(a.node_count(), 4u);
  EXPECT_EQ(a.threads(3, 2), 5u);
  EXPECT_EQ(a.app_total(3), 20u);
  EXPECT_EQ(a.node_total(0), 8u);
  EXPECT_EQ(a.total(), 32u);
  EXPECT_TRUE(a.validate(machine));
}

TEST(Allocation, EvenDividesCores) {
  const auto machine = topo::paper_model_machine();
  const auto a = Allocation::even(machine, 4);
  for (AppId app = 0; app < 4; ++app) {
    for (topo::NodeId n = 0; n < 4; ++n) EXPECT_EQ(a.threads(app, n), 2u);
  }
}

TEST(Allocation, EvenLeavesRemainderIdle) {
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  const auto a = Allocation::even(machine, 3);  // 8/3 = 2 each, 2 idle
  EXPECT_EQ(a.node_total(0), 6u);
  EXPECT_TRUE(a.validate(machine));
}

TEST(Allocation, NodePerApp) {
  const auto machine = topo::paper_model_machine();
  const auto a = Allocation::node_per_app(machine, {1, 2, 3, 0});
  EXPECT_EQ(a.threads(0, 1), 8u);
  EXPECT_EQ(a.threads(0, 0), 0u);
  EXPECT_EQ(a.threads(3, 0), 8u);
  EXPECT_TRUE(a.validate(machine));
}

TEST(Allocation, ValidateCatchesOversubscription) {
  const auto machine = topo::paper_model_machine();
  auto a = Allocation::uniform_per_node(machine, {2, 2, 2, 2});
  a.set_threads(0, 1, 3);  // node 1 now has 9 threads on 8 cores
  std::string error;
  EXPECT_FALSE(a.validate(machine, &error));
  EXPECT_NE(error.find("oversubscribed"), std::string::npos);
}

TEST(Allocation, ValidateCatchesNodeCountMismatch) {
  const auto machine = topo::paper_model_machine();
  const auto a = allocation_from_matrix({{1, 1}});
  EXPECT_FALSE(a.validate(machine));
}

TEST(Allocation, ToStringReadable) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  const auto a = Allocation::uniform_per_node(machine, {1, 3});
  EXPECT_EQ(a.to_string(), "app0:[1 1] app1:[3 3]");
}

TEST(Allocation, EqualityByContent) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  EXPECT_TRUE(Allocation::uniform_per_node(machine, {1, 3}) ==
              Allocation::uniform_per_node(machine, {1, 3}));
  EXPECT_FALSE(Allocation::uniform_per_node(machine, {1, 3}) ==
               Allocation::uniform_per_node(machine, {3, 1}));
}

}  // namespace
}  // namespace numashare::model
