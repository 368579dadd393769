#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "core/paper_scenarios.hpp"
#include "topology/presets.hpp"

namespace numashare::model {
namespace {

TEST(Placement, NoAdviceForNumaPerfectMixes) {
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto advice =
      advise_placement(machine, apps, Allocation::uniform_per_node(machine, {1, 1, 1, 5}));
  EXPECT_TRUE(advice.empty());
}

TEST(Placement, BadAppOnWrongNodeGetsMoveAdvice) {
  // Whole-node allocation with the bad app on node 1 but its data on node 0:
  // the advisor must recommend moving the data to node 1 (where it runs).
  const auto machine = topo::paper_numabad_machine();
  auto apps = mixes::three_perfect_one_bad(/*bad_home=*/0);
  // apps[3] is the bad app; give it node 1, perfect apps get 0, 2, 3.
  const auto allocation = Allocation::node_per_app(machine, {0, 2, 3, 1});
  const auto advice = advise_placement(machine, apps, allocation);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].app, 3u);
  EXPECT_TRUE(advice[0].move_recommended());
  EXPECT_EQ(advice[0].recommended_home, 1u);
  // Model: wrong-node whole-node = 95 GFLOPS, on-node = 150.
  EXPECT_NEAR(advice[0].current_gflops, 95.0, 1e-9);
  EXPECT_NEAR(advice[0].predicted_gflops, 150.0, 1e-9);
}

TEST(Placement, WellPlacedAppGetsNoMove) {
  const auto machine = topo::paper_numabad_machine();
  const auto apps = mixes::three_perfect_one_bad(0);
  const auto allocation = Allocation::node_per_app(machine, {1, 2, 3, 0});  // 150 case
  const auto advice = advise_placement(machine, apps, allocation);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_FALSE(advice[0].move_recommended());
  EXPECT_DOUBLE_EQ(advice[0].move_seconds, 0.0);
}

TEST(Placement, MoveCostAndPayback) {
  const auto machine = topo::paper_numabad_machine();  // 10 GB/s links
  const auto apps = mixes::three_perfect_one_bad(0);
  const auto allocation = Allocation::node_per_app(machine, {0, 2, 3, 1});
  PlacementOptions options;
  options.data_gb = 20.0;  // 20 GB over a 10 GB/s link = 2 s
  const auto advice = advise_placement(machine, apps, allocation, options);
  ASSERT_EQ(advice.size(), 1u);
  ASSERT_TRUE(advice[0].move_recommended());
  EXPECT_NEAR(advice[0].move_seconds, 2.0, 1e-9);
  // Gain = 150 - 95 = 55 GFLOPS; stall = 2 s x bad-app rate.
  EXPECT_GT(advice[0].payback_seconds, 0.0);
  EXPECT_LT(advice[0].payback_seconds, 5.0);
}

TEST(Placement, NearTieMovesNoData) {
  // Node 1's memory controller is faster than node 0's by `edge`. A
  // memory-bound NUMA-bad app homed on node 0 gains from moving its data
  // there, but a gain inside the improvement margin is a tie, not a move.
  const auto machine_with = [](double edge) {
    topo::Machine machine;
    machine.add_node(2, 1.0, 10.0);
    machine.add_node(2, 1.0, 10.0 * (1.0 + edge));
    machine.set_link_bandwidth(0, 1, 5.0);
    machine.set_link_bandwidth(1, 0, 5.0);
    return machine;
  };
  const std::vector<AppSpec> apps{AppSpec::numa_bad("bad", 0.1, /*home=*/0)};
  const auto near_tie = machine_with(1e-11);
  const auto allocation = Allocation::uniform_per_node(near_tie, {2});
  auto moved = apps;
  moved[0].home_node = 1;
  const double here = solve(near_tie, apps, allocation).total_gflops;
  const double there = solve(near_tie, moved, allocation).total_gflops;
  ASSERT_GT(there, here);  // a real gain ...
  ASSERT_FALSE(improves(there, here));  // ... inside the margin
  const auto advice = advise_placement(near_tie, apps, allocation);
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_FALSE(advice[0].move_recommended());
  EXPECT_EQ(advice[0].predicted_gflops, advice[0].current_gflops);

  // A gain past the margin is advised.
  const auto clear_win = machine_with(1e-3);
  const auto win = advise_placement(clear_win, apps, allocation);
  ASSERT_EQ(win.size(), 1u);
  EXPECT_TRUE(win[0].move_recommended());
  EXPECT_EQ(win[0].recommended_home, 1u);
}

TEST(Placement, JointOptimizationRecoversPaperOptimum) {
  // Start with the bad app's data on node 2 (arbitrary). Threads go where
  // the data is now, so the first decide already lands on the paper's
  // 150-GFLOPS configuration (bad app and its data co-located on one node,
  // whole-node allocation) and suggests no move.
  const auto machine = topo::paper_numabad_machine();
  auto apps = mixes::three_perfect_one_bad(/*bad_home=*/2);
  const auto result = advise_joint(machine, apps);
  EXPECT_NEAR(result.solution.total_gflops, 150.0, 1e-9);
  // Bad app's threads and data are on the same node.
  const auto home = result.apps[3].home_node;
  EXPECT_EQ(result.allocation.threads(3, home), 8u);
  EXPECT_EQ(result.placement_rounds, 1u);
}

TEST(Placement, JointOptimizationIsIdempotent) {
  const auto machine = topo::paper_numabad_machine();
  const auto first = advise_joint(machine, mixes::three_perfect_one_bad(0));
  const auto second = advise_joint(machine, first.apps);
  EXPECT_NEAR(second.solution.total_gflops, first.solution.total_gflops, 1e-9);
}

TEST(Placement, JointHandlesMultipleBadApps) {
  // Two NUMA-bad apps starting on the same home must end up separated: the
  // first decide suggests one move, the second prices both homes and
  // suggests none.
  const auto machine = topo::Machine::symmetric(2, 4, 10.0, 40.0, 5.0);
  std::vector<AppSpec> apps{AppSpec::numa_bad("bad-1", 0.5, 0),
                            AppSpec::numa_bad("bad-2", 0.5, 0)};
  const auto result = advise_joint(machine, apps);
  // Best: each bad app owns the node its data lives on -> fully local.
  EXPECT_NE(result.apps[0].home_node, result.apps[1].home_node);
  // Fully local both: each gets the whole 40 GB/s -> 20 GFLOPS each.
  EXPECT_NEAR(result.solution.total_gflops, 40.0, 1e-9);
  EXPECT_EQ(result.placement_rounds, 2u);
}

TEST(PlacementDeath, MismatchedInputsRejected) {
  const auto machine = topo::paper_numabad_machine();
  const auto apps = mixes::three_perfect_one_bad(0);
  EXPECT_DEATH(
      advise_placement(machine, apps, Allocation::uniform_per_node(machine, {1, 1})),
      "index-match");
}

}  // namespace
}  // namespace numashare::model
