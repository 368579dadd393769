// The solver on asymmetric machines — heterogeneous node sizes, bandwidths
// and link speeds (everything the paper's symmetric examples don't cover,
// but real boxes with populated/unpopulated sockets do exhibit).
#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "topology/machine.hpp"

namespace numashare::model {
namespace {

/// Node 0: 2 cores, 10 GB/s. Node 1: 6 cores, 60 GB/s. Uneven links.
topo::Machine lopsided() {
  auto machine = topo::Machine::symmetric(1, 2, 10.0, 10.0, 0.0, "lopsided");
  machine.add_node(6, 10.0, 60.0);
  machine.set_link_bandwidth(0, 1, 4.0);
  machine.set_link_bandwidth(1, 0, 2.0);
  return machine;
}

TEST(Asymmetric, PerNodeBaselineUsesOwnCoreCount) {
  const auto machine = lopsided();
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.25)};  // wants 40/thread
  Allocation allocation(1, 2);
  allocation.set_threads(0, 0, 2);
  allocation.set_threads(0, 1, 6);
  const auto solution = solve(machine, apps, allocation);
  // Node 0: 2 threads saturate 10 GB/s; node 1: 6 threads saturate 60 GB/s.
  EXPECT_NEAR(solution.nodes[0].baseline_per_core, 10.0 / 2.0, 1e-12);
  EXPECT_NEAR(solution.nodes[1].baseline_per_core, 60.0 / 6.0, 1e-12);
  EXPECT_NEAR(solution.total_gflops, (10.0 + 60.0) * 0.25, 1e-12);
}

TEST(Asymmetric, DirectedLinksDiffer) {
  const auto machine = lopsided();
  const std::vector<AppSpec> into_1{AppSpec::numa_bad("fwd", 1.0, 1)};
  Allocation fwd(1, 2);
  fwd.set_threads(0, 0, 2);  // 2 threads on node 0 reading node 1: link 4
  const auto forward = solve(machine, into_1, fwd);
  EXPECT_NEAR(forward.total_gflops, 4.0, 1e-12);

  const std::vector<AppSpec> into_0{AppSpec::numa_bad("rev", 1.0, 0)};
  Allocation rev(1, 2);
  rev.set_threads(0, 1, 2);  // 2 threads on node 1 reading node 0: link 2
  const auto reverse = solve(machine, into_0, rev);
  EXPECT_NEAR(reverse.total_gflops, 2.0, 1e-12);
}

TEST(Asymmetric, EvenAllocationRespectsNodeSizes) {
  const auto machine = lopsided();
  const auto allocation = Allocation::even(machine, 2);
  EXPECT_EQ(allocation.threads(0, 0), 1u);  // 2 cores / 2 apps
  EXPECT_EQ(allocation.threads(0, 1), 3u);  // 6 cores / 2 apps
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(Asymmetric, UniformEnumerationBoundedBySmallestNode) {
  const auto machine = lopsided();
  // Uniform counts cannot exceed the 2-core node.
  for (const auto& allocation : enumerate_uniform(machine, 2, /*require_full=*/false)) {
    EXPECT_LE(allocation.node_total(0), 2u);
    EXPECT_TRUE(allocation.validate(machine));
  }
}

TEST(Asymmetric, GreedyExploitsTheBigNode) {
  // A memory-hungry app and a compute app: greedy should push the memory
  // app's threads toward the high-bandwidth node.
  const auto machine = lopsided();
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.25),
                                  AppSpec::numa_perfect("cpu", 100.0)};
  Allocation start(2, 2);
  start.set_threads(0, 0, 1);
  start.set_threads(1, 0, 1);
  start.set_threads(0, 1, 3);
  start.set_threads(1, 1, 3);
  const auto result = refine_search(machine, apps, start);
  EXPECT_TRUE(result.allocation.validate(machine));
  const auto baseline = solve(machine, apps, start);
  EXPECT_GE(result.objective_value + 1e-9, baseline.total_gflops);
  // Full machine bandwidth is claimable: the optimum consumes all 70 GB/s
  // with the memory app plus compute threads at peak.
  EXPECT_GT(result.objective_value, 70.0 * 0.25);
}

TEST(Asymmetric, NodeGflopsAccountedByExecutionNode) {
  const auto machine = lopsided();
  const std::vector<AppSpec> apps{AppSpec::numa_bad("bad", 1.0, 1)};
  Allocation allocation(1, 2);
  allocation.set_threads(0, 0, 2);  // executes on node 0, memory on node 1
  const auto solution = solve(machine, apps, allocation);
  EXPECT_NEAR(solution.nodes[0].node_gflops, solution.total_gflops, 1e-12);
  EXPECT_NEAR(solution.nodes[1].node_gflops, 0.0, 1e-12);
  EXPECT_NEAR(solution.nodes[1].remote_granted, 4.0, 1e-12);
}

TEST(Asymmetric, AmdahlCapUsesThreadWeightedPeaks) {
  // Serial-fraction ceiling on a machine whose nodes have different per-core
  // peaks: the cap is the Amdahl speedup times the *thread-weighted mean*
  // peak of the cores the app actually occupies, not the fastest node's peak.
  auto machine = topo::Machine::symmetric(1, 2, 10.0, 1000.0, 0.0, "hetero-peak");
  machine.add_node(2, 20.0, 1000.0);
  machine.set_link_bandwidth(0, 1, 500.0);
  machine.set_link_bandwidth(1, 0, 500.0);
  std::vector<AppSpec> apps{AppSpec::numa_perfect("half-serial", 1000.0)};
  apps[0].serial_fraction = 0.5;
  Allocation allocation(1, 2);
  allocation.set_threads(0, 0, 2);
  allocation.set_threads(0, 1, 2);
  const auto solution = solve(machine, apps, allocation);
  // Amdahl with sigma = 0.5 over 4 threads: 1/(0.5 + 0.5/4) = 1.6 effective
  // threads. Thread-weighted mean peak (2*10 + 2*20)/4 = 15 GFLOPS, so the
  // ceiling is 24. The uncapped compute rate would be 60, and a
  // fastest-node-peak cap would wrongly allow 20 * 1.6 = 32.
  EXPECT_NEAR(solution.total_gflops, 24.0, 1e-9);
}

TEST(Asymmetric, ValidationCatchesPerNodeOversubscription) {
  const auto machine = lopsided();
  Allocation allocation(1, 2);
  allocation.set_threads(0, 0, 3);  // node 0 has only 2 cores
  EXPECT_FALSE(allocation.validate(machine));
}

}  // namespace
}  // namespace numashare::model
