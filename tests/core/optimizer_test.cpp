#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/paper_scenarios.hpp"
#include "support/search_reference.hpp"
#include "topology/presets.hpp"

namespace numashare::model {
namespace {

TEST(Optimizer, EnumerateUniformCountsCompositions) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  // Full usage: compositions of 4 into 2 non-negative parts = 5.
  EXPECT_EQ(enumerate_uniform(machine, 2, /*require_full=*/true).size(), 5u);
  // Partial usage: sum <= 4 over 2 parts = C(6,2) = 15.
  EXPECT_EQ(enumerate_uniform(machine, 2, /*require_full=*/false).size(), 15u);
}

TEST(Optimizer, EnumerateUniformRespectsSmallestNode) {
  auto machine = topo::Machine::symmetric(1, 4, 1.0, 10.0);
  machine.add_node(2, 1.0, 10.0);  // smaller second node
  const auto allocations = enumerate_uniform(machine, 1, /*require_full=*/true);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].threads(0, 0), 2u);  // bounded by the 2-core node
}

TEST(Optimizer, EnumerateNodePermutations) {
  const auto machine = topo::paper_model_machine();
  EXPECT_EQ(enumerate_node_permutations(machine).size(), 24u);  // 4!
}

TEST(Optimizer, UnconstrainedThroughputDegenerates) {
  // Without a per-app minimum, pure throughput hands everything to the
  // compute-bound app: 8 threads x 10 GFLOPS x 4 nodes = 320.
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto result = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                        /*require_full=*/true);
  EXPECT_NEAR(result.objective_value, 320.0, 1e-9);
  EXPECT_EQ(result.allocation.threads(3, 0), 8u);
  // The branch-and-bound engine covers the same candidate set the brute
  // force materializes (compositions of 8 into 4 parts, plus 4! node
  // permutations) but proves most of it away without a model solve: interior
  // cuts skip whole subtrees before their leaves are even visited.
  const auto reference = exhaustive_search_reference(machine, apps, Objective::kTotalGflops,
                                                     /*require_full=*/true);
  EXPECT_EQ(reference.evaluated, count_candidates(machine, 4, /*require_full=*/true));
  EXPECT_GT(result.evaluated, 0u);
  EXPECT_LE(result.visited, reference.evaluated);
  EXPECT_LT(result.evaluated, reference.evaluated);
  EXPECT_DOUBLE_EQ(result.objective_value, reference.objective_value);
  EXPECT_TRUE(result.allocation == reference.allocation);
}

TEST(Optimizer, ConstrainedSearchFindsPaperBest254) {
  // With every app guaranteed a thread per node (the paper's implicit
  // all-apps-make-progress setting), the optimum is the paper's (1,1,1,5).
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto result = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                        /*require_full=*/true, /*min_threads_per_app=*/1);
  EXPECT_NEAR(result.objective_value, 254.0, 1e-9);
  EXPECT_EQ(result.allocation.threads(3, 0), 5u);
  EXPECT_EQ(result.allocation.threads(0, 0), 1u);
}

TEST(Optimizer, ExhaustiveFindsWholeNodeForNumaBadMix) {
  const auto machine = topo::paper_numabad_machine();
  const auto apps = mixes::three_perfect_one_bad(0);
  const auto result = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                        /*require_full=*/true, /*min_threads_per_app=*/1);
  // Node-per-app with the bad app home: 150 GFLOPS (the paper's winner).
  EXPECT_GE(result.objective_value, 150.0 - 1e-9);
  EXPECT_EQ(result.allocation.threads(3, 0), 8u);  // bad app owns its data node
}

TEST(Optimizer, SingleNodePermutationDeduplicated) {
  // On a single-node machine the node-permutation family collapses onto the
  // whole-machine uniform candidate. The reference engine historically
  // evaluated that allocation twice; the streaming engine skips the repeat.
  const auto machine = topo::Machine::symmetric(1, 6, 10.0, 40.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("solo", 0.5)};
  const auto pruned =
      exhaustive_search(machine, apps, Objective::kTotalGflops, /*require_full=*/true);
  const auto reference = exhaustive_search_reference(machine, apps, Objective::kTotalGflops,
                                                     /*require_full=*/true);
  EXPECT_EQ(reference.evaluated, 2u);  // the uniform candidate and its perm twin
  EXPECT_EQ(pruned.evaluated, 1u);
  EXPECT_EQ(pruned.deduped, 1u);
  EXPECT_DOUBLE_EQ(pruned.objective_value, reference.objective_value);
  EXPECT_TRUE(pruned.allocation == reference.allocation);
}

TEST(Optimizer, CountCandidatesMatchesEnumeration) {
  const auto machine = topo::paper_model_machine();  // 4 nodes x 8 cores
  for (const bool full : {true, false}) {
    for (const std::uint32_t min : {0u, 1u, 2u}) {
      auto expected = enumerate_uniform(machine, 4, full, min).size();
      expected += enumerate_node_permutations(machine).size();  // apps == nodes
      EXPECT_EQ(count_candidates(machine, 4, full, min), expected)
          << "full=" << full << " min=" << min;
    }
  }
  const auto two_node = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  EXPECT_EQ(count_candidates(two_node, 3, true, 0),
            enumerate_uniform(two_node, 3, true, 0).size());  // apps != nodes: no perms
}

TEST(Optimizer, MinThreadsEnforcedInUniformFamily) {
  const auto machine = topo::paper_model_machine();
  for (const auto& a : enumerate_uniform(machine, 4, true, 1)) {
    for (AppId app = 0; app < 4; ++app) EXPECT_GE(a.threads(app, 0), 1u);
  }
}

TEST(OptimizerDeath, InfeasibleMinimumRejected) {
  const auto machine = topo::Machine::symmetric(1, 4, 1.0, 10.0);
  EXPECT_DEATH(enumerate_uniform(machine, 3, true, 2), "infeasible");
}

TEST(Optimizer, ObjectivesDisagree) {
  // Throughput-optimal starves the memory-bound apps relative to the
  // fairness objectives.
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto throughput =
      exhaustive_search(machine, apps, Objective::kTotalGflops, true);
  const auto egalitarian =
      exhaustive_search(machine, apps, Objective::kMinAppGflops, true);
  double throughput_worst = 1e300, egalitarian_worst = 1e300;
  for (auto g : throughput.solution.app_gflops) throughput_worst = std::min(throughput_worst, g);
  for (auto g : egalitarian.solution.app_gflops) {
    egalitarian_worst = std::min(egalitarian_worst, g);
  }
  EXPECT_GT(egalitarian_worst, throughput_worst);
  EXPECT_LE(egalitarian.solution.total_gflops, throughput.solution.total_gflops);
}

TEST(Optimizer, ProportionalFairnessBetweenExtremes) {
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto pf =
      exhaustive_search(machine, apps, Objective::kProportionalFairness, true);
  const auto best_total =
      exhaustive_search(machine, apps, Objective::kTotalGflops, true);
  EXPECT_LE(pf.solution.total_gflops, best_total.solution.total_gflops + 1e-9);
  EXPECT_GT(pf.objective_value, -1e9);
}

TEST(Optimizer, GreedyImprovesOnEvenAllocation) {
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto start = Allocation::uniform_per_node(machine, {2, 2, 2, 2});  // 140
  const auto result = refine_search(machine, apps, start);
  EXPECT_GT(result.objective_value, 140.0);
  EXPECT_TRUE(result.allocation.validate(machine));
}

TEST(Optimizer, GreedyReachesExhaustiveOnFig2Mix) {
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto greedy =
      refine_search(machine, apps, Allocation::uniform_per_node(machine, {2, 2, 2, 2}));
  // 254 is the uniform-family optimum; greedy can move per node independently
  // and must at least match it.
  EXPECT_GE(greedy.objective_value, 254.0 - 1e-9);
}

TEST(Optimizer, GreedyFixedPointAtLocalOptimum) {
  const auto machine = topo::paper_model_machine();
  const auto apps = mixes::three_mem_one_compute();
  const auto first =
      refine_search(machine, apps, Allocation::uniform_per_node(machine, {2, 2, 2, 2}));
  const auto second = refine_search(machine, apps, first.allocation);
  EXPECT_NEAR(second.objective_value, first.objective_value, 1e-12);
  EXPECT_TRUE(second.allocation == first.allocation);
}

TEST(Optimizer, ScoreMinApp) {
  Solution s;
  s.app_gflops = {3.0, 1.0, 2.0};
  s.total_gflops = 6.0;
  EXPECT_DOUBLE_EQ(score(s, Objective::kTotalGflops), 6.0);
  EXPECT_DOUBLE_EQ(score(s, Objective::kMinAppGflops), 1.0);
}

TEST(Optimizer, ImprovesOnlyPastTheMargin) {
  // Relative to the incumbent's magnitude, on either side of zero: a value
  // must clear the margin, not merely a rounding step.
  constexpr double eps = kImprovementMargin;
  for (const double incumbent : {23.2, -41.5}) {
    const double scale = std::abs(incumbent);
    EXPECT_TRUE(improves(incumbent + 2 * eps * scale, incumbent)) << incumbent;
    EXPECT_FALSE(improves(incumbent + eps * scale / 2, incumbent)) << incumbent;
    EXPECT_FALSE(improves(std::nextafter(incumbent, 1e9), incumbent)) << incumbent;
    EXPECT_FALSE(improves(incumbent, incumbent)) << incumbent;
  }
  // At zero the margin is zero: any gain counts.
  EXPECT_TRUE(improves(1e-300, 0.0));
  EXPECT_FALSE(improves(0.0, 0.0));
  // A search's first candidate always takes over from -infinity.
  const double none = -std::numeric_limits<double>::infinity();
  EXPECT_TRUE(improves(-1e300, none));
  EXPECT_FALSE(improves(none, none));
}

TEST(Optimizer, ObjectiveNames) {
  EXPECT_STREQ(to_string(Objective::kTotalGflops), "total-gflops");
  EXPECT_STREQ(to_string(Objective::kMinAppGflops), "min-app-gflops");
  EXPECT_STREQ(to_string(Objective::kProportionalFairness), "proportional-fairness");
}

}  // namespace
}  // namespace numashare::model
