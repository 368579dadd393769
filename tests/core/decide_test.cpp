// model::decide, the one decision every caller runs: its solve budget, its
// quality against the fixed-home exact search and against the exact
// Option-3 optimum, and the separable problems on which it skips the climb.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "core/placement.hpp"
#include "support/search_reference.hpp"
#include "topology/presets.hpp"

namespace numashare::model {
namespace {

/// The 4x20 Skylake preset's twelve apps in the order join_churn reaches
/// (NodeClassSearch.JoinChurnOrder's AIs), every third app from `offset`
/// NUMA-bad with its data on node 0.
std::vector<AppSpec> churn_mixed(std::uint32_t offset) {
  const double ais[] = {1.0 / 32, 1.0 / 8,  1.0,      1.0 / 64, 1.0 / 8,  1.0 / 32,
                        1.0 / 2,  1.0 / 32, 1.0 / 16, 1.0 / 8,  1.0 / 64, 1.0 / 16};
  std::vector<AppSpec> apps;
  for (std::uint32_t a = 0; a < 12; ++a) {
    apps.push_back(a % 3 == offset ? AppSpec::numa_bad("bad", ais[a], 0)
                                   : AppSpec::numa_perfect("perfect", ais[a]));
  }
  return apps;
}

std::uint64_t solves(const SearchResult& result) {
  return result.evaluated + result.bound_solves;
}

TEST(Decide, MixedShapeStaysWithinBudgetAndBeatsFixedHomes) {
  const auto machine = topo::paper_skylake_machine();
  for (const std::uint32_t offset : {0u, 1u}) {
    SCOPED_TRACE(offset);
    const auto apps = churn_mixed(offset);
    const auto decision = decide(machine, apps, Objective::kTotalGflops, 1);
    EXPECT_TRUE(decision.exact_seed);
    EXPECT_FALSE(decision.search.truncated);
    EXPECT_LE(solves(decision.search), kMaxSearchSolves);
    const auto fixed = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                         /*require_full=*/true, 1);
    EXPECT_GE(decision.search.solution.total_gflops, fixed.solution.total_gflops);
  }
}

TEST(Decide, JointLoopReachesTheComputePeakOnMixedShapes) {
  // Applying each suggested move and deciding again reaches the preset's
  // compute peak, 4 x 20 x 0.29 = 23.2 GFLOPS, within one budget per round.
  const auto machine = topo::paper_skylake_machine();
  for (const std::uint32_t offset : {0u, 1u, 2u}) {
    SCOPED_TRACE(offset);
    const auto joint = advise_joint(machine, churn_mixed(offset));
    EXPECT_NEAR(joint.solution.total_gflops, 23.2, 1e-9);
    EXPECT_LE(joint.evaluated + joint.bound_solves,
              std::uint64_t{joint.placement_rounds} * kMaxSearchSolves);
  }
}

TEST(Decide, BudgetTruncatesTheSeed) {
  // Six apps on 2x30 have 118 755 uniform candidates, under the budget, but
  // with a foreign hog on node 0 the exact search alone would spend more
  // solves than the budget. The decision stops there and says so.
  const auto machine = topo::Machine::symmetric(2, 30, 10.0, 32.0, 10.0);
  std::vector<AppSpec> apps;
  for (std::uint32_t a = 0; a < 6; ++a) {
    const double ai = 0.1 * static_cast<double>(1u << a);
    apps.push_back(a % 3 == 2 ? AppSpec::numa_bad("bad", ai, 0)
                              : AppSpec::numa_perfect("perfect", ai));
    if (a % 4 == 1) apps.back().serial_fraction = 0.15;
  }
  ForeignLoad foreign;
  foreign.busy_cores = {28.0, 0.0};
  ASSERT_LE(count_candidates(machine, 6, /*require_full=*/true, 1), kMaxSearchSolves);
  const auto unbounded = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                           /*require_full=*/true, 1, {}, foreign);
  ASSERT_GT(solves(unbounded), kMaxSearchSolves);

  const auto decision = decide(machine, apps, Objective::kTotalGflops, 1, {}, foreign);
  EXPECT_TRUE(decision.exact_seed);
  EXPECT_TRUE(decision.search.truncated);
  EXPECT_LE(solves(decision.search), kMaxSearchSolves);
  std::string error;
  EXPECT_TRUE(decision.search.allocation.validate(machine, &error)) << error;
  for (AppId a = 0; a < apps.size(); ++a) {
    EXPECT_GE(decision.search.allocation.app_total(a), 1u) << "app " << a;
  }
}

TEST(Decide, SeparableUniformWinnerIsNTimesOneNode) {
  // On a separable problem (symmetric machine, NUMA-perfect apps, no serial
  // fraction, caps or foreign load, total GFLOPS) every node is the same
  // independent one-node problem under the per-node floor, so the uniform
  // winner scores N times the one-node optimum (docs/MODEL.md §7
  // "Separable problems") and decide() returns it without a climb. With
  // apps == nodes the whole-node permutations are extra candidates outside
  // the per-node floor, so there the winner may only score higher.
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    const auto nodes = 2 + static_cast<std::uint32_t>(rng.uniform_u64(3));
    const auto cores = 2 + static_cast<std::uint32_t>(rng.uniform_u64(9));
    const double peak = rng.uniform(0.25, 16.0);
    const double bandwidth = rng.uniform(4.0, 150.0);
    const double link = rng.uniform(0.5, 40.0);
    const auto machine = topo::Machine::symmetric(nodes, cores, peak, bandwidth, link);
    const auto one_node = topo::Machine::symmetric(1, cores, peak, bandwidth, link);
    const auto apps_n = 1 + static_cast<std::uint32_t>(rng.uniform_u64(5));
    std::vector<AppSpec> apps;
    for (std::uint32_t a = 0; a < apps_n; ++a) {
      apps.push_back(AppSpec::numa_perfect("app", std::exp2(rng.uniform(-6.0, 2.0))));
    }
    const auto floor = static_cast<std::uint32_t>(rng.uniform_u64(2));

    const auto winner =
        exhaustive_search(machine, apps, Objective::kTotalGflops, /*require_full=*/true, floor);
    const auto single =
        exhaustive_search(one_node, apps, Objective::kTotalGflops, /*require_full=*/true, floor);
    const double replicated = nodes * single.objective_value;
    if (apps_n == nodes) {
      EXPECT_GE(winner.objective_value, replicated * (1.0 - 1e-12));
    } else {
      EXPECT_NEAR(winner.objective_value, replicated, 1e-12 * replicated);
    }
    const auto decision = decide(machine, apps, Objective::kTotalGflops, floor);
    EXPECT_EQ(decision.search.allocation, winner.allocation);
    EXPECT_EQ(decision.search.evaluated, winner.evaluated);
  }
}

TEST(Decide, ClimbStaysWithinItsGapOfTheExactOptimum) {
  // Every per-node thread count of every app, under the same total floor
  // the climb keeps, on mixed shapes small enough to enumerate: 2 nodes x 4
  // cores x 3 apps (1 225 allocations) and 3 x 4 x 2 (3 375). NUMA-bad homes
  // and serial fractions make the problems non-separable, so the climb runs.
  // decide() can never beat the oracle. The gates are what was measured
  // over these 80 problems (docs/MODEL.md §7): 68 solved exactly, the rest
  // within 3.4% but one, where the single-thread climb stops 38.7% short.
  struct Shape {
    std::uint32_t nodes, cores, apps;
  };
  double worst_gap = 0.0;
  int exact = 0;
  for (const Shape shape : {Shape{2, 4, 3}, Shape{3, 4, 2}}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      SCOPED_TRACE(testing::Message() << shape.nodes << "x" << shape.cores << "x"
                                      << shape.apps << " seed " << seed);
      Xoshiro256 rng(seed);
      const double peak = rng.uniform(0.25, 16.0);
      const double bandwidth = rng.uniform(4.0, 150.0);
      const double link = rng.uniform(0.5, 40.0);
      const auto machine =
          topo::Machine::symmetric(shape.nodes, shape.cores, peak, bandwidth, link);
      std::vector<AppSpec> apps;
      for (std::uint32_t a = 0; a < shape.apps; ++a) {
        const double ai = std::exp2(rng.uniform(-6.0, 2.0));
        // App 0 is always NUMA-bad, so no problem is separable.
        if (a == 0 || rng.uniform_u64(2) == 0) {
          const auto home = static_cast<topo::NodeId>(rng.uniform_u64(shape.nodes));
          apps.push_back(AppSpec::numa_bad("bad", ai, home));
        } else {
          apps.push_back(AppSpec::numa_perfect("perfect", ai));
        }
        if (rng.uniform_u64(2) == 0) apps.back().serial_fraction = rng.uniform(0.05, 0.5);
      }
      const auto decision = decide(machine, apps, Objective::kTotalGflops, 1);
      const auto oracle =
          exact_allocation_reference(machine, apps, Objective::kTotalGflops, 1);
      const double decided = decision.search.objective_value;
      EXPECT_LE(decided, oracle.objective_value * (1.0 + 1e-12));
      const double gap = 1.0 - decided / oracle.objective_value;
      worst_gap = std::max(worst_gap, gap);
      if (gap < 1e-9) ++exact;
    }
  }
  EXPECT_GE(exact, 68);
  EXPECT_LE(worst_gap, 0.388);
}

}  // namespace
}  // namespace numashare::model
