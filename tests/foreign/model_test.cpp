// Opaque foreign consumers in the roofline model and the allocation search:
// bandwidth served off the top, compute timesharing, clamping, streaming /
// brute-force equivalence under foreign load, and the headline behaviors —
// the search steers apps away from a hogged node, and the refine polish
// vacates one (the ISSUE's acceptance scenario).
#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "support/allocation_matrix.hpp"
#include "support/search_reference.hpp"
#include "topology/machine.hpp"

namespace numashare::model {
namespace {

TEST(ForeignModel, AllZeroForeignMatchesBaseline) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5),
                                  AppSpec::numa_perfect("cpu", 10.0)};
  const auto allocation = allocation_from_matrix({{1, 1}, {1, 1}});
  const auto baseline = solve(machine, apps, allocation);

  SolveOptions options;
  options.foreign.busy_cores = {0.0, 0.0};
  options.foreign.bandwidth = {0.0, 0.0};
  const auto with_zeros = solve(machine, apps, allocation, options);
  EXPECT_DOUBLE_EQ(with_zeros.total_gflops, baseline.total_gflops);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    EXPECT_DOUBLE_EQ(with_zeros.app_gflops[a], baseline.app_gflops[a]);
  }
  EXPECT_FALSE(options.foreign.any());
}

TEST(ForeignModel, BandwidthServedOffTheTop) {
  // 1 node x 2 cores, 10 GB/s. Two mem-bound threads demand 2 GB/s each.
  const auto machine = topo::Machine::symmetric(1, 2, 1.0, 10.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5)};
  const auto allocation = allocation_from_matrix({{2}});
  ASSERT_DOUBLE_EQ(solve(machine, apps, allocation).total_gflops, 2.0);

  // A foreign draw of 8 GB/s leaves 2 for the cooperating threads: 1 GB/s
  // each -> 0.5 GFLOPS each.
  SolveOptions options;
  options.foreign.bandwidth = {8.0};
  const auto solution = solve(machine, apps, allocation, options);
  EXPECT_DOUBLE_EQ(solution.nodes[0].foreign_granted, 8.0);
  EXPECT_NEAR(solution.total_gflops, 1.0, 1e-9);
}

TEST(ForeignModel, BusyCoresTimeshareCompute) {
  // Abundant bandwidth, compute-bound app: 2 threads on 2 cores, but one
  // core's worth of foreign compute -> each thread holds half a core.
  const auto machine = topo::Machine::symmetric(1, 2, 1.0, 100.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("cpu", 10.0)};
  const auto allocation = allocation_from_matrix({{2}});
  ASSERT_DOUBLE_EQ(solve(machine, apps, allocation).total_gflops, 2.0);

  SolveOptions options;
  options.foreign.busy_cores = {1.0};
  const auto solution = solve(machine, apps, allocation, options);
  EXPECT_NEAR(solution.total_gflops, 1.0, 1e-9);
}

TEST(ForeignModel, OvercommittedForeignClampsToPhysical) {
  const auto machine = topo::Machine::symmetric(1, 2, 1.0, 10.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5)};
  const auto allocation = allocation_from_matrix({{2}});
  SolveOptions options;
  options.foreign.busy_cores = {99.0};     // > 2 physical cores
  options.foreign.bandwidth = {1e6};       // > 10 GB/s controller
  const auto solution = solve(machine, apps, allocation, options);
  EXPECT_DOUBLE_EQ(solution.nodes[0].foreign_granted, 10.0);  // clamped
  EXPECT_DOUBLE_EQ(solution.total_gflops, 0.0);  // nothing left, not negative
  for (const auto& g : solution.groups) EXPECT_GE(g.per_thread_granted, 0.0);
}

TEST(ForeignModel, ForeignOnlyLowersThroughput) {
  // Admissibility of the search bounds rests on monotonicity: adding
  // foreign load never raises any candidate's score.
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5),
                                  AppSpec::numa_bad("bad", 1.0, 0)};
  for (const auto& allocation :
       {allocation_from_matrix({{1, 1}, {1, 1}}), allocation_from_matrix({{2, 0}, {0, 2}}),
        allocation_from_matrix({{0, 2}, {2, 0}})}) {
    const double blind = solve(machine, apps, allocation).total_gflops;
    SolveOptions options;
    options.foreign.busy_cores = {1.0, 0.5};
    options.foreign.bandwidth = {4.0, 1.0};
    const double aware = solve(machine, apps, allocation, options).total_gflops;
    EXPECT_LE(aware, blind + 1e-9) << allocation.to_string();
  }
}

TEST(ForeignSearch, StreamingMatchesBruteForceUnderForeign) {
  const auto machine = topo::Machine::symmetric(2, 3, 1.0, 10.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5),
                                  AppSpec::numa_perfect("cpu", 8.0),
                                  AppSpec::numa_bad("bad", 1.0, 1)};
  ForeignLoad foreign;
  foreign.busy_cores = {2.0, 0.0};
  foreign.bandwidth = {7.0, 1.0};
  for (const auto objective :
       {Objective::kTotalGflops, Objective::kMinAppGflops, Objective::kProportionalFairness}) {
    const auto fast = exhaustive_search(machine, apps, objective, /*require_full=*/false,
                                        /*min_threads_per_app=*/1, /*caps=*/{}, foreign);
    const auto reference =
        exhaustive_search_reference(machine, apps, objective, /*require_full=*/false,
                                    /*min_threads_per_app=*/1, /*caps=*/{}, foreign);
    EXPECT_NEAR(fast.objective_value, reference.objective_value, 1e-9)
        << to_string(objective);
    EXPECT_EQ(fast.allocation, reference.allocation) << to_string(objective);
    // The foreign-adjusted bounds must stay admissible: the streaming engine
    // may skip candidates but never evaluate more than brute force.
    EXPECT_LE(fast.evaluated, reference.evaluated) << to_string(objective);
  }
}

TEST(ForeignSearch, BandwidthHogSteersMemBoundAppToCleanNode) {
  // 2x2 machine: a foreign consumer drains 8 of node 0's 10 GB/s. A
  // compute-bound and a mem-bound app split the machine; foreign-blind every
  // whole-node assignment ties, foreign-aware the search must uniquely put
  // the mem-bound app on the clean node 1.
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("cpu", 10.0),
                                  AppSpec::numa_perfect("mem", 0.5)};
  ForeignLoad foreign;
  foreign.busy_cores = {0.0, 0.0};
  foreign.bandwidth = {8.0, 0.0};
  const auto result = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                        /*require_full=*/true, /*min_threads_per_app=*/1,
                                        /*caps=*/{}, foreign);
  EXPECT_EQ(result.allocation.threads(1, 0), 0u);  // mem-bound off the hogged node
  EXPECT_EQ(result.allocation.threads(1, 1), 2u);
  EXPECT_EQ(result.allocation.threads(0, 0), 2u);  // compute-bound absorbs it
  EXPECT_NEAR(result.objective_value, 4.0, 1e-9);
}

TEST(ForeignSearch, RefineVacatesHoggedNode) {
  // The ISSUE's acceptance scenario: a foreign hog owns node 0 outright
  // (both cores, the whole controller). Seeded from the symmetric split, the
  // foreign-aware refine must move the cooperating NUMA-bad app's thread off
  // node 0 — its remote flow was draining node 1's controller while the hog
  // kept it from computing anything.
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 4.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("mem", 0.5),
                                  AppSpec::numa_bad("bad", 0.5, 1)};
  const auto seed = allocation_from_matrix({{1, 1}, {1, 1}});

  RefineOptions options;
  options.objective = Objective::kTotalGflops;
  options.min_threads_per_app = 1;
  options.foreign.busy_cores = {2.0, 0.0};
  options.foreign.bandwidth = {4.0, 0.0};

  SolveOptions solve_options;
  solve_options.foreign = options.foreign;
  const double seed_score =
      score(solve(machine, apps, seed, solve_options), options.objective);

  const auto result = refine_search(machine, apps, seed, options);
  EXPECT_EQ(result.allocation.threads(1, 0), 0u) << result.allocation.to_string();
  EXPECT_GE(result.allocation.app_total(1), 1u);  // floor respected
  EXPECT_GT(result.objective_value, seed_score);
  EXPECT_NEAR(result.objective_value, 2.0, 1e-9);
}

TEST(ForeignSearch, EmptyForeignSearchUnchanged) {
  // An explicitly empty ForeignLoad must be byte-for-byte the no-foreign
  // search (the daemon passes monitor.load() unconditionally).
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppSpec> apps{AppSpec::numa_perfect("a", 0.5),
                                  AppSpec::numa_perfect("b", 2.0)};
  const auto blind = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                       /*require_full=*/true, 1);
  const auto aware = exhaustive_search(machine, apps, Objective::kTotalGflops,
                                       /*require_full=*/true, 1, {}, ForeignLoad{});
  EXPECT_EQ(blind.allocation, aware.allocation);
  EXPECT_DOUBLE_EQ(blind.objective_value, aware.objective_value);
  EXPECT_EQ(blind.evaluated, aware.evaluated);
  EXPECT_EQ(blind.pruned, aware.pruned);
}

}  // namespace
}  // namespace numashare::model
