// The headline reproduction tests: every GFLOPS figure printed in the paper
// must come out of the analytic solver. See DESIGN.md §3 for the recovered
// machine parameters.
#include <gtest/gtest.h>

#include "core/paper_scenarios.hpp"
#include "core/roofline.hpp"

namespace numashare::model {
namespace {

Solution run(const paper::Scenario& s) { return solve(s.machine, s.apps, s.allocation); }

TEST(PaperNumbers, TableI_UnevenAllocation254) {
  const auto s = paper::table1();
  const auto solution = run(s);
  EXPECT_NEAR(solution.total_gflops, 254.0, 1e-9);
  // Per-app values from the table: memory-bound 4 x 4.5 = 18, compute 200.
  EXPECT_NEAR(solution.app_gflops[0], 18.0, 1e-9);
  EXPECT_NEAR(solution.app_gflops[1], 18.0, 1e-9);
  EXPECT_NEAR(solution.app_gflops[2], 18.0, 1e-9);
  EXPECT_NEAR(solution.app_gflops[3], 200.0, 1e-9);
  // Table I row "total allocated to each thread": 9 GB/s memory, 1 compute.
  EXPECT_NEAR(solution.find_group(0, 0)->per_thread_granted, 9.0, 1e-9);
  EXPECT_NEAR(solution.find_group(3, 0)->per_thread_granted, 1.0, 1e-9);
  // Row "GFLOPS per thread": 4.5 and 10.
  EXPECT_NEAR(solution.find_group(0, 0)->per_thread_gflops, 4.5, 1e-9);
  EXPECT_NEAR(solution.find_group(3, 0)->per_thread_gflops, 10.0, 1e-9);
  // Row "total GFLOPS per node": 63.5.
  EXPECT_NEAR(solution.nodes[0].node_gflops, 63.5, 1e-9);
}

TEST(PaperNumbers, TableII_EvenAllocation140) {
  const auto s = paper::table2();
  const auto solution = run(s);
  EXPECT_NEAR(solution.total_gflops, 140.0, 1e-9);
  EXPECT_NEAR(solution.find_group(0, 0)->per_thread_granted, 5.0, 1e-9);
  EXPECT_NEAR(solution.find_group(0, 0)->per_thread_gflops, 2.5, 1e-9);
  EXPECT_NEAR(solution.nodes[0].node_gflops, 35.0, 1e-9);
  EXPECT_NEAR(solution.app_gflops[3], 80.0, 1e-9);
}

TEST(PaperNumbers, Fig2c_NodePerApp128) {
  const auto s = paper::fig2()[2];
  const auto solution = run(s);
  EXPECT_NEAR(solution.total_gflops, 128.0, 1e-9);
  // "80 for the compute-bound code and 16 for each memory-bound code".
  EXPECT_NEAR(solution.app_gflops[3], 80.0, 1e-9);
  EXPECT_NEAR(solution.app_gflops[0], 16.0, 1e-9);
}

TEST(PaperNumbers, Fig2_OrderingUnevenBeatsEvenBeatsWholeNode) {
  const auto scenarios = paper::fig2();
  ASSERT_EQ(scenarios.size(), 3u);
  const double a = run(scenarios[0]).total_gflops;
  const double b = run(scenarios[1]).total_gflops;
  const double c = run(scenarios[2]).total_gflops;
  EXPECT_GT(a, b);
  EXPECT_GT(b, c);
}

TEST(PaperNumbers, Fig3_EvenAllocation138) {
  const auto s = paper::fig3_even();
  const auto solution = run(s);
  // The paper prints 138; the exact value under its arithmetic is 138.75.
  EXPECT_NEAR(solution.total_gflops, 138.75, 1e-9);
}

TEST(PaperNumbers, Fig3_WholeNode150) {
  const auto s = paper::fig3_node_per_app();
  const auto solution = run(s);
  EXPECT_NEAR(solution.total_gflops, 150.0, 1e-9);
}

TEST(PaperNumbers, Fig3_OrderingFlipsVersusFig2) {
  // The paper's point: with a NUMA-bad app the whole-node allocation wins,
  // the opposite of the NUMA-perfect mix.
  EXPECT_GT(run(paper::fig3_node_per_app()).total_gflops,
            run(paper::fig3_even()).total_gflops);
}

TEST(PaperNumbers, TableIII_ModelColumnExact) {
  const auto rows = paper::table3();
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    const auto solution = run(row);
    EXPECT_NEAR(solution.total_gflops, row.paper_model_gflops, 0.005)
        << row.id << ": " << row.description;
  }
}

TEST(PaperNumbers, TableIII_Row4CrossNodeDetails) {
  const auto rows = paper::table3();
  const auto solution = run(rows[3]);
  // Remote service into node 0: 3 links x 10 GB/s = 30 GB/s.
  EXPECT_NEAR(solution.nodes[0].remote_granted, 30.0, 1e-9);
  // Locals on node 0 fall to the (100-30)/20 = 3.5 GB/s baseline.
  EXPECT_NEAR(solution.nodes[0].baseline_per_core, 3.5, 1e-9);
  const auto* bad_local = solution.find_group(3, 0);
  ASSERT_NE(bad_local, nullptr);
  EXPECT_NEAR(bad_local->per_thread_granted, 3.5, 1e-9);
  // Remote NUMA-bad threads: 10 GB/s per link over 5 threads = 2 GB/s each.
  const auto* bad_remote = solution.find_group(3, 1);
  ASSERT_NE(bad_remote, nullptr);
  EXPECT_TRUE(bad_remote->remote());
  EXPECT_NEAR(bad_remote->per_thread_granted, 2.0, 1e-9);
}

TEST(PaperNumbers, TableIII_Row1IsUncontended) {
  const auto rows = paper::table3();
  const auto solution = run(rows[0]);
  // 23.2 = every one of the 80 threads at the 0.29 GFLOPS peak.
  for (const auto& g : solution.groups) {
    EXPECT_NEAR(g.per_thread_gflops, 0.29, 1e-12);
  }
}

TEST(PaperNumbers, PaperRealValuesRecorded) {
  const auto rows = paper::table3();
  EXPECT_NEAR(rows[0].paper_real_gflops, 22.82, 1e-9);
  EXPECT_NEAR(rows[1].paper_real_gflops, 18.14, 1e-9);
  EXPECT_NEAR(rows[2].paper_real_gflops, 15.28, 1e-9);
  EXPECT_NEAR(rows[3].paper_real_gflops, 13.25, 1e-9);
  EXPECT_NEAR(rows[4].paper_real_gflops, 14.52, 1e-9);
}

}  // namespace
}  // namespace numashare::model
