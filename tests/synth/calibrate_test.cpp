#include "synth/calibrate.hpp"

#include <gtest/gtest.h>

#include "core/paper_scenarios.hpp"
#include "core/roofline.hpp"
#include "sim/simulator.hpp"

namespace numashare::synth {
namespace {

EvenScenarioMeasurement paper_even_measurement() {
  // Table III row 2: the case the paper calibrated from. Per the model:
  // memory apps get 12.32 GFLOPS total, compute app 5.8.
  EvenScenarioMeasurement m;
  m.nodes = 4;
  m.cores_per_node = 20;
  m.mem_instances = 3;
  m.mem_threads_per_node = 5;
  m.mem_ai = 1.0 / 32.0;
  m.mem_total_gflops = 18.1188 - 5.8;
  m.compute_threads_per_node = 5;
  m.compute_ai = 1.0;
  m.compute_total_gflops = 5.8;
  return m;
}

TEST(Calibrate, RecoversPaperParameters) {
  // The inversion must land on the paper's published estimates: "consistent
  // with 100GB/s memory bandwidth and 0.29 peak GFLOPS per thread".
  std::string error;
  const auto c = calibrate_even_scenario(paper_even_measurement(), &error);
  ASSERT_TRUE(c.has_value()) << error;
  EXPECT_NEAR(c->peak_gflops_per_thread, 0.29, 1e-6);
  EXPECT_NEAR(c->node_bandwidth, 100.0, 0.05);
}

TEST(Calibrate, RoundTripsThroughSimulator) {
  // Full methodology check: measure the even scenario on the (effect-free)
  // simulator, calibrate, and verify the calibrated machine matches the one
  // the simulator actually ran.
  const auto scenario = model::paper::table3()[1];  // even allocation
  const auto measurement = sim::simulate_scenario(
      scenario.machine, scenario.apps, scenario.allocation, sim::SimEffects::none(), 0.05);

  EvenScenarioMeasurement m;
  m.nodes = scenario.machine.node_count();
  m.cores_per_node = scenario.machine.cores_in_node(0);
  m.mem_instances = 3;
  m.mem_threads_per_node = 5;
  m.mem_ai = scenario.apps[0].ai;
  m.mem_total_gflops =
      measurement.app_gflops[0] + measurement.app_gflops[1] + measurement.app_gflops[2];
  m.compute_threads_per_node = 5;
  m.compute_ai = scenario.apps[3].ai;
  m.compute_total_gflops = measurement.app_gflops[3];

  const auto c = calibrate_even_scenario(m);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->peak_gflops_per_thread, 0.29, 1e-4);
  EXPECT_NEAR(c->node_bandwidth, 100.0, 0.1);

  // And the calibrated machine predicts the *other* scenarios correctly.
  const auto machine = topo::Machine::symmetric(m.nodes, m.cores_per_node,
                                                c->peak_gflops_per_thread, c->node_bandwidth,
                                                10.0);
  const auto row1 = model::paper::table3()[0];
  const auto predicted = model::solve(machine, row1.apps, row1.allocation);
  EXPECT_NEAR(predicted.total_gflops, 23.2, 0.05);
}

TEST(Calibrate, RejectsUnsaturatedMemorySide) {
  auto m = paper_even_measurement();
  m.mem_ai = 4.0;  // high AI: memory side would not saturate
  m.mem_total_gflops = 5.0;
  std::string error;
  EXPECT_FALSE(calibrate_even_scenario(m, &error).has_value());
  EXPECT_NE(error.find("saturate"), std::string::npos);
}

TEST(Calibrate, RejectsIncompleteDescription) {
  EvenScenarioMeasurement empty;
  EXPECT_FALSE(calibrate_even_scenario(empty).has_value());
  auto m = paper_even_measurement();
  m.compute_total_gflops = 0.0;
  EXPECT_FALSE(calibrate_even_scenario(m).has_value());
}

}  // namespace
}  // namespace numashare::synth
