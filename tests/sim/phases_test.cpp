// Phase changes and reallocation penalties in the simulator.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "topology/presets.hpp"

namespace numashare::sim {
namespace {

Simulation make(SimulationOptions options = {}) {
  auto machine = topo::Machine::symmetric(1, 4, 10.0, 100.0);
  std::vector<model::AppSpec> apps{model::AppSpec::numa_perfect("phased", 10.0)};
  auto allocation = model::Allocation::uniform_per_node(machine, {4});
  return Simulation(MachineSim(std::move(machine), SimEffects::none()), std::move(apps),
                    std::move(allocation), options);
}

TEST(Phases, SetAppAiChangesRates) {
  auto sim = make();
  const auto before = sim.run(0.05);
  EXPECT_NEAR(before.app_gflops[0], 40.0, 1e-9);  // compute-bound: 4 x 10
  sim.set_app_ai(0, 0.1);                         // now wants 100 GB/s/thread
  const auto after = sim.run(0.05);
  // Memory-bound: the whole 100 GB/s x 0.1 = 10 GFLOPS.
  EXPECT_NEAR(after.app_gflops[0], 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(sim.app(0).ai, 0.1);
}

TEST(Phases, PenaltyAppliesAfterSwitchOnly) {
  SimulationOptions options;
  options.reallocation_penalty_s = 0.02;
  auto sim = make(options);
  const auto clean = sim.run(0.05);
  EXPECT_NEAR(clean.app_gflops[0], 40.0, 1e-9);  // no switch yet

  // Switch to an allocation with fewer threads: 20 ms at half efficiency.
  auto smaller = model::Allocation(1, 1);
  smaller.set_threads(0, 0, 2);
  sim.set_allocation(smaller);
  const auto after = sim.run(0.1);
  // Ideal rate 20 GFLOPS; penalty costs 0.02 s x 50% x 20 = 0.2 GFLOP of 2.0.
  EXPECT_NEAR(after.app_gflop_total[0], 2.0 - 0.2, 1e-6);
}

TEST(Phases, IdenticalAllocationIncursNoPenalty) {
  SimulationOptions options;
  options.reallocation_penalty_s = 0.05;
  auto sim = make(options);
  sim.set_allocation(sim.allocation());  // no-op switch
  const auto m = sim.run(0.05);
  EXPECT_NEAR(m.app_gflops[0], 40.0, 1e-9);  // a penalty would halve it
}

TEST(Phases, PenaltyHalvesTheRateForItsWholeSpan) {
  SimulationOptions options;
  options.reallocation_penalty_s = 1.0;  // longer than the run
  auto sim = make(options);
  auto other = model::Allocation(1, 1);
  other.set_threads(0, 0, 3);
  sim.set_allocation(other);
  const auto m = sim.run(0.05);
  // 3 threads x 10 GFLOPS at half rate for the whole 50 ms.
  EXPECT_NEAR(m.app_gflop_total[0], 30.0 * 0.5 * 0.05, 1e-9);
}

TEST(Phases, ControllerSwitchTriggersPenaltyToo) {
  SimulationOptions options;
  options.reallocation_penalty_s = 0.5;
  auto sim = make(options);
  auto smaller = model::Allocation(1, 1);
  smaller.set_threads(0, 0, 1);
  int calls = 0;
  const auto controller = [&](double, const std::vector<AppProgress>&)
      -> std::optional<model::Allocation> {
    ++calls;
    return calls == 1 ? std::optional<model::Allocation>(smaller) : std::nullopt;
  };
  const auto m = sim.run(0.1, 1e-3, controller, 0.05);
  EXPECT_EQ(m.reallocations, 1u);
  // First 50 ms at full 40 GFLOPS = 2.0 GFLOP; after the switch the penalty
  // halves the one thread's 10 GFLOPS for the rest of the run: 0.25 GFLOP
  // (0.5 without the penalty).
  EXPECT_NEAR(m.app_gflop_total[0], 2.25, 0.1);
}

TEST(Phases, TracerRecordsPerAppCountersAndReallocations) {
  trace::Tracer tracer;
  SimulationOptions options;
  options.tracer = &tracer;
  auto sim = make(options);
  auto smaller = model::Allocation(1, 1);
  smaller.set_threads(0, 0, 2);
  int calls = 0;
  const auto controller = [&](double, const std::vector<AppProgress>&)
      -> std::optional<model::Allocation> {
    return ++calls == 1 ? std::optional<model::Allocation>(smaller) : std::nullopt;
  };
  sim.run(0.1, 1e-3, controller, 0.02);

  int counters = 0;
  int reallocations = 0;
  for (const auto& event : tracer.snapshot()) {
    if (event.phase == trace::Phase::kCounter) {
      ++counters;
      EXPECT_EQ(event.thread, 0u);   // app 0's lane
      EXPECT_GT(event.value, 0.0);   // it is always making progress here
    }
    if (std::string(event.name) == "reallocation") ++reallocations;
  }
  EXPECT_EQ(counters, 5);  // 0.1 s / 0.02 s ticks
  EXPECT_EQ(reallocations, 1);
}

TEST(Phases, AmdahlDerateMatchesModelCap) {
  // 4 compute-bound threads with serial fraction 0.5: the simulator must
  // land exactly on the model's 10 / (0.5 + 0.5/4) = 16 GFLOPS.
  auto machine = topo::Machine::symmetric(1, 4, 10.0, 1000.0);
  std::vector<model::AppSpec> apps{
      model::AppSpec::numa_perfect("a", 10.0).with_serial_fraction(0.5)};
  Simulation sim(MachineSim(std::move(machine), SimEffects::none()), apps,
                 model::Allocation::uniform_per_node(
                     topo::Machine::symmetric(1, 4, 10.0, 1000.0), {4}));
  const auto m = sim.run(0.05);
  EXPECT_NEAR(m.app_gflops[0], 10.0 / (0.5 + 0.5 / 4.0), 1e-9);
}

TEST(PhasesDeath, BadInputsRejected) {
  auto sim = make();
  EXPECT_DEATH(sim.set_app_ai(5, 1.0), "out of range");
  EXPECT_DEATH(sim.set_app_ai(0, 0.0), "positive");
  SimulationOptions bad;
  bad.reallocation_penalty_s = -1.0;
  EXPECT_DEATH(make(bad), "non-negative");
}

}  // namespace
}  // namespace numashare::sim
