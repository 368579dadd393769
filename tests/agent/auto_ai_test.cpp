// Automatic arithmetic-intensity detection: runtimes account work/traffic,
// the adapter derives the AI, the model-guided policy consumes it — §III.A's
// "figure out the access patterns" closed end to end with real workloads.
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "apps/matmul.hpp"
#include "apps/montecarlo.hpp"
#include "apps/stencil.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

topo::Machine machine_2x2() { return topo::Machine::symmetric(2, 2, 1.0, 10.0); }

std::optional<Telemetry> last_telemetry(ShmChannel& channel) {
  std::optional<Telemetry> last;
  while (auto t = channel.pop_telemetry()) last = *t;
  return last;
}

TEST(AutoAi, ReportWorkCountersReachTelemetry) {
  rt::Runtime runtime(machine_2x2(), {.name = "work"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, /*app_ai=*/0.0);
  runtime.report_work(2.5, 0.5);
  adapter.pump();
  const auto t = last_telemetry(channel);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->gflop_done, 2.5, 1e-6);
  EXPECT_NEAR(t->gbytes_moved, 0.5, 1e-6);
}

TEST(AutoAi, DerivesRatioFromDeltas) {
  rt::Runtime runtime(machine_2x2(), {.name = "ratio"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, /*app_ai=*/0.0);
  adapter.pump();  // baseline (no work yet -> no estimate)
  auto t = last_telemetry(channel);
  EXPECT_DOUBLE_EQ(t->ai_estimate, 0.0);

  for (int i = 0; i < 20; ++i) {
    runtime.report_work(1.0, 2.0);  // AI = 0.5
    adapter.pump();
  }
  t = last_telemetry(channel);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->ai_estimate, 0.5, 0.01);
}

TEST(AutoAi, TracksPhaseChange) {
  rt::Runtime runtime(machine_2x2(), {.name = "phase"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, 0.0);
  for (int i = 0; i < 20; ++i) {
    runtime.report_work(1.0, 2.0);  // AI 0.5
    adapter.pump();
  }
  for (int i = 0; i < 60; ++i) {
    runtime.report_work(8.0, 1.0);  // AI 8 phase
    adapter.pump();
  }
  const auto t = last_telemetry(channel);
  EXPECT_NEAR(t->ai_estimate, 8.0, 0.5);
}

TEST(AutoAi, PureComputeCapsNotInfinity) {
  rt::Runtime runtime(machine_2x2(), {.name = "cap"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, 0.0);
  for (int i = 0; i < 10; ++i) {
    runtime.report_work(5.0, 0.0);
    adapter.pump();
  }
  const auto t = last_telemetry(channel);
  EXPECT_GT(t->ai_estimate, 100.0);
  EXPECT_LE(t->ai_estimate, 1024.0);
}

TEST(AutoAi, DeclaredAiNotOverridden) {
  rt::Runtime runtime(machine_2x2(), {.name = "declared"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, /*app_ai=*/0.7);
  runtime.report_work(100.0, 1.0);  // would imply AI 100
  adapter.pump();
  const auto t = last_telemetry(channel);
  EXPECT_DOUBLE_EQ(t->ai_estimate, 0.7);
}

TEST(AutoAi, RealAppsAreClassifiedCorrectly) {
  // The stencil must read memory-bound, Monte Carlo compute-bound, with the
  // measured values near each app's own nominal estimate.
  rt::Runtime stencil_rt(machine_2x2(), {.name = "st"});
  rt::Runtime mc_rt(machine_2x2(), {.name = "mc"});
  ShmChannel st_ch, mc_ch;
  RuntimeAdapter st_ad(stencil_rt, st_ch, 0.0);
  RuntimeAdapter mc_ad(mc_rt, mc_ch, 0.0);
  st_ad.pump();
  mc_ad.pump();

  apps::StencilConfig stencil_config;
  stencil_config.rows = 32;
  stencil_config.cols = 32;
  apps::Stencil stencil(stencil_rt, stencil_config);
  stencil.run(5);
  apps::MonteCarloConfig mc_config;
  mc_config.tasks = 8;
  mc_config.samples_per_task = 1u << 10;
  apps::MonteCarlo montecarlo(mc_rt, mc_config);
  montecarlo.run();

  for (int i = 0; i < 10; ++i) {
    st_ad.pump();
    mc_ad.pump();
  }
  const auto st_t = last_telemetry(st_ch);
  const auto mc_t = last_telemetry(mc_ch);
  EXPECT_NEAR(st_t->ai_estimate, stencil.ai_estimate(), 0.05);
  EXPECT_GT(mc_t->ai_estimate, 100.0);
}

TEST(AutoAi, ModelGuidedPolicyConsumesDerivedAi) {
  // Two apps that only *account* their work; the policy must still partition
  // them sensibly (compute-bound app gets the extra cores).
  const auto machine = topo::Machine::symmetric(2, 4, 10.0, 32.0, 10.0);
  rt::Runtime mem(machine, {.name = "mem"});
  rt::Runtime compute(machine, {.name = "cpu"});
  ShmChannel mem_ch, cpu_ch;
  RuntimeAdapter mem_ad(mem, mem_ch, 0.0);
  RuntimeAdapter cpu_ad(compute, cpu_ch, 0.0);
  Agent agent(machine, std::make_unique<ModelGuidedPolicy>());
  agent.add_app("mem", mem_ch);
  agent.add_app("cpu", cpu_ch);

  mem_ad.pump();
  cpu_ad.pump();
  for (int tick = 0; tick < 15; ++tick) {
    mem.report_work(0.5, 1.0);   // AI 0.5
    compute.report_work(10.0, 1.0);  // AI 10
    mem_ad.pump();
    cpu_ad.pump();
    agent.step(tick * 0.001);
  }
  auto* policy = dynamic_cast<ModelGuidedPolicy*>(&agent.policy());
  ASSERT_NE(policy, nullptr);
  ASSERT_TRUE(policy->last_allocation().has_value());
  const auto& allocation = *policy->last_allocation();
  EXPECT_GT(allocation.app_total(1), allocation.app_total(0));
}

}  // namespace
}  // namespace numashare::agent
