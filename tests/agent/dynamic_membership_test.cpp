// Dynamic membership: apps join and leave while the agent runs, policies
// re-partition on every change, and drop accounting surfaces in views.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

using namespace std::chrono_literals;

topo::Machine machine_2x2() { return topo::Machine::symmetric(2, 2, 1.0, 10.0); }

template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

TEST(DynamicMembership, RemoveAppReclaimsSharesUnderFairShare) {
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "dm1"});
  rt::Runtime app2(machine, {.name = "dm2"});
  ShmChannel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);

  Agent agent(machine, std::make_unique<FairSharePolicy>());
  agent.add_app("dm1", ch1);
  agent.add_app("dm2", ch2);

  double now = 0.0;
  for (int i = 0; i < 5; ++i) {
    ad1.pump();
    ad2.pump();
    agent.step(now += 0.01);
  }
  ad1.pump();
  ad2.pump();
  EXPECT_TRUE(eventually(
      [&] { return app1.running_threads() == 2 && app2.running_threads() == 2; }));

  // dm2 departs mid-run: the fair share must be recomputed, handing the
  // whole machine to the survivor.
  EXPECT_TRUE(agent.remove_app("dm2"));
  EXPECT_EQ(agent.app_count(), 1u);
  for (int i = 0; i < 5; ++i) {
    ad1.pump();
    agent.step(now += 0.01);
  }
  ad1.pump();
  EXPECT_TRUE(eventually([&] { return app1.running_threads() == 4; }));
}

TEST(DynamicMembership, ModelGuidedRepartitionsAfterEviction) {
  const auto machine = topo::Machine::symmetric(2, 2, 10.0, 32.0, 10.0);
  rt::Runtime mem(machine, {.name = "mem"});
  rt::Runtime compute(machine, {.name = "compute"});
  ShmChannel chm, chc;
  RuntimeAdapter adm(mem, chm, 0.5), adc(compute, chc, 10.0);

  auto policy = std::make_unique<ModelGuidedPolicy>();
  auto* policy_raw = policy.get();
  Agent agent(machine, std::move(policy));
  agent.add_app("mem", chm);
  agent.add_app("compute", chc);

  double now = 0.0;
  for (int i = 0; i < 5; ++i) {
    adm.pump();
    adc.pump();
    agent.step(now += 0.01);
  }
  ASSERT_TRUE(policy_raw->last_allocation().has_value());
  // Both apps hold threads; the machine is fully partitioned.
  std::uint32_t total = 0;
  for (model::AppId a = 0; a < 2; ++a) total += policy_raw->last_allocation()->app_total(a);
  EXPECT_EQ(total, 4u);

  // Evict the compute app. The optimizer must re-run over the one-app
  // scenario (its cached AI/allocation was invalidated) and give the
  // memory-bound survivor every core.
  ASSERT_TRUE(agent.remove_app("compute"));
  for (int i = 0; i < 5; ++i) {
    adm.pump();
    agent.step(now += 0.01);
  }
  adm.pump();
  ASSERT_TRUE(policy_raw->last_allocation().has_value());
  EXPECT_EQ(policy_raw->last_allocation()->app_total(0), 4u);
  EXPECT_TRUE(eventually([&] { return mem.running_threads() == 4; }));
}

TEST(DynamicMembership, AddAppWhileRunning) {
  // The historical restriction (register only before start) is gone: a
  // daemon admits clients while the decision loop runs.
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "early"});
  rt::Runtime app2(machine, {.name = "late"});
  ShmChannel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);
  ad1.start(500);
  ad2.start(500);

  Agent agent(machine, std::make_unique<FairSharePolicy>(), {.period_us = 1000});
  agent.add_app("early", ch1);
  agent.start();
  EXPECT_TRUE(eventually([&] { return app1.running_threads() == 4; }));

  agent.add_app("late", ch2);
  EXPECT_TRUE(eventually(
      [&] { return app1.running_threads() == 2 && app2.running_threads() == 2; }));

  EXPECT_TRUE(agent.remove_app("early"));
  EXPECT_TRUE(eventually([&] { return app2.running_threads() == 4; }));
  agent.stop();
  ad1.stop();
  ad2.stop();
}

TEST(DynamicMembership, GenerationTracksEveryChange) {
  Agent agent(machine_2x2(), std::make_unique<FairSharePolicy>());
  ShmChannel ch1, ch2;
  const auto g0 = agent.generation();
  agent.add_app("a", ch1);
  EXPECT_GT(agent.generation(), g0);
  const auto g1 = agent.generation();
  agent.add_app("b", ch2);
  EXPECT_GT(agent.generation(), g1);
  const auto g2 = agent.generation();
  EXPECT_TRUE(agent.remove_app("a"));
  EXPECT_GT(agent.generation(), g2);

  // Unknown names are rejected without a membership change.
  const auto g3 = agent.generation();
  EXPECT_FALSE(agent.remove_app("nobody"));
  EXPECT_EQ(agent.generation(), g3);
  EXPECT_EQ(agent.app_count(), 1u);
  EXPECT_EQ(agent.find_app("b"), 0u);
}

TEST(DynamicMembership, TelemetryDropsSurfaceInViews) {
  const auto machine = machine_2x2();
  ShmChannel ch;
  Agent agent(machine, std::make_unique<FairSharePolicy>());
  agent.add_app("chatty", ch);

  // Overrun the telemetry ring: capacity 256, push 300 → 44 drops, counted
  // on the channel and visible through the agent's per-app view.
  Telemetry t;
  for (int i = 0; i < 300; ++i) t.seq = static_cast<std::uint64_t>(i), ch.push_telemetry(t);
  EXPECT_EQ(ch.telemetry_dropped(), 44u);
  agent.step(0.0);
  ASSERT_EQ(agent.views().size(), 1u);
  EXPECT_EQ(agent.views()[0].telemetry_dropped, 44u);

  // Command-side accounting works the same way (ring of 64). Drain first:
  // the step above already queued the policy's own command.
  while (ch.pop_command()) {
  }
  Command cmd;
  for (int i = 0; i < 70; ++i) ch.push_command(cmd);
  EXPECT_EQ(ch.commands_dropped(), 6u);
}

}  // namespace
}  // namespace numashare::agent
