// End-to-end Figure 1: agent + policy + channels + live runtimes.
#include "agent/agent.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "agent/policies.hpp"
#include "support/daemon_support.hpp"
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

TEST(Agent, FairShareDrivesTwoRuntimes) {
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "app1"});
  rt::Runtime app2(machine, {.name = "app2"});
  ShmChannel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);

  Agent agent(machine, std::make_unique<FairSharePolicy>());
  agent.add_app("app1", ch1);
  agent.add_app("app2", ch2);

  // Manual pumping keeps the test deterministic.
  for (int i = 0; i < 5; ++i) {
    ad1.pump();
    ad2.pump();
    agent.step(static_cast<double>(i));
  }
  ad1.pump();
  ad2.pump();

  // Workers park asynchronously: wait for both runtimes to reach the whole
  // target, not just node 0, before counting.
  const std::vector<std::uint32_t> one_per_node{1, 1};
  EXPECT_TRUE(eventually([&] {
    return app1.running_per_node() == one_per_node && app2.running_per_node() == one_per_node;
  }));
  // Fair share of a 2x2 machine between two apps: one thread per node each;
  // combined running threads equal the core count (no over-subscription).
  EXPECT_EQ(app1.running_threads() + app2.running_threads(), 4u);
  EXPECT_GE(agent.commands_sent(), 2u);
  EXPECT_GT(agent.telemetry_received(), 0u);
}

TEST(Agent, ViewsTrackProgressRates) {
  const auto machine = machine_2x2();
  rt::Runtime app(machine, {.name = "rates"});
  ShmChannel ch;
  RuntimeAdapter adapter(app, ch);
  Agent agent(machine, std::make_unique<nsd::ClearOncePolicy>());
  agent.add_app("rates", ch);

  app.report_progress(10);
  adapter.pump();
  agent.step(0.0);
  EXPECT_EQ(agent.views()[0].task_rate, 0.0);  // one sample: no delta yet
  std::this_thread::sleep_for(20ms);
  app.spawn([](rt::TaskContext&) {})->wait();
  app.wait_idle();
  app.report_progress(10);
  adapter.pump();
  agent.step(1.0);

  const auto& view = agent.views()[0];
  EXPECT_TRUE(view.has_telemetry);
  EXPECT_EQ(view.latest.progress, 20u);
  EXPECT_EQ(view.latest.tasks_executed, 1u);
  EXPECT_GT(view.task_rate, 0.0);
}

// The scheduler-latency watchdog end to end: a worker held inside a task
// past the deadline stops passing its loop heartbeat, the runtime reports it
// stalled, the adapter publishes that in telemetry, and the agent's view,
// which the daemon's compliance watchdog reads, carries it ("behind because
// starved, not defiant").
TEST(Agent, WatchdogStallReachesCompliance) {
  const auto machine = machine_2x2();
  rt::Runtime app(machine, {.name = "stall", .watchdog_deadline_us = 20'000});
  ASSERT_NE(app.watchdog(), nullptr);
  ShmChannel channel;
  RuntimeAdapter adapter(app, channel);
  Agent agent(machine, std::make_unique<nsd::ClearOncePolicy>());
  agent.add_app("stall", channel);

  // Bounded waits on the state itself: a loaded host delays the watchdog's
  // poll, it does not change what the poll must eventually see.
  const auto wait_for = [](auto predicate) {
    const auto give_up = std::chrono::steady_clock::now() + 30s;
    while (!predicate() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return predicate();
  };

  std::atomic<bool> release{false};
  auto held = app.spawn([&](rt::TaskContext&) {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  ASSERT_TRUE(wait_for([&] { return app.watchdog()->stalled_count() > 0; }));

  adapter.pump();
  agent.step(0.0);
  EXPECT_GT(agent.views()[0].latest.stalled_workers, 0u);

  release.store(true, std::memory_order_release);
  held->wait();
  ASSERT_TRUE(wait_for([&] { return app.watchdog()->stalled_count() == 0; }));
  adapter.pump();
  agent.step(1.0);
  EXPECT_EQ(agent.views()[0].latest.stalled_workers, 0u);
}

TEST(Agent, BackgroundLoopConverges) {
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "bg1"});
  rt::Runtime app2(machine, {.name = "bg2"});
  ShmChannel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);
  ad1.start(500);
  ad2.start(500);

  Agent agent(machine, std::make_unique<FairSharePolicy>(), {.period_us = 1000});
  agent.add_app("bg1", ch1);
  agent.add_app("bg2", ch2);
  agent.start();

  EXPECT_TRUE(eventually(
      [&] { return app1.running_threads() == 2 && app2.running_threads() == 2; }));
  agent.stop();
  ad1.stop();
  ad2.stop();
}

TEST(Agent, ProducerConsumerKeepsLeadBounded) {
  // Virtual producer/consumer progressing at thread-count-proportional rates:
  // the controller must keep the producer's lead inside (or near) the band.
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  rt::Runtime producer(machine, {.name = "prod"});
  rt::Runtime consumer(machine, {.name = "cons"});
  ShmChannel chp, chc;
  RuntimeAdapter adp(producer, chp), adc(consumer, chc);

  ProducerConsumerPolicy::Options options;
  options.min_lead = 2;
  options.max_lead = 8;
  Agent agent(machine, std::make_unique<ProducerConsumerPolicy>(options));
  agent.add_app("prod", chp);
  agent.add_app("cons", chc);

  // Drive progress proportional to granted threads; the producer is
  // intrinsically 2x faster per thread, so unmanaged it would run away
  // (8 units/tick of divergence). Each tick waits until both runtimes have
  // enacted the newest command (surplus workers parked), however slowly
  // the host schedules them, so every tick's progress follows the grant.
  const auto enacted = [&] {
    adp.pump();
    adc.pump();
    return adp.enacted_epoch() >= agent.views()[0].commanded_epoch &&
           adc.enacted_epoch() >= agent.views()[1].commanded_epoch;
  };
  for (int tick = 0; tick < 150; ++tick) {
    producer.report_progress(2 * producer.running_threads());
    consumer.report_progress(1 * consumer.running_threads());
    adp.pump();
    adc.pump();
    agent.step(tick * 0.01);
    ASSERT_TRUE(eventually(enacted)) << "tick " << tick;
  }
  const auto produced = producer.stats().progress;
  const auto consumed = consumer.stats().progress;
  EXPECT_GT(produced, consumed);  // still a pipeline, not starved
  // The controller must have shifted threads away from the fast producer;
  // with a 2x speed gap the steady state leaves it the minimum.
  EXPECT_TRUE(eventually(
      [&] { return producer.running_threads() < consumer.running_threads(); }))
      << "producer=" << producer.running_threads()
      << " consumer=" << consumer.running_threads();
  // Divergence must be well below the unmanaged 8-per-tick rate.
  EXPECT_LT(produced - consumed, 150u * 4u);
}

TEST(AgentDeath, PolicyRequired) {
  EXPECT_DEATH(Agent(machine_2x2(), nullptr), "policy");
}

// Registration after start() is legal now (dynamic membership) — covered in
// dynamic_membership_test.cpp. Duplicate names are still rejected.
TEST(AgentDeath, DuplicateNameRejected) {
  Agent agent(machine_2x2(), std::make_unique<nsd::ClearOncePolicy>());
  ShmChannel ch1, ch2;
  agent.add_app("same", ch1);
  EXPECT_DEATH(agent.add_app("same", ch2), "duplicate");
}

}  // namespace
}  // namespace numashare::agent
