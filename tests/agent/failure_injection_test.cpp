// Failure injection: the coordination layer must degrade, never wedge.
// The paper's architecture makes the agent advisory — applications keep
// computing under their last-applied controls if the agent dies, stalls, or
// floods the rings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "agent/agent.hpp"
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

TEST(FailureInjection, AgentDeathLeavesRuntimeWorking) {
  rt::Runtime runtime(machine_2x2(), {.name = "orphan"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  {
    Agent agent(machine_2x2(), std::make_unique<FairSharePolicy>(
                                   FairSharePolicy::Flavor::kTotalThreads));
    agent.add_app("orphan", channel);
    adapter.pump();
    agent.step(0.0);
    adapter.pump();
    // Fair share of one app = all 4 cores... use 2 apps' worth by sending a
    // manual shrink command to have a non-default state to preserve:
    Command cmd;
    cmd.type = CommandType::kSetTotalThreads;
    cmd.total_threads = 2;
    channel.push_command(cmd);
    adapter.pump();
    ASSERT_TRUE(eventually([&] { return runtime.running_threads() == 2; }));
    // Agent destroyed here — the "crash".
  }
  // The runtime keeps executing tasks under its last-applied control.
  std::atomic<int> executed{0};
  for (int i = 0; i < 100; ++i) {
    runtime.spawn([&](rt::TaskContext&) { executed.fetch_add(1); });
  }
  runtime.wait_idle();
  EXPECT_EQ(executed.load(), 100);
  EXPECT_EQ(runtime.running_threads(), 2u);  // state preserved
}

TEST(FailureInjection, StalledAdapterOnlyCostsFreshness) {
  // The agent keeps sending while the app never pumps: the command ring
  // fills, sends are dropped and accounted, nothing blocks.
  rt::Runtime runtime(machine_2x2(), {.name = "stalled"});
  ShmChannel channel;
  Agent agent(machine_2x2(), std::make_unique<nsd::ClearOncePolicy>());
  agent.add_app("stalled", channel);
  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 1;
  std::uint32_t accepted = 0;
  for (int i = 0; i < 200; ++i) {
    if (channel.push_command(cmd)) ++accepted;
  }
  EXPECT_EQ(accepted, ShmChannel::kCommandSlots);
  // The runtime was never pumped: untouched.
  EXPECT_EQ(runtime.running_threads(), 4u);
}

TEST(FailureInjection, TelemetryFloodDropsOldestPressure) {
  // An agent that never reads telemetry: the adapter keeps pumping without
  // blocking; the ring saturates at capacity.
  rt::Runtime runtime(machine_2x2(), {.name = "flood"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  for (int i = 0; i < 1000; ++i) adapter.pump();
  EXPECT_EQ(channel.telemetry_queued(), ShmChannel::kTelemetrySlots);
  // Commands still flow once pushed.
  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 3;
  channel.push_command(cmd);
  adapter.pump();
  EXPECT_TRUE(eventually([&] { return runtime.running_threads() == 3; }));
}

TEST(FailureInjection, LateJoinerCatchesUp) {
  // An app that starts pumping long after the agent issued commands applies
  // the queued backlog in order and lands on the final state.
  rt::Runtime runtime(machine_2x2(), {.name = "late"});
  ShmChannel channel;
  for (std::uint32_t target : {1u, 3u, 2u}) {
    Command cmd;
    cmd.type = CommandType::kSetTotalThreads;
    cmd.total_threads = target;
    channel.push_command(cmd);
  }
  RuntimeAdapter adapter(runtime, channel);
  EXPECT_EQ(adapter.pump(), 3u);
  EXPECT_TRUE(eventually([&] { return runtime.running_threads() == 2; }));
}

TEST(FailureInjection, PolicyExceptionSafetyViaEmptyViews) {
  // An agent stepping with zero telemetry ever received must not command.
  Agent agent(machine_2x2(), std::make_unique<ProducerConsumerPolicy>());
  rt::Runtime a(machine_2x2(), {.name = "fa"});
  rt::Runtime b(machine_2x2(), {.name = "fb"});
  ShmChannel cha, chb;
  agent.add_app("fa", cha);
  agent.add_app("fb", chb);
  EXPECT_EQ(agent.step(0.0), 0u);  // no telemetry -> no commands
  EXPECT_EQ(agent.commands_sent(), 0u);
}

}  // namespace
}  // namespace numashare::agent
