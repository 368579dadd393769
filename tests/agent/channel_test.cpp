#include "agent/channel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

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

TEST(Channel, CommandsApplyToRuntime) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 1;
  cmd.seq = 1;
  ASSERT_TRUE(channel.push_command(cmd));
  EXPECT_EQ(adapter.pump(), 1u);
  EXPECT_TRUE(eventually([&] { return runtime.running_threads() == 1; }));
}

TEST(Channel, NodeThreadsCommand) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  Command cmd;
  cmd.type = CommandType::kSetNodeThreads;
  cmd.node_count = 2;
  cmd.node_threads[0] = 2;
  cmd.node_threads[1] = 0;
  channel.push_command(cmd);
  adapter.pump();
  EXPECT_TRUE(eventually([&] { return runtime.running_per_node()[1] == 0; }));
  EXPECT_EQ(runtime.control_mode(), rt::ControlMode::kPerNode);
}

TEST(Channel, TelemetryReflectsRuntime) {
  rt::Runtime runtime(machine_2x2(), {.name = "tel"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, /*app_ai=*/0.5, /*data_home_node=*/1);

  runtime.spawn([](rt::TaskContext&) {})->wait();
  runtime.wait_idle();
  runtime.report_progress(7);
  adapter.pump();
  const auto t = channel.pop_telemetry();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->seq, 1u);
  EXPECT_EQ(t->tasks_executed, 1u);
  EXPECT_EQ(t->progress, 7u);
  EXPECT_EQ(t->total_workers, 4u);
  EXPECT_EQ(t->running_threads, 4u);
  EXPECT_EQ(t->node_count, 2u);
  EXPECT_EQ(t->running_per_node[0], 2u);
  EXPECT_DOUBLE_EQ(t->ai_estimate, 0.5);
  EXPECT_EQ(t->data_home_node, 1u);
  EXPECT_GT(t->timestamp, 0.0);
}

TEST(Channel, TelemetrySequencesIncrement) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  adapter.pump();
  adapter.pump();
  adapter.pump();
  std::uint64_t expected = 1;
  while (auto t = channel.pop_telemetry()) {
    EXPECT_EQ(t->seq, expected++);
  }
  EXPECT_EQ(expected, 4u);
}

TEST(Channel, BackgroundPumpDeliversCommands) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  adapter.start(/*period_us=*/500);
  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 2;
  channel.push_command(cmd);
  EXPECT_TRUE(eventually([&] { return runtime.running_threads() == 2; }));
  EXPECT_TRUE(eventually([&] { return channel.telemetry_queued() > 0; }));
  adapter.stop();
}

TEST(Channel, NodeCountMismatchIsDroppedUnacked) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  // Commands come from another process: one sized for another machine (or
  // past the protocol's node capacity) is dropped, not applied and not
  // acked, and the application keeps running.
  for (const std::uint32_t node_count : {3u, kMaxNodes + 1000}) {
    Command cmd;
    cmd.type = CommandType::kSetNodeThreads;
    cmd.node_count = node_count;
    cmd.node_threads[0] = 1;
    cmd.node_threads[1] = 1;
    cmd.node_threads[2] = 1;
    cmd.seq = cmd.epoch = node_count;
    ASSERT_TRUE(channel.push_command(cmd));
    EXPECT_EQ(adapter.pump(), 0u);
  }
  EXPECT_EQ(runtime.control_mode(), rt::ControlMode::kNone);
  EXPECT_EQ(adapter.enacted_epoch(), 0u);
  std::optional<Telemetry> last;
  while (auto t = channel.pop_telemetry()) last = t;
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->enacted_epoch, 0u);

  // A well-formed command after it still applies and acks.
  Command ok;
  ok.type = CommandType::kSetNodeThreads;
  ok.node_count = 2;
  ok.node_threads[0] = 2;
  ok.node_threads[1] = 2;
  ok.seq = ok.epoch = 2000;
  ASSERT_TRUE(channel.push_command(ok));
  EXPECT_EQ(adapter.pump(), 1u);
  EXPECT_EQ(runtime.control_mode(), rt::ControlMode::kPerNode);
  EXPECT_EQ(adapter.enacted_epoch(), 2000u);
}

TEST(Channel, StaleGenerationCommandIsFenced) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  // The current incarnation (generation 2) grants the whole machine.
  Command fresh;
  fresh.type = CommandType::kSetNodeThreads;
  fresh.node_count = 2;
  fresh.node_threads[0] = 2;
  fresh.node_threads[1] = 2;
  fresh.seq = fresh.epoch = 1;
  fresh.arbiter_generation = 2;
  ASSERT_TRUE(channel.push_command(fresh));
  EXPECT_EQ(adapter.pump(), 1u);

  // A leftover from the dead incarnation (generation 1) arrives later: it
  // is counted and dropped, and neither its targets nor its epoch land.
  Command stale = fresh;
  stale.node_threads[0] = 1;
  stale.node_threads[1] = 0;
  stale.seq = stale.epoch = 2;
  stale.arbiter_generation = 1;
  ASSERT_TRUE(channel.push_command(stale));
  EXPECT_EQ(adapter.pump(), 0u);
  EXPECT_EQ(adapter.stale_commands(), 1u);
  EXPECT_EQ(adapter.last_grant(), (std::vector<std::uint32_t>{2, 2}));
  EXPECT_EQ(adapter.enacted_epoch(), 1u);
  EXPECT_EQ(runtime.running_per_node(), (std::vector<std::uint32_t>{2, 2}));

  // A sender that is not generation-aware is never stale.
  Command local = stale;
  local.arbiter_generation = 0;
  local.seq = local.epoch = 3;
  ASSERT_TRUE(channel.push_command(local));
  EXPECT_EQ(adapter.pump(), 1u);
  EXPECT_EQ(adapter.stale_commands(), 1u);
  EXPECT_EQ(adapter.last_grant(), (std::vector<std::uint32_t>{1, 0}));
}

TEST(Channel, LastGrantFollowsNodeTotalAndClearCommands) {
  rt::Runtime runtime(topo::Machine::symmetric(2, 3, 1.0, 10.0));
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  EXPECT_TRUE(adapter.last_grant().empty());  // nothing granted: unconstrained

  const auto push = [&](Command command) {
    ASSERT_TRUE(channel.push_command(command));
    ASSERT_EQ(adapter.pump(), 1u);
  };
  Command total;
  total.type = CommandType::kSetTotalThreads;
  total.total_threads = 5;  // node-blind: spread round-robin, 3+2
  push(total);
  EXPECT_EQ(adapter.last_grant(), (std::vector<std::uint32_t>{3, 2}));
  total.total_threads = 100;  // more than the machine: capped per node
  push(total);
  EXPECT_EQ(adapter.last_grant(), (std::vector<std::uint32_t>{3, 3}));

  Command node;
  node.type = CommandType::kSetNodeThreads;
  node.node_count = 2;
  node.node_threads[0] = 1;
  node.node_threads[1] = 2;
  push(node);
  EXPECT_EQ(adapter.last_grant(), (std::vector<std::uint32_t>{1, 2}));

  Command clear;
  clear.type = CommandType::kClearControls;
  push(clear);
  EXPECT_TRUE(adapter.last_grant().empty());
}

}  // namespace
}  // namespace numashare::agent
