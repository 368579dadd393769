// Migration on reallocation ticks (docs/MEMORY.md): when the agent's
// kSetNodeThreads command changes an app's per-node targets, the adapter
// nudges the runtime's hottest datablocks toward the new placement, and
// telemetry carries the cumulative migration traffic.
#include <gtest/gtest.h>

#include <optional>

#include "agent/channel.hpp"
#include "runtime/runtime.hpp"
#include "topology/machine.hpp"

namespace numashare::agent {
namespace {

topo::Machine machine_2x2() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

Command node_threads_command(std::uint32_t node0, std::uint32_t node1,
                             std::uint64_t seq) {
  Command cmd;
  cmd.type = CommandType::kSetNodeThreads;
  cmd.node_count = 2;
  cmd.node_threads[0] = node0;
  cmd.node_threads[1] = node1;
  cmd.seq = seq;
  cmd.epoch = seq;
  return cmd;
}

std::optional<Telemetry> drain_latest(ShmChannel& channel) {
  std::optional<Telemetry> last;
  while (auto t = channel.pop_telemetry()) last = t;
  return last;
}

TEST(MigrationTick, ChangedNodeTargetsMigrateData) {
  rt::Runtime runtime(machine_2x2());
  auto db = runtime.create_datablock(1u << 16, 0);
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  // All compute ordered onto node 1: the block follows.
  channel.push_command(node_threads_command(0, 2, 1));
  adapter.pump();
  EXPECT_EQ(db->node(), 1u);

  const auto t = drain_latest(channel);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->blocks_migrated, 1u);
  EXPECT_EQ(t->bytes_migrated, std::uint64_t{1} << 16);
}

TEST(MigrationTick, ReassertedTargetsDoNotChurn) {
  rt::Runtime runtime(machine_2x2());
  auto db = runtime.create_datablock(1u << 16, 0);
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  channel.push_command(node_threads_command(0, 2, 1));
  adapter.pump();
  const auto after_first = runtime.stats().bytes_migrated;
  EXPECT_GT(after_first, 0u);

  // The policy re-asserts the identical allocation every tick; a migrator
  // that fires anyway would bounce already-settled data forever.
  for (std::uint64_t seq = 2; seq < 6; ++seq) {
    channel.push_command(node_threads_command(0, 2, seq));
    adapter.pump();
  }
  EXPECT_EQ(runtime.stats().bytes_migrated, after_first);
}

TEST(MigrationTick, DisabledMigrationLeavesDataInPlace) {
  // A zero migration budget is the off switch: threads move, data stays.
  rt::Runtime runtime(machine_2x2(), {.migration_budget_bytes = 0});
  auto db = runtime.create_datablock(1u << 16, 0);
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  channel.push_command(node_threads_command(0, 2, 1));
  adapter.pump();
  EXPECT_EQ(db->node(), 0u);
  EXPECT_EQ(runtime.stats().bytes_migrated, 0u);
}

}  // namespace
}  // namespace numashare::agent
