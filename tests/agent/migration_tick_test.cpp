// Migration on reallocation ticks + residency-derived data home
// (docs/MEMORY.md): when the agent's kSetNodeThreads command changes an
// app's per-node targets, the adapter nudges the runtime's hottest
// datablocks toward the new placement; telemetry carries the cumulative
// migration traffic and, opted in, a data-home node derived from where the
// bytes actually live.
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
  ASSERT_TRUE(adapter.migrate_on_realloc());  // default on

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
  rt::Runtime runtime(machine_2x2());
  auto db = runtime.create_datablock(1u << 16, 0);
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  adapter.set_migrate_on_realloc(false);

  channel.push_command(node_threads_command(0, 2, 1));
  adapter.pump();
  EXPECT_EQ(db->node(), 0u);
  EXPECT_EQ(runtime.stats().bytes_migrated, 0u);
}

TEST(MigrationTick, AutoDataHomeTracksResidency) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);

  // No blocks: no home to advertise.
  adapter.enable_auto_data_home();
  adapter.pump();
  EXPECT_EQ(drain_latest(channel)->data_home_node, kMaxNodes);

  // Dominant residency on node 1 becomes the advertised home...
  auto db = runtime.create_datablock(1u << 16, 1);
  adapter.pump();
  EXPECT_EQ(drain_latest(channel)->data_home_node, 1u);

  // ...and follows a migration without any app involvement.
  db->move_to(0);
  adapter.pump();
  EXPECT_EQ(drain_latest(channel)->data_home_node, 0u);
}

TEST(MigrationTick, AutoDataHomeReportsSpreadDataAsHomeless) {
  rt::Runtime runtime(machine_2x2());
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  adapter.enable_auto_data_home();

  auto a = runtime.create_datablock(1u << 16, 0);
  auto b = runtime.create_datablock(1u << 16, 1);
  adapter.pump();
  // An even split never crosses the 50% bar -> "NUMA-perfect / unknown".
  EXPECT_EQ(drain_latest(channel)->data_home_node, kMaxNodes);
}

}  // namespace
}  // namespace numashare::agent
