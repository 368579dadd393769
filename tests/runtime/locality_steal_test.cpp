// Locality-aware stealing and reallocation-tick migration (docs/MEMORY.md).
//
// The scheduler half of the memory tier: cross-node thieves rank victim
// nodes by the resident-footprint pull penalty, bounce footprint-heavy
// tasks home once (poach veto), and the sharded metrics split steals into
// local/remote with the remote bytes actually pulled.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/numa_arena.hpp"
#include "runtime/runtime.hpp"
#include "topology/machine.hpp"

namespace numashare::rt {
namespace {

topo::Machine two_nodes() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

RuntimeOptions eager_steal_options() {
  RuntimeOptions options;
  options.cross_node_reluctance = 0;  // steal cross-node on the first dry round
  return options;
}

TEST(LocalitySteal, SingleNodeStealsAreAllLocal) {
  Runtime rt(topo::Machine::symmetric(1, 4, 1.0, 10.0));
  std::atomic<int> ran{0};
  auto latch = rt.create_latch(64);
  for (int i = 0; i < 64; ++i) {
    rt.spawn([&](TaskContext&) {
      ++ran;
      latch->count_down();
    });
  }
  latch->wait();
  EXPECT_EQ(ran.load(), 64);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.remote_steals, 0u);
  EXPECT_EQ(stats.bytes_pulled_remote, 0u);
  EXPECT_EQ(stats.steals, stats.local_steals + stats.remote_steals);
}

// Node 0's workers are policy-blocked, so its hinted tasks can only complete
// by cross-node pulls — which must book the footprint bytes as remote.
TEST(LocalitySteal, RemotePullsBookFootprintBytes) {
  auto options = eager_steal_options();
  options.poach_threshold_bytes = 0;  // veto off: measure the pull itself
  Runtime rt(two_nodes(), options);
  rt.set_node_thread_targets({0, 2});

  constexpr std::size_t kBlockBytes = 64 * 1024;
  auto db = rt.create_datablock(kBlockBytes, 0);
  std::atomic<int> ran{0};
  auto latch = rt.create_latch(8);
  for (int i = 0; i < 8; ++i) {
    rt.spawn_with_data(
        [&](TaskContext&) {
          ++ran;
          latch->count_down();
        },
        {Runtime::DataAccess::read(db)});
  }
  latch->wait();
  EXPECT_EQ(ran.load(), 8);
  const auto stats = rt.stats();
  EXPECT_GE(stats.bytes_pulled_remote, kBlockBytes);
  EXPECT_EQ(stats.steal_vetoes, 0u);
  // Declared accesses feed the migrator's hotness signal.
  EXPECT_GE(db->touches(), 8u);
}

// A task whose footprint crosses the poach threshold is bounced home once —
// and only once, so a blocked home node cannot starve it.
TEST(LocalitySteal, PoachVetoBouncesOnceThenCompletes) {
  auto options = eager_steal_options();
  options.poach_threshold_bytes = 1024;
  Runtime rt(two_nodes(), options);
  rt.set_node_thread_targets({0, 2});  // home node blocked: the veto's worst case

  auto db = rt.create_datablock(1u << 20, 0);
  std::atomic<int> ran{0};
  auto latch = rt.create_latch(4);
  for (int i = 0; i < 4; ++i) {
    rt.spawn_with_data(
        [&](TaskContext&) {
          ++ran;
          latch->count_down();
        },
        {Runtime::DataAccess::write(db)});
  }
  latch->wait();  // liveness: the one-shot flag lets the second pull stick
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(rt.stats().steal_vetoes, 1u);
}

TEST(LocalitySteal, BlindModeNeverVetoes) {
  auto options = eager_steal_options();
  options.locality_aware_stealing = false;
  Runtime rt(two_nodes(), options);
  rt.set_node_thread_targets({0, 2});

  auto db = rt.create_datablock(1u << 20, 0);
  auto latch = rt.create_latch(4);
  for (int i = 0; i < 4; ++i) {
    rt.spawn_with_data([&](TaskContext&) { latch->count_down(); },
                       {Runtime::DataAccess::read(db)});
  }
  latch->wait();
  EXPECT_EQ(rt.stats().steal_vetoes, 0u);
}

TEST(LocalitySteal, MigrateTowardFollowsNewTargetsAndBooksMetrics) {
  sim::SimEffects effects;
  SimulatedBackend backend(two_nodes(), effects);
  RuntimeOptions options;
  options.memory_backend = &backend;
  Runtime rt(two_nodes(), options);

  std::vector<DatablockPtr> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(rt.create_datablock(4096, 0));

  // Reallocation tick: all compute shifts to node 1; data follows.
  const auto report = rt.migrate_datablocks_toward({0, 4});
  EXPECT_GT(report.blocks_moved, 0u);
  EXPECT_EQ(report.bytes_moved, report.blocks_moved * 4096ull);
  EXPECT_GT(rt.datablocks().bytes_on_node(1), 0u);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.blocks_migrated, report.blocks_moved);
  EXPECT_EQ(stats.bytes_migrated, report.bytes_moved);
  // The simulated backend priced every copy in virtual link time.
  EXPECT_GT(backend.virtual_migrate_seconds(), 0.0);
}

TEST(LocalitySteal, ZeroMigrationBudgetDisablesTicks) {
  RuntimeOptions options;
  options.migration_budget_bytes = 0;
  Runtime rt(two_nodes(), options);
  auto db = rt.create_datablock(4096, 0);
  const auto report = rt.migrate_datablocks_toward({0, 4});
  EXPECT_EQ(report.blocks_moved, 0u);
  EXPECT_EQ(db->node(), 0u);
}

}  // namespace
}  // namespace numashare::rt
