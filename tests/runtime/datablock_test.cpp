#include "runtime/datablock.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "runtime/runtime.hpp"
#include "topology/presets.hpp"

namespace numashare::rt {
namespace {

TEST(Datablock, CreateZeroInitialized) {
  DatablockRegistry registry(2);
  auto db = registry.create(64, 0);
  EXPECT_EQ(db->size_bytes(), 64u);
  EXPECT_EQ(db->node(), 0u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(std::to_integer<int>(db->data()[i]), 0);
  }
}

TEST(Datablock, RegistryAccounting) {
  DatablockRegistry registry(2);
  auto a = registry.create(100, 0);
  auto b = registry.create(50, 1);
  EXPECT_EQ(registry.live_blocks(), 2u);
  EXPECT_EQ(registry.bytes_on_node(0), 100u);
  EXPECT_EQ(registry.bytes_on_node(1), 50u);
  EXPECT_EQ(registry.total_bytes(), 150u);
  a.reset();
  EXPECT_EQ(registry.live_blocks(), 1u);
  EXPECT_EQ(registry.bytes_on_node(0), 0u);
}

TEST(Datablock, MoveToPreservesContentAndRetargets) {
  DatablockRegistry registry(2);
  auto db = registry.create(sizeof(int) * 16, 0);
  auto ints = db->as_span<int>();
  std::iota(ints.begin(), ints.end(), 7);
  const std::size_t copied = db->move_to(1);
  EXPECT_EQ(copied, sizeof(int) * 16);
  EXPECT_EQ(db->node(), 1u);
  EXPECT_EQ(registry.bytes_on_node(0), 0u);
  EXPECT_EQ(registry.bytes_on_node(1), sizeof(int) * 16);
  auto after = db->as_span<int>();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(after[static_cast<std::size_t>(i)], 7 + i);
}

TEST(Datablock, MoveToSameNodeIsNoop) {
  DatablockRegistry registry(2);
  auto db = registry.create(32, 1);
  const std::byte* before = db->data();
  EXPECT_EQ(db->move_to(1), 0u);
  EXPECT_EQ(db->data(), before);  // no reallocation
}

TEST(Datablock, UniqueIds) {
  DatablockRegistry registry(1);
  auto a = registry.create(8, 0);
  auto b = registry.create(8, 0);
  EXPECT_NE(a->id(), b->id());
}

TEST(Datablock, ThroughRuntimeApi) {
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0));
  auto db = rt.create_datablock(1024, 1);
  EXPECT_EQ(rt.datablocks().bytes_on_node(1), 1024u);
  // Task writes via the span; affinity hint follows the data.
  rt.spawn(
        [db](TaskContext&) {
          auto doubles = db->as_span<double>();
          for (auto& d : doubles) d = 2.5;
        },
        {}, db->node())
      ->wait();
  for (double d : db->as_span<double>()) EXPECT_DOUBLE_EQ(d, 2.5);
}

TEST(Datablock, MoveRetiresOldBufferUntilReclaim) {
  DatablockRegistry registry(2);
  auto db = registry.create(256, 0);
  const std::byte* before = db->data();
  const std::uint64_t before_move = registry.retire_sequence();
  db->move_to(1);
  // Publish-then-retire: the new buffer is live, the old one is retired —
  // not freed — so a reader that loaded data() pre-move stays valid.
  EXPECT_NE(db->data(), before);
  EXPECT_EQ(registry.retired_bytes(), 256u);
  // Only buffers retired up to the given sequence are freed.
  EXPECT_EQ(registry.reclaim_retired(before_move), 0u);
  EXPECT_EQ(registry.retired_bytes(), 256u);
  EXPECT_EQ(registry.reclaim_retired(registry.retire_sequence()), 256u);
  EXPECT_EQ(registry.retired_bytes(), 0u);
}

// Reallocation churn: every migration retires the block's old buffer, and
// the next wait_idle() with no task outstanding frees it, so flipping a block
// between nodes does not pin one more buffer per move.
TEST(Datablock, WaitIdleFreesMigratedAwayBuffers) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0));
  auto db = rt.create_datablock(kBytes, 0);
  for (int flip = 0; flip < 8; ++flip) {
    const auto report = rt.migrate_datablocks_toward(
        flip % 2 == 0 ? std::vector<std::uint32_t>{0, 1} : std::vector<std::uint32_t>{1, 0});
    ASSERT_EQ(report.bytes_moved, kBytes);
    rt.wait_idle();
    EXPECT_EQ(rt.datablocks().retired_bytes(), 0u) << "after flip " << flip;
  }
}

TEST(Datablock, TouchCountsAccumulate) {
  DatablockRegistry registry(1);
  auto db = registry.create(64, 0);
  EXPECT_EQ(db->touches(), 0u);
  db->record_touch();
  db->record_touch(9);
  EXPECT_EQ(db->touches(), 10u);
}

TEST(Datablock, RegistryUsesSimulatedBackendWhenGiven) {
  SimulatedBackend backend(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0));
  DatablockRegistry registry(2, &backend);
  auto db = registry.create(4096, 0);
  db->move_to(1);
  EXPECT_EQ(backend.stats().migrations, 1u);
  EXPECT_GT(backend.virtual_migrate_seconds(), 0.0);
}

TEST(DatablockDeath, EmptyBlockRejected) {
  DatablockRegistry registry(1);
  EXPECT_DEATH(registry.create(0, 0), "empty");
}

TEST(DatablockDeath, BadNodeRejected) {
  DatablockRegistry registry(2);
  EXPECT_DEATH(registry.create(8, 5), "out of range");
}

}  // namespace
}  // namespace numashare::rt
