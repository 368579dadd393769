// Byte-accounting conservation for the datablock registry (docs/MEMORY.md).
//
// The invariant every test here drives at: at any quiescent point,
//
//     sum over nodes of bytes_on_node(n)  ==  sum of live block sizes
//
// no matter how creates, destroys, and cross-node moves interleave. A
// migration that double-counts (charges the destination before discharging
// the source, or vice versa) passes happy-path tests and silently corrupts
// the placement signal the agent steers by — so the property is checked
// under deliberate concurrency, and the binary runs under ASan and TSan in
// CI (ctest -L memory).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/datablock.hpp"
#include "runtime/runtime.hpp"

namespace numashare::rt {
namespace {

std::uint64_t resident_total(const DatablockRegistry& registry) {
  std::uint64_t total = 0;
  for (topo::NodeId n = 0; n < registry.node_count(); ++n) {
    total += registry.bytes_on_node(n);
  }
  return total;
}

TEST(MemoryAccounting, MoveConservesTotalBytes) {
  DatablockRegistry registry(4);
  auto db = registry.create(4096, 0);
  EXPECT_EQ(resident_total(registry), 4096u);
  db->move_to(2);
  EXPECT_EQ(resident_total(registry), 4096u);
  EXPECT_EQ(registry.bytes_on_node(0), 0u);
  EXPECT_EQ(registry.bytes_on_node(2), 4096u);
  db->move_to(3);
  db->move_to(0);
  EXPECT_EQ(resident_total(registry), 4096u);
  db.reset();
  EXPECT_EQ(resident_total(registry), 0u);
  EXPECT_EQ(registry.live_blocks(), 0u);
}

// The count-conservation property test: writer threads churn blocks through
// create/move/destroy while a reader thread continuously sums the per-node
// accounting. Relaxed per-node counters mean a mid-move reader may observe a
// transient where the bytes are charged to neither or both nodes — so the
// reader asserts a *bound* (never negative, never more than double the cap),
// and the precise equality is asserted at every join point.
TEST(MemoryAccounting, ConcurrentChurnConservesCounts) {
  constexpr std::uint32_t kNodes = 4;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  constexpr std::size_t kBlockBytes = 1024;
  DatablockRegistry registry(kNodes);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // live and total cannot be snapshotted together, so mid-churn the
      // reader checks interleaving-proof invariants: every block is exactly
      // kBlockBytes, and each per-node counter only ever changes by whole
      // blocks — any observable sum must be block-granular. (A migration
      // that half-charged a move would trip this.) The exact live==total
      // equality is asserted at the quiescent points below; the reader's
      // other job is giving TSan/ASan concurrent readers to race against.
      EXPECT_EQ(resident_total(registry) % kBlockBytes, 0u);
      EXPECT_LE(registry.live_blocks(),
                static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    }
  });

  std::vector<std::thread> movers;
  for (int t = 0; t < kThreads; ++t) {
    movers.emplace_back([&, t] {
      Xoshiro256 rng(0x9e3779b9u + static_cast<std::uint64_t>(t));
      std::vector<DatablockPtr> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto roll = rng.uniform_u64(10);
        if (roll < 4 || mine.empty()) {
          mine.push_back(registry.create(
              kBlockBytes, static_cast<topo::NodeId>(rng.uniform_u64(kNodes))));
        } else if (roll < 8) {
          mine[rng.uniform_u64(mine.size())]->move_to(
              static_cast<topo::NodeId>(rng.uniform_u64(kNodes)));
        } else {
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(mine.size())));
        }
      }
    });
  }
  for (auto& m : movers) m.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Quiescent: every mover's surviving blocks died with its vector, so the
  // books must read exactly zero.
  EXPECT_EQ(registry.live_blocks(), 0u);
  EXPECT_EQ(resident_total(registry), 0u);
  EXPECT_EQ(registry.retired_bytes(), 0u);  // destruction frees retirees
}

// move_to() thread-safety regression (the PR's satellite fix): readers load
// data() while movers republish it. Under the old unique_ptr storage the
// reset freed the buffer readers still held — a use-after-free TSan/ASan
// flagged instantly. Now the old buffer is retired, not freed, until a
// quiescent reclaim.
TEST(MemoryAccounting, ConcurrentMoveAndReadIsSafe) {
  constexpr std::size_t kWords = 512;
  DatablockRegistry registry(2);
  auto db = registry.create(kWords * sizeof(std::uint64_t), 0);
  auto words = db->as_span<std::uint64_t>();
  for (std::size_t i = 0; i < kWords; ++i) words[i] = 0xfeedu;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // The acquire-loaded pointer stays valid (retired, not freed) and
        // its contents are a consistent pre- or post-move snapshot.
        auto view = db->as_span<const std::uint64_t>();
        for (std::size_t i = 0; i < kWords; ++i) {
          ASSERT_EQ(view[i], 0xfeedu);
        }
      }
    });
  }
  std::thread mover([&] {
    for (int i = 0; i < 200; ++i) {
      db->move_to(static_cast<topo::NodeId>(i % 2));
    }
    stop.store(true, std::memory_order_release);
  });
  mover.join();
  for (auto& r : readers) r.join();

  // Every completed move retired one buffer; with readers joined the blocks
  // are quiescent and reclaim returns the books to zero.
  const std::uint64_t pinned = registry.retired_bytes();
  EXPECT_GT(pinned, 0u);
  EXPECT_EQ(registry.reclaim_retired(registry.retire_sequence()), pinned);
  EXPECT_EQ(registry.retired_bytes(), 0u);
}

// wait_idle() frees retired buffers while a spawner and a mover keep running
// against it. Tasks read the block through data() as it moves; a buffer freed
// while a task may still read it is a use-after-free for ASan (the block is
// half a slab, so its buffers are dedicated allocations returned to the heap)
// and a data race for TSan.
TEST(MemoryAccounting, WaitIdleReclaimRacesSpawnerAndMover) {
  constexpr std::size_t kWords = NumaArena::kDefaultSlabBytes / 2 / sizeof(std::uint64_t);
  constexpr std::uint64_t kPattern = 0xfeedu;
  constexpr int kMoves = 1000;
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0));
  auto db = rt.create_datablock(kWords * sizeof(std::uint64_t), 0);
  for (auto& word : db->as_span<std::uint64_t>()) word = kPattern;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread spawner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      rt.spawn([&](TaskContext&) {
        const auto view = db->as_span<const std::uint64_t>();
        for (std::size_t i = 0; i < kWords; i += 64) {
          if (view[i] != kPattern) torn.fetch_add(1, std::memory_order_relaxed);
        }
      });
      std::this_thread::yield();
    }
  });
  std::thread mover([&] {
    for (int i = 0; i < kMoves; ++i) {
      rt.migrate_datablocks_toward(i % 2 == 0 ? std::vector<std::uint32_t>{0, 1}
                                              : std::vector<std::uint32_t>{1, 0});
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  while (!stop.load(std::memory_order_acquire)) rt.wait_idle();
  mover.join();
  spawner.join();
  rt.wait_idle();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(rt.stats().blocks_migrated, std::uint64_t{kMoves});
  EXPECT_EQ(rt.datablocks().retired_bytes(), 0u);
}

// Two movers racing the same block: the move mutex serializes them, the
// loser sees the winner's node and (often) no-ops; accounting stays exact.
TEST(MemoryAccounting, ConcurrentMoversSerialize) {
  DatablockRegistry registry(2);
  auto db = registry.create(2048, 0);
  std::thread a([&] {
    for (int i = 0; i < 100; ++i) db->move_to(1);
  });
  std::thread b([&] {
    for (int i = 0; i < 100; ++i) db->move_to(0);
  });
  a.join();
  b.join();
  EXPECT_EQ(resident_total(registry), 2048u);
  EXPECT_EQ(registry.bytes_on_node(db->node()), 2048u);
}

TEST(MemoryAccounting, MigrateTowardRespectsByteBudget) {
  DatablockRegistry registry(2);
  std::vector<DatablockPtr> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(registry.create(1024, 0));
  // Everything on node 0, target entirely node 1, budget for three blocks
  // plus change — the half-block remainder can only defer.
  const auto report = registry.migrate_toward({0, 4}, 3 * 1024 + 512);
  EXPECT_EQ(report.blocks_moved, 3u);
  EXPECT_EQ(report.bytes_moved, 3u * 1024u);
  EXPECT_GT(report.deferred, 0u);
  EXPECT_EQ(registry.bytes_on_node(1), 3u * 1024u);
  EXPECT_EQ(resident_total(registry), 8u * 1024u);
}

TEST(MemoryAccounting, MigrateTowardMovesHottestFirst) {
  DatablockRegistry registry(2);
  auto cold = registry.create(1024, 0);
  auto hot = registry.create(1024, 0);
  hot->record_touch(100);
  // Budget for exactly one block: the hot one must be the one that moves.
  registry.migrate_toward({0, 2}, 1024);
  EXPECT_EQ(hot->node(), 1u);
  EXPECT_EQ(cold->node(), 0u);
}

TEST(MemoryAccounting, MigrateTowardIsIdleOnBalancedResidency) {
  DatablockRegistry registry(2);
  auto a = registry.create(1024, 0);
  auto b = registry.create(1024, 1);
  const auto report = registry.migrate_toward({2, 2}, 1u << 20);
  EXPECT_EQ(report.blocks_moved, 0u);
  EXPECT_EQ(report.bytes_moved, 0u);
}

}  // namespace
}  // namespace numashare::rt
