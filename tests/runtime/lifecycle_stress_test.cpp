// Lifecycle stress: the slab-recycling spawn/dispatch/retire path under
// maximum concurrency — N external producers racing M workers through ~1M
// short tasks while the blocking controls flip mid-flight. The invariants
// are the pool's: every task executes exactly once, every retirement is
// published (wait_idle terminates with outstanding == 0), and every slot is
// reclaimed (destructor sweep finds nothing live — ASan/TSan verify).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "topology/machine.hpp"

namespace numashare::rt {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Sanitizer builds run the same shape at 1/16 the task count.
constexpr std::uint64_t scaled(std::uint64_t full) {
  return kSanitized ? full / 16 : full;
}

TEST(LifecycleStress, ProducersRaceWorkersThroughControlFlips) {
  // 4 producers × 8 workers × ~1M tasks, with a control thread sweeping
  // through option 1 / option 2 / option 3 / clear the whole time. Exercises
  // every pool path at once: external-shard allocation (producers), ring and
  // overflow injection, cross-worker slot returns (a task allocated by a
  // producer retires on a worker), and batched outstanding_ publication
  // against concurrent wait_idle checks.
  constexpr int kProducers = 4;
  const std::uint64_t per_producer = scaled(1'000'000) / kProducers;

  Runtime rt(topo::Machine::symmetric(2, 4, 1.0, 10.0), {.name = "lcstress"});
  std::atomic<std::uint64_t> executed{0};

  std::atomic<bool> flip_stop{false};
  std::thread flipper([&] {
    std::uint32_t round = 0;
    while (!flip_stop.load(std::memory_order_acquire)) {
      switch (round++ % 4) {
        case 0: rt.set_total_thread_target(1 + round % 8); break;
        case 1: {
          topo::CpuSet cores;
          cores.set(round % 8);
          cores.set((round + 3) % 8);
          rt.set_blocked_cores(cores);
          break;
        }
        case 2: rt.set_node_thread_targets({1 + round % 4, 1 + (round / 2) % 4}); break;
        case 3: rt.clear_thread_controls(); break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    rt.clear_thread_controls();
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        // Alternate affinity hints so both node rings (and the kAnyNode
        // spread path) see traffic from every producer.
        const topo::NodeId hint =
            i % 3 == 0 ? static_cast<topo::NodeId>(p % 2) : kAnyNode;
        rt.spawn([&](TaskContext&) { executed.fetch_add(1, std::memory_order_relaxed); },
                 {}, hint);
      }
    });
  }
  for (auto& t : producers) t.join();
  rt.wait_idle();
  flip_stop.store(true, std::memory_order_release);
  flipper.join();

  const std::uint64_t expected = per_producer * kProducers;
  EXPECT_EQ(executed.load(), expected);
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned, expected);
  EXPECT_EQ(s.tasks_executed, expected);
  EXPECT_EQ(s.outstanding_tasks, 0u);
}

TEST(LifecycleStress, NestedRespawnRecyclesSlots) {
  // Worker-side allocation/retirement only: a self-respawning task budget
  // several times larger than the live task count, so slots must be recycled
  // through the free lists (and the cross-worker return stacks when a chain
  // migrates between workers via steals).
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "lcnest"});
  const std::int64_t budget = static_cast<std::int64_t>(scaled(400'000));
  std::atomic<std::int64_t> remaining{budget};
  std::atomic<std::int64_t> executed{0};

  std::function<void(TaskContext&)> body = [&](TaskContext& ctx) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (remaining.fetch_sub(1, std::memory_order_relaxed) > 1) {
      ctx.runtime.spawn(body);
    }
  };
  for (std::int64_t seed = 0; seed < 4 && seed < budget; ++seed) rt.spawn(body);
  rt.wait_idle();

  EXPECT_GE(executed.load(), budget);
  EXPECT_EQ(rt.stats().outstanding_tasks, 0u);
}

TEST(LifecycleStress, DestructorReclaimsUndrainedTasks) {
  // Tear the runtime down repeatedly with the pool mid-churn: queued tasks,
  // blocked workers, and never-ready dependents must all be swept by the
  // pool destructor (leaks would trip ASan; double-destroys crash).
  for (int round = 0; round < 8; ++round) {
    Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "lcdtor"});
    auto never = std::make_shared<Event>();
    std::atomic<int> executed{0};
    for (int i = 0; i < 512; ++i) {
      if (i % 7 == 0) {
        rt.spawn([&](TaskContext&) { executed.fetch_add(1); }, {never});
      } else {
        rt.spawn([&](TaskContext&) { executed.fetch_add(1); });
      }
    }
    if (round % 2 == 0) rt.set_total_thread_target(1);
    // No wait_idle: the destructor owns whatever is still in flight.
  }
  SUCCEED();
}

}  // namespace
}  // namespace numashare::rt
