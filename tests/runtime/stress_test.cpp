// Chaos and stress: the runtime under adversarial control-plane activity.
// Every test's invariant is exactness of the work count — no task lost, none
// duplicated — regardless of what the blocking controls do mid-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "common/rng.hpp"
#include "runtime/runtime.hpp"
#include "topology/presets.hpp"

namespace numashare::rt {
namespace {

using namespace std::chrono_literals;

TEST(Stress, ControlChurnNeverLosesTasks) {
  // Fire 2000 tasks while a chaos thread rewrites the blocking controls as
  // fast as it can, sweeping through all three options and clears.
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "churn"});
  std::atomic<int> executed{0};
  constexpr int kTasks = 2000;

  std::atomic<bool> chaos_stop{false};
  std::thread chaos([&] {
    Xoshiro256 rng(123);
    while (!chaos_stop.load()) {
      switch (rng.uniform_u64(4)) {
        case 0:
          rt.set_total_thread_target(static_cast<std::uint32_t>(rng.uniform_u64(5)));
          break;
        case 1: {
          topo::CpuSet cores;
          for (topo::CoreId c = 0; c < 4; ++c) {
            if (rng.uniform() < 0.5) cores.set(c);
          }
          if (!cores.empty()) rt.set_blocked_cores(cores);
          break;
        }
        case 2:
          rt.set_node_thread_targets({static_cast<std::uint32_t>(rng.uniform_u64(3)),
                                      static_cast<std::uint32_t>(rng.uniform_u64(3))});
          break;
        case 3:
          rt.clear_thread_controls();
          break;
      }
      std::this_thread::sleep_for(100us);
    }
    // Leave the pool runnable so the tail of the work can drain.
    rt.clear_thread_controls();
  });

  for (int i = 0; i < kTasks; ++i) {
    rt.spawn([&](TaskContext&) { executed.fetch_add(1); });
    if (i % 64 == 0) std::this_thread::sleep_for(200us);
  }
  chaos_stop.store(true);
  chaos.join();
  rt.wait_idle();
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(rt.stats().tasks_executed, kTasks);
  EXPECT_EQ(rt.stats().outstanding_tasks, 0u);
}

TEST(Stress, DeepDependencyChainUnderOption1) {
  // A 500-deep chain with only one runnable worker: strictly sequential
  // execution through the dependency plumbing.
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "chain"});
  rt.set_total_thread_target(1);
  std::atomic<int> counter{0};
  EventPtr prev;
  for (int i = 0; i < 500; ++i) {
    const int expected = i;
    std::vector<EventPtr> deps;
    if (prev) deps.push_back(prev);
    prev = rt.spawn(
        [&, expected](TaskContext&) {
          EXPECT_EQ(counter.fetch_add(1), expected);
        },
        deps);
  }
  prev->wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(Stress, WideFanInLatch) {
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "fanin"});
  constexpr std::uint32_t kWide = 4096;
  auto latch = rt.create_latch(kWide);
  std::atomic<std::uint32_t> ran{0};
  for (std::uint32_t i = 0; i < kWide; ++i) {
    rt.spawn([&](TaskContext&) {
      ran.fetch_add(1);
      latch->count_down();
    });
  }
  std::atomic<bool> after{false};
  rt.spawn([&](TaskContext&) { after.store(true); }, {latch})->wait();
  EXPECT_EQ(ran.load(), kWide);
  EXPECT_TRUE(after.load());
  rt.wait_idle();
}

TEST(Stress, ConcurrentExternalSubmitters) {
  // Four external threads spawn concurrently; SPSC assumptions must not be
  // baked into the submission path.
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "multi"});
  std::atomic<int> executed{0};
  constexpr int kPerThread = 500;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        rt.spawn([&](TaskContext&) { executed.fetch_add(1); });
      }
    });
  }
  for (auto& s : submitters) s.join();
  rt.wait_idle();
  EXPECT_EQ(executed.load(), 4 * kPerThread);
}

TEST(Stress, RepeatedRuntimeLifecycle) {
  // Construct/destroy cycles with work in flight: no leaks (ASAN), no hangs.
  for (int round = 0; round < 10; ++round) {
    Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "cycle"});
    auto gate = std::make_shared<Event>();
    std::atomic<int> executed{0};
    for (int i = 0; i < 50; ++i) {
      rt.spawn([&](TaskContext&) { executed.fetch_add(1); });
    }
    // Half the rounds leave a never-satisfied dependent task behind.
    if (round % 2 == 0) {
      rt.spawn([](TaskContext&) {}, {gate});
    }
    if (round % 3 == 0) rt.set_total_thread_target(1);
    // Destructor must cope with whatever is left.
  }
  SUCCEED();
}

TEST(Stress, NestedSpawnStorm) {
  // Each task spawns two children until depth 9: 2^10-1 tasks total.
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "storm"});
  std::atomic<int> executed{0};
  std::function<void(TaskContext&, int)> storm = [&](TaskContext& ctx, int depth) {
    executed.fetch_add(1);
    if (depth == 0) return;
    ctx.runtime.spawn([&, depth](TaskContext& c) { storm(c, depth - 1); });
    ctx.runtime.spawn([&, depth](TaskContext& c) { storm(c, depth - 1); });
  };
  rt.spawn([&](TaskContext& ctx) { storm(ctx, 9); });
  rt.wait_idle();
  EXPECT_EQ(executed.load(), (1 << 10) - 1);
}

TEST(Stress, MetricsConsistentAfterLoad) {
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "metrics"});
  constexpr int kTasks = 1000;
  for (int i = 0; i < kTasks; ++i) rt.spawn([](TaskContext&) {});
  rt.wait_idle();
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned, kTasks);
  EXPECT_EQ(s.tasks_executed, kTasks);
  EXPECT_EQ(s.outstanding_tasks, 0u);
  EXPECT_EQ(s.ready_queue_depth, 0u);
  EXPECT_EQ(s.blocked_threads, 0u);
}

}  // namespace
}  // namespace numashare::rt
