#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "topology/affinity.hpp"
#include "topology/discovery.hpp"
#include "topology/presets.hpp"

namespace numashare::rt {
namespace {

// Small virtual machine: 2 nodes x 2 cores = 4 workers. The test host may
// have a single physical core; correctness must not depend on parallelism.
topo::Machine small_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0); }

TEST(Runtime, RunsASingleTask) {
  Runtime rt(small_machine());
  std::atomic<bool> ran{false};
  auto done = rt.spawn([&](TaskContext&) { ran.store(true); });
  done->wait();
  EXPECT_TRUE(ran.load());
  rt.wait_idle();
  EXPECT_EQ(rt.stats().tasks_executed, 1u);
}

TEST(Runtime, TaskContextIdentifiesWorker) {
  Runtime rt(small_machine());
  std::atomic<std::uint32_t> worker{kExternalWorker};
  std::atomic<std::uint32_t> node{99};
  rt.spawn([&](TaskContext& ctx) {
    worker.store(ctx.worker_id);
    node.store(ctx.node);
  })->wait();
  EXPECT_LT(worker.load(), rt.worker_count());
  EXPECT_LT(node.load(), 2u);
  EXPECT_EQ(node.load(), rt.machine().core(worker.load()).node);
}

TEST(Runtime, DependencyChainRunsInOrder) {
  Runtime rt(small_machine());
  std::vector<int> order;
  std::mutex m;
  auto record = [&](int id) {
    std::scoped_lock lock(m);
    order.push_back(id);
  };
  auto e1 = rt.spawn([&](TaskContext&) { record(1); });
  auto e2 = rt.spawn([&](TaskContext&) { record(2); }, {e1});
  auto e3 = rt.spawn([&](TaskContext&) { record(3); }, {e2});
  e3->wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(Runtime, DiamondDependency) {
  Runtime rt(small_machine());
  std::atomic<int> stage{0};
  auto top = rt.spawn([&](TaskContext&) { stage.fetch_add(1); });
  auto left = rt.spawn([&](TaskContext&) { EXPECT_GE(stage.load(), 1); stage.fetch_add(10); }, {top});
  auto right = rt.spawn([&](TaskContext&) { EXPECT_GE(stage.load(), 1); stage.fetch_add(10); }, {top});
  auto bottom = rt.spawn([&](TaskContext&) { EXPECT_EQ(stage.load(), 21); }, {left, right});
  bottom->wait();
  rt.wait_idle();
}

TEST(Runtime, UserEventGatesTask) {
  Runtime rt(small_machine());
  auto gate = std::make_shared<Event>();
  std::atomic<bool> ran{false};
  auto done = rt.spawn([&](TaskContext&) { ran.store(true); }, {gate});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  gate->satisfy();
  done->wait();
  EXPECT_TRUE(ran.load());
}

TEST(Runtime, DependingOnAlreadySatisfiedEvent) {
  Runtime rt(small_machine());
  auto gate = std::make_shared<Event>();
  gate->satisfy();
  std::atomic<bool> ran{false};
  rt.spawn([&](TaskContext&) { ran.store(true); }, {gate})->wait();
  EXPECT_TRUE(ran.load());
}

TEST(Runtime, LatchFiresAfterCount) {
  Runtime rt(small_machine());
  auto latch = rt.create_latch(3);
  std::atomic<bool> ran{false};
  auto done = rt.spawn([&](TaskContext&) { ran.store(true); }, {latch});
  latch->count_down();
  latch->count_down();
  EXPECT_FALSE(done->wait_for_us(20'000));
  latch->count_down();
  done->wait();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(latch->remaining(), 0u);
}

TEST(Runtime, NestedSpawnFanOut) {
  Runtime rt(small_machine());
  constexpr int kChildren = 64;
  std::atomic<int> executed{0};
  auto latch = rt.create_latch(kChildren);
  rt.spawn([&](TaskContext& ctx) {
    for (int i = 0; i < kChildren; ++i) {
      ctx.runtime.spawn([&](TaskContext&) {
        executed.fetch_add(1);
        latch->count_down();
      });
    }
  });
  latch->wait();
  EXPECT_EQ(executed.load(), kChildren);
  rt.wait_idle();
}

TEST(Runtime, RecursiveFibonacciTree) {
  // A classic task-graph stress: continuation-free recursive decomposition.
  Runtime rt(small_machine());
  std::atomic<std::uint64_t> sum{0};
  std::function<void(TaskContext&, int, LatchEventPtr)> fib =
      [&](TaskContext& ctx, int n, LatchEventPtr parent) {
        if (n < 2) {
          sum.fetch_add(static_cast<std::uint64_t>(n));
          parent->count_down();
          return;
        }
        auto join = ctx.runtime.create_latch(2);
        ctx.runtime.spawn([&, n, join](TaskContext& c) { fib(c, n - 1, join); });
        ctx.runtime.spawn([&, n, join](TaskContext& c) { fib(c, n - 2, join); });
        // Forward completion without blocking a worker.
        ctx.runtime.spawn([parent](TaskContext&) { parent->count_down(); }, {join});
      };
  auto root = rt.create_latch(1);
  rt.spawn([&](TaskContext& ctx) { fib(ctx, 13, root); });
  root->wait();
  EXPECT_EQ(sum.load(), 233u);  // fib(13)
  rt.wait_idle();
}

TEST(Runtime, WaitIdleDrainsManyTasks) {
  Runtime rt(small_machine());
  std::atomic<int> executed{0};
  constexpr int kTasks = 5000;
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn([&](TaskContext&) { executed.fetch_add(1); });
  }
  rt.wait_idle();
  EXPECT_EQ(executed.load(), kTasks);
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_executed, kTasks);
  EXPECT_EQ(s.outstanding_tasks, 0u);
  EXPECT_EQ(s.ready_queue_depth, 0u);
}

TEST(Runtime, AffinityHintRoutesToNode) {
  // Routing, not scheduling: with a cross-node reluctance no worker ever
  // reaches, a task runs only on the node whose queues hold it, so where the
  // tasks ran is where the hint queued them, however the OS schedules the
  // workers.
  Runtime rt(small_machine(), {.name = "affinity",
                               .cross_node_reluctance = std::numeric_limits<std::uint32_t>::max()});
  std::atomic<int> wrong_node{0};
  auto latch = rt.create_latch(200);
  for (int i = 0; i < 200; ++i) {
    rt.spawn(
        [&](TaskContext& ctx) {
          if (ctx.node != 1) wrong_node.fetch_add(1);
          latch->count_down();
        },
        {}, /*affinity=*/1);
  }
  latch->wait();
  rt.wait_idle();
  EXPECT_EQ(wrong_node.load(), 0);
}

// The paper's binding styles: a per-node worker runs on its whole node's
// cpuset, a per-core worker on its one core. Needs the host topology, since
// binding a virtual machine's core ids would pin to whatever CPUs share them.
TEST(Runtime, WorkersRunOnTheirBinding) {
  if (topo::bind_current_thread(topo::current_thread_affinity()) ==
      topo::BindResult::kUnsupported) {
    GTEST_SKIP() << "thread affinity is not enforced on this platform";
  }
  const auto machine = topo::discover_host_or_flat();
  for (const BindMode mode : {BindMode::kPerNode, BindMode::kPerCore}) {
    Runtime rt(machine, {.name = "bind", .bind_mode = mode});
    topo::CpuSet affinity;
    std::uint32_t worker = kExternalWorker;
    rt.spawn([&](TaskContext& ctx) {
      affinity = topo::current_thread_affinity();
      worker = ctx.worker_id;
    })->wait();
    ASSERT_LT(worker, rt.worker_count());
    const auto& core = machine.core(worker);
    const auto expected = mode == BindMode::kPerNode ? topo::CpuSet::whole_node(machine, core.node)
                                                     : topo::CpuSet::single(core.id);
    EXPECT_EQ(affinity, expected) << "worker " << worker << " has " << affinity.to_string()
                                  << ", expected " << expected.to_string();
  }
}

TEST(Runtime, ProgressCounter) {
  Runtime rt(small_machine());
  rt.report_progress(3);
  rt.report_progress();
  EXPECT_EQ(rt.stats().progress, 4u);
}

TEST(Runtime, DestructorReclaimsUnsatisfiedTasks) {
  std::atomic<bool> ran{false};
  {
    Runtime rt(small_machine());
    auto never = std::make_shared<Event>();
    rt.spawn([&](TaskContext&) { ran.store(true); }, {never});
    // Destructor must not hang or leak (ASAN would flag the leak).
  }
  EXPECT_FALSE(ran.load());
}

TEST(Runtime, StatsSnapshotShape) {
  Runtime rt(small_machine(), {.name = "snap"});
  rt.spawn([](TaskContext&) {})->wait();
  rt.wait_idle();
  const auto s = rt.stats();
  EXPECT_EQ(s.total_workers, 4u);
  EXPECT_EQ(s.running_threads, 4u);
  EXPECT_EQ(s.blocked_threads, 0u);
  ASSERT_EQ(s.running_per_node.size(), 2u);
  EXPECT_EQ(s.running_per_node[0], 2u);
  EXPECT_EQ(s.tasks_spawned, 1u);
}

TEST(RuntimeDeath, NullTaskRejected) {
  Runtime rt(small_machine());
  EXPECT_DEATH(rt.spawn(TaskFn{}), "callable");
}

TEST(RuntimeDeath, BadAffinityRejected) {
  Runtime rt(small_machine());
  EXPECT_DEATH(rt.spawn([](TaskContext&) {}, {}, 7), "out of range");
}

TEST(RuntimeDeath, WaitIdleFromWorkerRejected) {
  // The offending call must happen inside the death-test child process, so
  // the whole runtime lives inside the EXPECT_DEATH statement.
  EXPECT_DEATH(
      {
        Runtime rt(small_machine());
        rt.spawn([](TaskContext& ctx) { ctx.runtime.wait_idle(); })->wait();
      },
      "deadlock");
}

TEST(EventDeath, DoubleSatisfyRejected) {
  auto event = std::make_shared<Event>();
  event->satisfy();
  EXPECT_DEATH(event->satisfy(), "single-assignment");
}

}  // namespace
}  // namespace numashare::rt
