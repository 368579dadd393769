// spawn_with_data: OCR-style automatic dependency derivation from declared
// datablock accesses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "runtime/runtime.hpp"
#include "topology/presets.hpp"

namespace numashare::rt {
namespace {

using DataAccess = Runtime::DataAccess;
using namespace std::chrono_literals;

Runtime make_runtime() {
  return Runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "datadeps"});
}

TEST(DataDeps, WriteThenReadOrdered) {
  auto rt = make_runtime();
  auto db = rt.create_datablock(sizeof(int), 0);
  auto write = rt.spawn_with_data(
      [&](TaskContext&) {
        std::this_thread::sleep_for(5ms);  // widen the race window
        db->as_span<int>()[0] = 42;
      },
      {DataAccess::write(db)});
  std::atomic<int> seen{0};
  auto read = rt.spawn_with_data(
      [&](TaskContext&) { seen.store(db->as_span<int>()[0]); },
      {DataAccess::read(db)});
  read->wait();
  EXPECT_EQ(seen.load(), 42);
  EXPECT_TRUE(write->satisfied());
}

TEST(DataDeps, WriteChainIsSequential) {
  // 100 read-modify-write tasks on the same block: the derived chain must
  // serialize them, producing an exact count with no atomics in user code.
  auto rt = make_runtime();
  auto db = rt.create_datablock(sizeof(int), 0);
  EventPtr last;
  for (int i = 0; i < 100; ++i) {
    last = rt.spawn_with_data([&](TaskContext&) { db->as_span<int>()[0] += 1; },
                              {DataAccess::write(db)});
  }
  last->wait();
  rt.wait_idle();
  EXPECT_EQ(db->as_span<int>()[0], 100);
}

TEST(DataDeps, ReadersRunConcurrentlyWritersWait) {
  auto rt = make_runtime();
  auto db = rt.create_datablock(sizeof(int), 0);
  std::atomic<int> readers_in_flight{0};
  std::atomic<int> max_concurrent_readers{0};
  std::atomic<bool> writer_ran_during_reads{false};

  rt.spawn_with_data([&](TaskContext&) { db->as_span<int>()[0] = 1; },
                     {DataAccess::write(db)});
  for (int i = 0; i < 4; ++i) {
    rt.spawn_with_data(
        [&](TaskContext&) {
          const int now = readers_in_flight.fetch_add(1) + 1;
          int expected = max_concurrent_readers.load();
          while (expected < now &&
                 !max_concurrent_readers.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::sleep_for(10ms);
          readers_in_flight.fetch_sub(1);
        },
        {DataAccess::read(db)});
  }
  auto write_after = rt.spawn_with_data(
      [&](TaskContext&) {
        if (readers_in_flight.load() > 0) writer_ran_during_reads.store(true);
        db->as_span<int>()[0] = 2;
      },
      {DataAccess::write(db)});
  write_after->wait();
  rt.wait_idle();
  EXPECT_FALSE(writer_ran_during_reads.load());  // anti-dependency honored
  // Note: reader concurrency is opportunistic (single-core hosts may
  // serialize), so only the safety property is asserted.
  EXPECT_GE(max_concurrent_readers.load(), 1);
  EXPECT_EQ(db->as_span<int>()[0], 2);
}

TEST(DataDeps, IndependentBlocksDontSerialize) {
  auto rt = make_runtime();
  auto a = rt.create_datablock(sizeof(int), 0);
  auto b = rt.create_datablock(sizeof(int), 1);
  std::atomic<bool> a_blocked{true};
  // Writer on block a parks until released; a writer on block b must not be
  // behind it.
  rt.spawn_with_data(
      [&](TaskContext&) {
        while (a_blocked.load()) std::this_thread::sleep_for(1ms);
      },
      {DataAccess::write(a)});
  auto independent = rt.spawn_with_data([&](TaskContext&) { b->as_span<int>()[0] = 7; },
                                        {DataAccess::write(b)});
  EXPECT_TRUE(independent->wait_for_us(2'000'000));
  a_blocked.store(false);
  rt.wait_idle();
}

TEST(DataDeps, AffinityFollowsWrittenBlock) {
  // Routing, not scheduling: with a cross-node reluctance no worker ever
  // reaches, a task runs only on the node whose queues hold it, so every
  // task must run where its written block's node routed it.
  Runtime rt(topo::Machine::symmetric(2, 2, 1.0, 10.0),
             {.name = "datadeps",
              .cross_node_reluctance = std::numeric_limits<std::uint32_t>::max()});
  auto on_node1 = rt.create_datablock(64, 1);
  std::atomic<int> wrong{0};
  std::vector<EventPtr> dones;
  for (int i = 0; i < 40; ++i) {
    dones.push_back(rt.spawn_with_data(
        [&](TaskContext& ctx) {
          if (ctx.node != 1) wrong.fetch_add(1);
        },
        {DataAccess::write(on_node1)}));
  }
  for (auto& d : dones) d->wait();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(DataDeps, ComposesWithEventDeps) {
  auto rt = make_runtime();
  auto db = rt.create_datablock(sizeof(int), 0);
  auto gate = std::make_shared<Event>();
  std::atomic<bool> ran{false};
  auto done = rt.spawn_with_data([&](TaskContext&) { ran.store(true); },
                                 {DataAccess::write(db)}, {gate});
  EXPECT_FALSE(done->wait_for_us(20'000));
  gate->satisfy();
  done->wait();
  EXPECT_TRUE(ran.load());
}

TEST(DataDeps, ReadAfterManyReadsStillSeesLastWrite) {
  auto rt = make_runtime();
  auto db = rt.create_datablock(sizeof(int), 0);
  rt.spawn_with_data([&](TaskContext&) { db->as_span<int>()[0] = 5; },
                     {DataAccess::write(db)});
  for (int i = 0; i < 3; ++i) {
    rt.spawn_with_data([&](TaskContext&) { (void)db->as_span<int>()[0]; },
                       {DataAccess::read(db)});
  }
  rt.spawn_with_data([&](TaskContext&) { db->as_span<int>()[0] *= 2; },
                     {DataAccess::write(db)});
  std::atomic<int> result{0};
  rt.spawn_with_data([&](TaskContext&) { result.store(db->as_span<int>()[0]); },
                     {DataAccess::read(db)})
      ->wait();
  EXPECT_EQ(result.load(), 10);
  rt.wait_idle();
}

TEST(DataDepsDeath, EmptyAccessListRejected) {
  auto rt = make_runtime();
  EXPECT_DEATH(rt.spawn_with_data([](TaskContext&) {}, {}), "at least one access");
}

}  // namespace
}  // namespace numashare::rt
