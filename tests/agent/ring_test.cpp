// ShmRing, the one SPSC ring, and the coalesced telemetry drain
// (ShmChannel::drain_newest) every daemon tick ingests through, on a private
// channel and on two mappings of a named segment alike.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "agent/shm_channel.hpp"

namespace numashare::agent {
namespace {

TEST(ShmRing, PushPopSingleThread) {
  ShmRing<int, 8> ring;
  ring.init();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.try_pop(), 1);
  EXPECT_EQ(ring.try_pop(), 2);
  EXPECT_EQ(ring.try_pop(), std::nullopt);
}

TEST(ShmRing, FullRejectsPush) {
  ShmRing<int, 4> ring;
  ring.init();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.try_pop(), 0);
  EXPECT_TRUE(ring.try_push(99));  // slot freed
}

TEST(ShmRing, WrapsAroundManyTimes) {
  ShmRing<int, 4> ring;
  ring.init();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_EQ(ring.try_pop(), i);
  }
}

TEST(ShmRing, ConcurrentProducerConsumerPreservesSequence) {
  ShmRing<std::uint64_t, 64> ring;
  ring.init();
  constexpr std::uint64_t kCount = 100000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  for (std::uint64_t expected = 0; expected < kCount;) {
    if (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, expected++);
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

/// A sample whose payload is a function of its seq, so a drained copy that
/// mixes two pushes (a torn read) fails is_whole().
Telemetry make_sample(std::uint64_t seq) {
  Telemetry t;
  t.seq = seq;
  t.tasks_executed = seq * 3 + 1;
  for (std::uint32_t n = 0; n < kMaxNodes; ++n) {
    t.running_per_node[n] = static_cast<std::uint32_t>(seq) + n;
  }
  return t;
}

bool is_whole(const Telemetry& t) {
  bool whole = t.tasks_executed == t.seq * 3 + 1;
  for (std::uint32_t n = 0; n < kMaxNodes; ++n) {
    whole &= t.running_per_node[n] == static_cast<std::uint32_t>(t.seq) + n;
  }
  return whole;
}

/// Runtime-side producer and agent-side consumer of one channel: a single
/// private mapping (labelled "Channel"), or two mappings of one named
/// segment (labelled "ShmChannel").
class ChannelDrain : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) return;
    const std::string name = "/numashare-drain-" + std::to_string(::getpid());
    agent_side_ = ShmChannel::create(name);
    app_side_ = ShmChannel::attach(name);
    ASSERT_TRUE(agent_side_ && app_side_);
    producer_ = app_side_.get();
    consumer_ = agent_side_.get();
  }

  ShmChannel channel_;
  std::unique_ptr<ShmChannel> agent_side_, app_side_;
  ShmChannel* producer_ = &channel_;
  ShmChannel* consumer_ = &channel_;
};

INSTANTIATE_TEST_SUITE_P(Transports, ChannelDrain, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "ShmChannel" : "Channel";
                         });

TEST_P(ChannelDrain, EmptyRingReturnsZeroAndLeavesOutUntouched) {
  Telemetry out = make_sample(12345);
  EXPECT_EQ(consumer_->drain_newest(out), 0u);
  EXPECT_EQ(out.seq, 12345u);
  EXPECT_TRUE(is_whole(out));
}

TEST_P(ChannelDrain, BacklogReturnsCountAndNewestAcrossTheWrapPoint) {
  // 256 telemetry slots: these backlogs carry the cursors across the wrap
  // point several times, including full rings drained in one call.
  std::uint64_t seq = 0;
  for (const std::uint64_t k : {1u, 7u, 100u, 255u, 256u, 3u, 200u, 256u, 129u}) {
    for (std::uint64_t i = 0; i < k; ++i) {
      ASSERT_TRUE(producer_->push_telemetry(make_sample(++seq)));
    }
    Telemetry out;
    ASSERT_EQ(consumer_->drain_newest(out), k) << "backlog ending at seq " << seq;
    EXPECT_EQ(out.seq, seq);
    EXPECT_TRUE(is_whole(out));
    EXPECT_EQ(consumer_->drain_newest(out), 0u);
  }
}

TEST_P(ChannelDrain, ConcurrentProducerNeverYieldsOlderOrTornSamples) {
  constexpr std::uint64_t kCount = 20000;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (std::uint64_t seq = 1; seq <= kCount && !failed.load(); ++seq) {
      while (!producer_->push_telemetry(make_sample(seq)) && !failed.load()) {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t last = 0;
  std::uint64_t consumed = 0;
  Telemetry out;
  while (last < kCount && !failed.load()) {
    if (const std::uint64_t drained = consumer_->drain_newest(out)) {
      // Strictly newer: each drain consumes at least the sample it returns.
      failed.store(out.seq <= last || !is_whole(out));
      EXPECT_FALSE(failed.load()) << "seq " << out.seq << " after " << last;
      consumed += drained;
      last = out.seq;
    } else {
      std::this_thread::yield();
    }
  }
  writer.join();
  EXPECT_EQ(consumed, kCount);
}

}  // namespace
}  // namespace numashare::agent
