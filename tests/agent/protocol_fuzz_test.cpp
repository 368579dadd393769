// Protocol POD fuzz: randomized Command/Telemetry messages round-tripped
// through ShmChannel bit-for-bit, sequence-gap detection from the receiver
// side, and drop-counter accounting on full rings — the protocol-v2
// contract that separates "backpressure loss" (counted in the segment's
// shared drop counters) from "in-transit loss" (visible only as a seq gap).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "agent/protocol.hpp"
#include "agent/shm_channel.hpp"
#include "common/rng.hpp"

namespace numashare::agent {
namespace {

std::string unique_channel(const char* tag) {
  static int counter = 0;
  return std::string("/numashare-fuzz-") + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

void expect_same(const Command& sent, const Command& received, std::uint64_t seq) {
  SCOPED_TRACE("seq " + std::to_string(seq));
  EXPECT_EQ(sent.type, received.type);
  EXPECT_EQ(sent.total_threads, received.total_threads);
  EXPECT_EQ(sent.node_count, received.node_count);
  for (std::uint32_t n = 0; n < kMaxNodes; ++n) {
    EXPECT_EQ(sent.node_threads[n], received.node_threads[n]);
  }
  EXPECT_EQ(sent.suggested_home, received.suggested_home);
  EXPECT_EQ(sent.seq, received.seq);
}

void expect_same(const Telemetry& sent, const Telemetry& received, std::uint64_t seq) {
  SCOPED_TRACE("seq " + std::to_string(seq));
  EXPECT_EQ(sent.seq, received.seq);
  EXPECT_EQ(sent.timestamp, received.timestamp);
  EXPECT_EQ(sent.tasks_executed, received.tasks_executed);
  EXPECT_EQ(sent.tasks_spawned, received.tasks_spawned);
  EXPECT_EQ(sent.progress, received.progress);
  EXPECT_EQ(sent.total_workers, received.total_workers);
  EXPECT_EQ(sent.running_threads, received.running_threads);
  EXPECT_EQ(sent.blocked_threads, received.blocked_threads);
  EXPECT_EQ(sent.node_count, received.node_count);
  for (std::uint32_t n = 0; n < kMaxNodes; ++n) {
    EXPECT_EQ(sent.running_per_node[n], received.running_per_node[n]);
  }
  EXPECT_EQ(sent.ready_queue_depth, received.ready_queue_depth);
  EXPECT_EQ(sent.outstanding_tasks, received.outstanding_tasks);
  EXPECT_EQ(sent.gflop_done, received.gflop_done);
  EXPECT_EQ(sent.gbytes_moved, received.gbytes_moved);
  EXPECT_EQ(sent.ai_estimate, received.ai_estimate);
  EXPECT_EQ(sent.data_home_node, received.data_home_node);
}

Command random_command(Xoshiro256& rng, std::uint64_t seq) {
  Command cmd{};
  cmd.type = static_cast<CommandType>(1 + rng.uniform_u64(5));
  cmd.total_threads = static_cast<std::uint32_t>(rng.uniform_u64(1024));
  cmd.node_count = static_cast<std::uint32_t>(rng.uniform_u64(kMaxNodes + 1));
  for (auto& threads : cmd.node_threads) {
    threads = static_cast<std::uint32_t>(rng.uniform_u64(256));
  }
  cmd.suggested_home = static_cast<std::uint32_t>(rng.uniform_u64(kMaxNodes + 1));
  cmd.seq = seq;
  return cmd;
}

Telemetry random_telemetry(Xoshiro256& rng, std::uint64_t seq) {
  Telemetry tel{};  // value-init zeroes padding, keeping memcmp deterministic
  tel.seq = seq;
  tel.timestamp = rng.uniform(0.0, 1e6);
  tel.tasks_executed = rng.next();
  tel.tasks_spawned = rng.next();
  tel.progress = rng.next();
  tel.total_workers = static_cast<std::uint32_t>(rng.uniform_u64(512));
  tel.running_threads = static_cast<std::uint32_t>(rng.uniform_u64(512));
  tel.blocked_threads = static_cast<std::uint32_t>(rng.uniform_u64(512));
  tel.node_count = static_cast<std::uint32_t>(rng.uniform_u64(kMaxNodes + 1));
  for (auto& n : tel.running_per_node) n = static_cast<std::uint32_t>(rng.uniform_u64(64));
  tel.ready_queue_depth = rng.next();
  tel.outstanding_tasks = rng.next();
  tel.gflop_done = rng.uniform(0.0, 1e9);
  tel.gbytes_moved = rng.uniform(0.0, 1e9);
  tel.ai_estimate = rng.uniform(0.0, 1e3);
  tel.data_home_node = static_cast<std::uint32_t>(rng.uniform_u64(kMaxNodes + 1));
  return tel;
}

TEST(ProtocolFuzz, CommandsRoundTripBitForBit) {
  auto agent_side = ShmChannel::create(unique_channel("cmd"));
  ASSERT_NE(agent_side, nullptr);
  auto app_side = ShmChannel::attach(agent_side->name());
  ASSERT_NE(app_side, nullptr);

  Xoshiro256 rng(0xc0ffee);
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const Command sent = random_command(rng, seq);
    ASSERT_TRUE(agent_side->push_command(sent));
    const auto received = app_side->pop_command();
    ASSERT_TRUE(received.has_value());
    // Field-by-field, every field randomized: catches truncation, slot
    // aliasing, and layout accidents. (memcmp would also compare padding
    // bytes, which no copy is required to preserve.)
    expect_same(sent, *received, seq);
  }
  EXPECT_EQ(agent_side->commands_dropped(), 0u);
}

TEST(ProtocolFuzz, TelemetryRoundTripsBitForBit) {
  auto agent_side = ShmChannel::create(unique_channel("tel"));
  ASSERT_NE(agent_side, nullptr);
  auto app_side = ShmChannel::attach(agent_side->name());
  ASSERT_NE(app_side, nullptr);

  Xoshiro256 rng(0xfeedface);
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const Telemetry sent = random_telemetry(rng, seq);
    ASSERT_TRUE(app_side->push_telemetry(sent));
    const auto received = agent_side->pop_telemetry();
    ASSERT_TRUE(received.has_value());
    expect_same(sent, *received, seq);
  }
  EXPECT_EQ(agent_side->telemetry_dropped(), 0u);
}

TEST(ProtocolFuzz, ReceiverDetectsSequenceGaps) {
  auto agent_side = ShmChannel::create(unique_channel("gap"));
  ASSERT_NE(agent_side, nullptr);
  auto app_side = ShmChannel::attach(agent_side->name());
  ASSERT_NE(app_side, nullptr);

  // The sender numbers 1..N but a random subset never reaches the wire
  // (the sender-side equivalent of in-transit loss). The receiver must
  // recover the exact count of missing messages from seq arithmetic alone.
  Xoshiro256 rng(0x5eed);
  std::uint64_t skipped = 0;
  std::uint64_t delivered_gaps = 0;
  std::uint64_t last_seq = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    if (rng.uniform() < 0.25) {
      ++skipped;
      continue;
    }
    Command cmd;
    cmd.seq = seq;
    ASSERT_TRUE(agent_side->push_command(cmd));
    // Drain as we go so the 64-slot ring never fills.
    const auto received = app_side->pop_command();
    ASSERT_TRUE(received.has_value());
    if (last_seq != 0) delivered_gaps += received->seq - last_seq - 1;
    last_seq = received->seq;
  }
  // Gaps before the first delivery and after the last are invisible to the
  // receiver; account for them from the ground truth.
  std::uint64_t edge = 0;
  Xoshiro256 replay(0x5eed);
  std::uint64_t first_delivered = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const bool dropped = replay.uniform() < 0.25;
    if (!dropped && first_delivered == 0) first_delivered = seq;
    if (dropped && (first_delivered == 0 || seq > last_seq)) ++edge;
  }
  EXPECT_EQ(delivered_gaps + edge, skipped);
  EXPECT_EQ(agent_side->commands_dropped(), 0u);  // never entered the ring
}

TEST(ProtocolFuzz, FullRingBumpsSharedDropCounters) {
  auto agent_side = ShmChannel::create(unique_channel("full"));
  ASSERT_NE(agent_side, nullptr);
  auto app_side = ShmChannel::attach(agent_side->name());
  ASSERT_NE(app_side, nullptr);

  // Overfill the command ring: exactly the overflow is counted, and the
  // counter is visible from BOTH ends of the segment (protocol v2).
  for (std::uint64_t seq = 1; seq <= ShmChannel::kCommandSlots + 10; ++seq) {
    Command cmd;
    cmd.seq = seq;
    const bool pushed = agent_side->push_command(cmd);
    EXPECT_EQ(pushed, seq <= ShmChannel::kCommandSlots);
  }
  EXPECT_EQ(agent_side->commands_dropped(), 10u);
  EXPECT_EQ(app_side->commands_dropped(), 10u);

  // Backpressure loss keeps the *surviving* stream contiguous: the ring
  // holds seq 1..64 with no holes.
  std::uint64_t expect_seq = 0;
  while (auto cmd = app_side->pop_command()) {
    EXPECT_EQ(cmd->seq, ++expect_seq);
  }
  EXPECT_EQ(expect_seq, ShmChannel::kCommandSlots);

  // Same contract on the telemetry ring.
  for (std::uint64_t seq = 1; seq <= ShmChannel::kTelemetrySlots + 5; ++seq) {
    Telemetry tel;
    tel.seq = seq;
    app_side->push_telemetry(tel);
  }
  EXPECT_EQ(app_side->telemetry_dropped(), 5u);
  EXPECT_EQ(agent_side->telemetry_dropped(), 5u);
}

}  // namespace
}  // namespace numashare::agent
