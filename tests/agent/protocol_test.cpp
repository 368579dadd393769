// Wire-protocol properties: the messages must stay shared-memory-legal and
// copy-stable (a byte-level copy is the transport).
#include "agent/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace numashare::agent {
namespace {

TEST(Protocol, MessagesAreTriviallyCopyable) {
  // Compile-time facts restated at runtime for the record.
  EXPECT_TRUE(std::is_trivially_copyable_v<Command>);
  EXPECT_TRUE(std::is_trivially_copyable_v<Telemetry>);
  EXPECT_TRUE(std::is_standard_layout_v<Command>);
  EXPECT_TRUE(std::is_standard_layout_v<Telemetry>);
}

TEST(Protocol, CommandByteCopyRoundTrips) {
  Command original;
  original.type = CommandType::kSetNodeThreads;
  original.total_threads = 7;
  original.node_count = 3;
  original.node_threads[0] = 1;
  original.node_threads[2] = 5;
  original.epoch = 0xdeadbeefull;
  original.suggested_home = 2;
  original.seq = 99;

  alignas(Command) unsigned char bytes[sizeof(Command)];
  std::memcpy(bytes, &original, sizeof(Command));
  Command copy;
  std::memcpy(&copy, bytes, sizeof(Command));

  EXPECT_EQ(copy.type, CommandType::kSetNodeThreads);
  EXPECT_EQ(copy.node_count, 3u);
  EXPECT_EQ(copy.node_threads[2], 5u);
  EXPECT_EQ(copy.epoch, 0xdeadbeefull);
  EXPECT_EQ(copy.suggested_home, 2u);
  EXPECT_EQ(copy.seq, 99u);
}

TEST(Protocol, TelemetryByteCopyRoundTrips) {
  Telemetry original;
  original.seq = 5;
  original.timestamp = 1.25;
  original.tasks_executed = 1000;
  original.node_count = 4;
  original.running_per_node[3] = 17;
  original.gflop_done = 2.5;
  original.gbytes_moved = 0.75;
  original.ai_estimate = 3.3;
  original.data_home_node = 1;

  Telemetry copy;
  std::memcpy(&copy, &original, sizeof(Telemetry));
  EXPECT_EQ(copy.running_per_node[3], 17u);
  EXPECT_DOUBLE_EQ(copy.gflop_done, 2.5);
  EXPECT_DOUBLE_EQ(copy.ai_estimate, 3.3);
  EXPECT_EQ(copy.data_home_node, 1u);
}

TEST(Protocol, DefaultsAreSafe) {
  const Command command;
  EXPECT_EQ(command.type, CommandType::kClearControls);  // safest default op
  EXPECT_EQ(command.suggested_home, kMaxNodes);          // "no suggestion"
  const Telemetry telemetry;
  EXPECT_EQ(telemetry.data_home_node, kMaxNodes);        // "NUMA-perfect/unknown"
  EXPECT_DOUBLE_EQ(telemetry.ai_estimate, 0.0);          // "unknown"
}

TEST(Protocol, CapacityConstantsCoverPaperMachines) {
  // The paper's largest machine: 4 nodes, 80 cores. Commands carry
  // per-node counts, so only the node count is bounded.
  EXPECT_GE(kMaxNodes, 4u);
}

}  // namespace
}  // namespace numashare::agent
