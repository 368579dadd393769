// Shared-memory transport: single-process semantics plus a real two-process
// (fork) Figure-1 round trip with a live runtime in the child.
#include "agent/shm_channel.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

using namespace std::chrono_literals;

std::string unique_name(const char* tag) {
  static int counter = 0;
  return std::string("/numashare-test-") + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

TEST(ShmChannel, CreateAttachRoundTrip) {
  const auto name = unique_name("rt");
  std::string error;
  auto agent_side = ShmChannel::create(name, &error);
  ASSERT_NE(agent_side, nullptr) << error;
  EXPECT_TRUE(agent_side->is_creator());
  auto app_side = ShmChannel::attach(name, &error);
  ASSERT_NE(app_side, nullptr) << error;
  EXPECT_FALSE(app_side->is_creator());

  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 3;
  cmd.seq = 42;
  EXPECT_TRUE(agent_side->push_command(cmd));
  EXPECT_EQ(agent_side->commands_queued(), 1u);
  const auto received = app_side->pop_command();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, CommandType::kSetTotalThreads);
  EXPECT_EQ(received->total_threads, 3u);
  EXPECT_EQ(received->seq, 42u);

  Telemetry t;
  t.seq = 7;
  t.running_threads = 5;
  EXPECT_TRUE(app_side->push_telemetry(t));
  const auto sample = agent_side->pop_telemetry();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->seq, 7u);
  EXPECT_EQ(sample->running_threads, 5u);
}

TEST(ShmChannel, PrivateMappingRoundTripAndDrops) {
  // The default constructor: same Layout, no name, nothing to unlink.
  ShmChannel channel;
  EXPECT_TRUE(channel.name().empty());
  EXPECT_FALSE(channel.is_creator());

  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 3;
  cmd.seq = 42;
  EXPECT_TRUE(channel.push_command(cmd));
  EXPECT_EQ(channel.commands_queued(), 1u);
  const auto received = channel.pop_command();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->total_threads, 3u);
  EXPECT_EQ(received->seq, 42u);

  Telemetry t;
  t.seq = 7;
  t.running_threads = 5;
  EXPECT_TRUE(channel.push_telemetry(t));
  const auto sample = channel.pop_telemetry();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->seq, 7u);
  EXPECT_EQ(sample->running_threads, 5u);

  // Full rings count drops in the Layout, exactly as for a named segment.
  for (std::size_t i = 0; i < ShmChannel::kTelemetrySlots + 10; ++i) channel.push_telemetry(t);
  for (std::size_t i = 0; i < ShmChannel::kCommandSlots + 3; ++i) channel.push_command(cmd);
  EXPECT_EQ(channel.telemetry_dropped(), 10u);
  EXPECT_EQ(channel.commands_dropped(), 3u);
  EXPECT_EQ(channel.telemetry_queued(), ShmChannel::kTelemetrySlots);
  EXPECT_EQ(channel.commands_queued(), ShmChannel::kCommandSlots);
}

TEST(ShmChannel, CreateTwiceFails) {
  const auto name = unique_name("dup");
  auto first = ShmChannel::create(name);
  ASSERT_NE(first, nullptr);
  std::string error;
  EXPECT_EQ(ShmChannel::create(name, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ShmChannel, AttachMissingFails) {
  std::string error;
  EXPECT_EQ(ShmChannel::attach(unique_name("missing"), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ShmChannel, CreatorUnlinksOnDestruction) {
  const auto name = unique_name("unlink");
  { auto channel = ShmChannel::create(name); }
  EXPECT_EQ(ShmChannel::attach(name), nullptr);
}

TEST(ShmChannel, RingCapacityBackpressure) {
  const auto name = unique_name("full");
  auto channel = ShmChannel::create(name);
  ASSERT_NE(channel, nullptr);
  Command cmd;
  for (std::size_t i = 0; i < ShmChannel::kCommandSlots; ++i) {
    EXPECT_TRUE(channel->push_command(cmd));
  }
  EXPECT_FALSE(channel->push_command(cmd));  // full
  EXPECT_TRUE(channel->pop_command().has_value());
  EXPECT_TRUE(channel->push_command(cmd));  // slot freed
}

TEST(ShmChannel, DropCountersVisibleFromBothMappings) {
  const auto name = unique_name("drops");
  auto agent_side = ShmChannel::create(name);
  ASSERT_NE(agent_side, nullptr);
  auto app_side = ShmChannel::attach(name);
  ASSERT_NE(app_side, nullptr);

  // Overrun the telemetry ring from the app side; the agent side must see
  // the same cumulative count (they live in the segment, not the process).
  Telemetry t;
  for (std::size_t i = 0; i < ShmChannel::kTelemetrySlots + 10; ++i) {
    app_side->push_telemetry(t);
  }
  EXPECT_EQ(app_side->telemetry_dropped(), 10u);
  EXPECT_EQ(agent_side->telemetry_dropped(), 10u);

  Command cmd;
  for (std::size_t i = 0; i < ShmChannel::kCommandSlots + 3; ++i) {
    agent_side->push_command(cmd);
  }
  EXPECT_EQ(agent_side->commands_dropped(), 3u);
  EXPECT_EQ(app_side->commands_dropped(), 3u);

  // Draining frees slots; successful pushes don't move the counters.
  while (agent_side->pop_telemetry()) {
  }
  EXPECT_TRUE(app_side->push_telemetry(t));
  EXPECT_EQ(agent_side->telemetry_dropped(), 10u);
}

TEST(ShmChannel, CleanupStaleSegmentsMatchesPrefixOnly) {
  const auto prefix = unique_name("stale");
  // Three "orphaned" segments of a registry named `prefix` (as a crashed
  // daemon leaves behind), one live channel under an unrelated name, and a
  // neighbouring registry whose name merely starts with `prefix`.
  auto a = ShmChannel::create(prefix + "-chan-0-1");
  auto b = ShmChannel::create(prefix + "-chan-1-2");
  auto c = ShmChannel::create(prefix);
  const auto other_name = unique_name("survivor");
  auto other = ShmChannel::create(other_name);
  auto neighbour = ShmChannel::create(prefix + "2");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(other, nullptr);
  ASSERT_NE(neighbour, nullptr);

  std::string error;
  EXPECT_EQ(cleanup_stale_segments(prefix, &error), 3u) << error;
  // Unlinked: new attaches fail even though our mappings remain valid.
  EXPECT_EQ(ShmChannel::attach(prefix + "-chan-0-1"), nullptr);
  // The unrelated segment and the neighbour survived and are attachable.
  EXPECT_NE(ShmChannel::attach(other_name), nullptr);
  EXPECT_NE(ShmChannel::attach(prefix + "2"), nullptr);
  // Idempotent: nothing left to clean.
  EXPECT_EQ(cleanup_stale_segments(prefix), 0u);

  // The creators' destructors will shm_unlink names that are already gone;
  // that must be harmless (exercised when this scope closes).
}

TEST(ShmChannel, CleanupRefusesEmptyPrefix) {
  std::string error;
  EXPECT_EQ(cleanup_stale_segments("", &error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cleanup_stale_segments("/", &error), 0u);
}

TEST(ShmChannel, TwoProcessFigureOne) {
  // Parent = agent process; child = application process with a live runtime
  // pumped through a RuntimeAdapter. The command must shrink the child's
  // pool; the telemetry must report it back.
  const auto name = unique_name("fork");
  std::string error;
  auto agent_side = ShmChannel::create(name, &error);
  ASSERT_NE(agent_side, nullptr) << error;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // ---- child: the application ----
    auto app_side = ShmChannel::attach(name);
    if (!app_side) _exit(2);
    rt::Runtime runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "child"});
    RuntimeAdapter adapter(runtime, *app_side);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
    while (std::chrono::steady_clock::now() < deadline) {
      adapter.pump();
      if (runtime.running_threads() == 1 && runtime.blocked_threads() == 3) {
        _exit(0);  // reached the commanded state
      }
      std::this_thread::sleep_for(1ms);
    }
    _exit(3);  // never converged
  }

  // ---- parent: the agent ----
  Command cmd;
  cmd.type = CommandType::kSetTotalThreads;
  cmd.total_threads = 1;
  cmd.seq = 1;
  ASSERT_TRUE(agent_side->push_command(cmd));

  // Watch telemetry until the child reports one running thread.
  bool converged = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < deadline && !converged) {
    while (auto t = agent_side->pop_telemetry()) {
      if (t->running_threads == 1 && t->blocked_threads == 3) converged = true;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(converged) << "no converged telemetry from the child process";

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace numashare::agent
