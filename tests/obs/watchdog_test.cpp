// Scheduler-latency watchdog, in virtual time: poll(now_us) is stepped
// explicitly (the daemon compliance-test discipline), so detection and
// recovery are deterministic — no sleeps, no real clock. The real-time
// monitor thread is exercised once at the end for lifecycle coverage only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/watchdog.hpp"
#include "trace/trace.hpp"

namespace numashare::obs {
namespace {

constexpr std::int64_t kDeadline = 100'000;  // 100 ms virtual

struct FakeWorkers {
  std::vector<WatchdogSample> samples;

  explicit FakeWorkers(std::uint32_t n) : samples(n) {}

  Watchdog::Source source() {
    return [this](std::vector<WatchdogSample>& out) { out = samples; };
  }
  void beat(std::uint32_t worker) { ++samples[worker].heartbeat; }
};

WatchdogOptions virtual_options(trace::Tracer* tracer = nullptr) {
  WatchdogOptions options;
  options.deadline_us = kDeadline;
  options.tracer = tracer;
  return options;
}

TEST(Watchdog, HealthyWorkersNeverAccused) {
  FakeWorkers workers(3);
  Watchdog dog(3, virtual_options(), workers.source());

  std::int64_t now = 0;
  EXPECT_EQ(dog.poll(now), 0u);  // first poll initializes, never accuses
  // Heartbeats keep moving: stepping far past the deadline repeatedly must
  // never produce a false positive.
  for (int round = 0; round < 20; ++round) {
    now += kDeadline * 2;
    for (std::uint32_t w = 0; w < 3; ++w) workers.beat(w);
    EXPECT_EQ(dog.poll(now), 0u) << "round " << round;
  }
  EXPECT_EQ(dog.stall_events(), 0u);
}

TEST(Watchdog, IdleButScheduledIsHealthy) {
  // An idle worker still bumps its beat on every park timeout; the watchdog
  // must treat "no tasks" and "not scheduled" differently. Here the beat
  // moves by exactly 1 per deadline — healthy forever.
  FakeWorkers workers(1);
  Watchdog dog(1, virtual_options(), workers.source());
  std::int64_t now = 0;
  dog.poll(now);
  for (int round = 0; round < 50; ++round) {
    now += kDeadline - 1;
    workers.beat(0);
    EXPECT_EQ(dog.poll(now), 0u);
  }
}

TEST(Watchdog, SilentWorkerDetectedAfterDeadline) {
  FakeWorkers workers(2);
  Watchdog dog(2, virtual_options(), workers.source());

  std::int64_t now = 0;
  dog.poll(now);
  // Worker 1 goes silent; worker 0 keeps beating.
  now += kDeadline - 1;
  workers.beat(0);
  EXPECT_EQ(dog.poll(now), 0u) << "deadline not yet expired";

  now += 1;  // exactly at the deadline boundary for worker 1
  workers.beat(0);
  EXPECT_EQ(dog.poll(now), 1u);
  EXPECT_FALSE(dog.is_stalled(0));
  EXPECT_TRUE(dog.is_stalled(1));
  EXPECT_EQ(dog.stalled_count(), 1u);
  EXPECT_EQ(dog.stall_events(), 1u);
}

TEST(Watchdog, RecoveryClearsStallAndCountsOneEpisode) {
  FakeWorkers workers(1);
  Watchdog dog(1, virtual_options(), workers.source());

  std::int64_t now = 0;
  dog.poll(now);
  now += kDeadline;
  EXPECT_EQ(dog.poll(now), 1u);
  // Staying silent keeps it one episode, not one per poll.
  now += kDeadline;
  EXPECT_EQ(dog.poll(now), 1u);
  EXPECT_EQ(dog.stall_events(), 1u);

  // A single beat recovers it.
  workers.beat(0);
  now += 1;
  EXPECT_EQ(dog.poll(now), 0u);
  EXPECT_FALSE(dog.is_stalled(0));

  // A second silence is a second episode.
  now += kDeadline;
  EXPECT_EQ(dog.poll(now), 1u);
  EXPECT_EQ(dog.stall_events(), 2u);
}

TEST(Watchdog, PolicyBlockedWorkersAreNeverStalled) {
  // commanded_online=false means the policy parked the worker on purpose —
  // silence is expected, not a scheduling failure.
  FakeWorkers workers(2);
  workers.samples[1].commanded_online = false;
  Watchdog dog(2, virtual_options(), workers.source());

  std::int64_t now = 0;
  dog.poll(now);
  for (int round = 0; round < 10; ++round) {
    now += kDeadline * 3;
    workers.beat(0);
    EXPECT_EQ(dog.poll(now), 0u);
  }

  // Every blocked poll resets the worker's clock, so coming back online
  // grants a full deadline (from the last blocked poll) before it can be
  // accused — even though its beat never moved while blocked.
  workers.samples[1].commanded_online = true;
  now += kDeadline - 1;
  workers.beat(0);
  EXPECT_EQ(dog.poll(now), 0u) << "fresh deadline after unblocking";
  now += 1;
  workers.beat(0);
  EXPECT_EQ(dog.poll(now), 1u) << "silent for a full deadline after unblocking";
  EXPECT_TRUE(dog.is_stalled(1));
  EXPECT_FALSE(dog.is_stalled(0));
}

TEST(Watchdog, StallAndRecoverEmitTraceInstants) {
  trace::Tracer tracer;
  FakeWorkers workers(3);
  Watchdog dog(3, virtual_options(&tracer), workers.source());

  // Workers 0 and 1 keep beating; worker 2 stalls, then recovers. Its
  // instants land on its own lane, so they line up with the runtime's
  // worker lanes.
  std::int64_t now = 0;
  dog.poll(now);
  now += kDeadline;
  workers.beat(0);
  workers.beat(1);
  dog.poll(now);  // stall
  workers.beat(2);
  now += 1;
  dog.poll(now);  // recover

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "worker-stall");
  EXPECT_STREQ(events[1].name, "worker-recover");
  EXPECT_EQ(events[0].thread, 2u);
  EXPECT_EQ(events[1].thread, 2u);
}

TEST(Watchdog, DisabledDeadlineNeverStarts) {
  FakeWorkers workers(1);
  WatchdogOptions options;
  options.deadline_us = 0;
  Watchdog dog(1, options, workers.source());
  dog.start();  // no-op: deadline 0 disables the monitor
  dog.stop();
  SUCCEED();
}

TEST(Watchdog, MonitorThreadLifecycle) {
  // Real-time smoke: the monitor starts, observes moving beats without
  // accusations (generous deadline), and stops cleanly. Deadline is scaled
  // far above any sanitizer slowdown so this cannot flake.
  std::atomic<std::uint64_t> beat{0};
  WatchdogOptions options;
  options.deadline_us = 60'000'000;  // 60 s: unreachable in-test
  Watchdog dog(1, options, [&beat](std::vector<WatchdogSample>& out) {
    out[0].heartbeat = beat.fetch_add(1, std::memory_order_relaxed);
  });
  dog.start();
  dog.start();  // idempotent
  // Let the monitor take at least one real poll.
  while (beat.load(std::memory_order_relaxed) == 0) {
  }
  dog.stop();
  EXPECT_EQ(dog.stalled_count(), 0u);
  EXPECT_EQ(dog.stall_events(), 0u);
}

}  // namespace
}  // namespace numashare::obs
