// ForeignMonitor hysteresis and fencing over scripted procfs trees: a
// process must persist before it is admitted into the model, must stay
// missing before it is dropped, big consumers get (advisory) fences, and
// the aggregated ForeignLoad tracks exactly the admitted set.
//
// The monitor's hysteresis is two scans each way and its fence threshold half
// a core. The scanner's EWMA (alpha 0.5, from zero) halves a process's first
// measured share, so the hogs below run at 2 cores for their first scanned
// second and 1 core after: they read exactly 1.0 smoothed cores throughout.
#include "foreign/monitor.hpp"

#include <gtest/gtest.h>

#include "support/procfs_writer.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {
namespace {

topo::Machine two_by_two() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

MonitorOptions test_options(const std::string& root) {
  MonitorOptions options;
  options.scanner.proc_root = root;
  options.scanner.ticks_per_second = 100;
  return options;
}

/// Advance the writer's fake process by `ticks` and take one monitor step.
std::vector<ForeignEvent> step(ProcfsWriter& proc, ForeignMonitor& monitor, double now,
                               std::int32_t pid, std::uint64_t cumulative_ticks,
                               std::uint64_t mask = 0) {
  proc.set_process(pid, "hog", cumulative_ticks, mask);
  return monitor.tick(now);
}

TEST(ForeignMonitor, AppearHysteresisDelaysAdmission) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  EXPECT_TRUE(step(proc, monitor, 1.0, 100, 0).empty());    // priming scan
  EXPECT_TRUE(step(proc, monitor, 2.0, 100, 200).empty());  // 1st sighting
  EXPECT_FALSE(monitor.load().any());                       // not priced yet

  const auto events = step(proc, monitor, 3.0, 100, 300);   // 2nd sighting
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kSeen);
  EXPECT_EQ(events[0].pid, 100);
  EXPECT_EQ(events[1].kind, ForeignEvent::Kind::kFence);  // 1.0 >= 0.5 cores
  EXPECT_EQ(events[1].fence, FenceState::kAdvisory);      // enforcement off
  EXPECT_TRUE(monitor.load().any());
}

TEST(ForeignMonitor, SmallConsumerAdmittedWithoutFence) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  step(proc, monitor, 1.0, 100, 0);
  step(proc, monitor, 2.0, 100, 40);                       // 0.2 smoothed cores
  const auto events = step(proc, monitor, 3.0, 100, 80);   // 0.3 smoothed
  ASSERT_EQ(events.size(), 1u);                            // kSeen only
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kSeen);
  const auto tracked = monitor.tracked();
  ASSERT_EQ(tracked.size(), 1u);
  EXPECT_EQ(tracked[0].fence, FenceState::kNone);
}

TEST(ForeignMonitor, FenceTargetsTheDominantNode) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  // Pinned to node 1's cores (mask 0xC): the fence must pick node 1.
  step(proc, monitor, 1.0, 100, 0, 0xC);
  step(proc, monitor, 2.0, 100, 200, 0xC);
  const auto events = step(proc, monitor, 3.0, 100, 300, 0xC);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, ForeignEvent::Kind::kFence);
  EXPECT_EQ(events[1].node, 1u);
  const auto& load = monitor.load();
  ASSERT_EQ(load.busy_cores.size(), 2u);
  EXPECT_NEAR(load.busy_cores[0], 0.0, 1e-9);
  EXPECT_NEAR(load.busy_cores[1], 1.0, 1e-9);
  // Default bridge: fair-share bandwidth, 10 GB/s over 2 cores = 5 per core.
  ASSERT_EQ(load.bandwidth.size(), 2u);
  EXPECT_NEAR(load.bandwidth[1], 5.0, 1e-9);
}

TEST(ForeignMonitor, GoneHysteresisThenDropped) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  step(proc, monitor, 1.0, 100, 0);
  step(proc, monitor, 2.0, 100, 200);
  step(proc, monitor, 3.0, 100, 300);  // admitted
  ASSERT_TRUE(monitor.load().any());

  proc.remove_process(100);
  EXPECT_TRUE(monitor.tick(4.0).empty());  // 1st miss: still priced
  EXPECT_TRUE(monitor.load().any());

  const auto events = monitor.tick(5.0);   // 2nd miss: dropped
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kGone);
  EXPECT_EQ(events[0].pid, 100);
  EXPECT_FALSE(monitor.load().any());
  EXPECT_TRUE(monitor.tracked().empty());
}

TEST(ForeignMonitor, BlipBelowAppearTicksNeverAdmitted) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  step(proc, monitor, 1.0, 100, 0);
  EXPECT_TRUE(step(proc, monitor, 2.0, 100, 200).empty());  // one sighting
  proc.remove_process(100);
  EXPECT_TRUE(monitor.tick(3.0).empty());
  EXPECT_TRUE(monitor.tick(4.0).empty());  // aged out silently, never seen
  EXPECT_FALSE(monitor.load().any());
  EXPECT_TRUE(monitor.tracked().empty());
}

TEST(ForeignMonitor, ReleaseAllEmitsAndClearsFences) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  step(proc, monitor, 1.0, 100, 0);
  step(proc, monitor, 2.0, 100, 200);
  step(proc, monitor, 3.0, 100, 300);  // admitted + advisory fence

  const auto events = monitor.release_all();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kRelease);
  EXPECT_EQ(events[0].pid, 100);
  const auto tracked = monitor.tracked();
  ASSERT_EQ(tracked.size(), 1u);
  EXPECT_EQ(tracked[0].fence, FenceState::kNone);
  // Idempotent: nothing left to release.
  EXPECT_TRUE(monitor.release_all().empty());
}

TEST(ForeignMonitor, TrackedSnapshotIsPidSorted) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignMonitor monitor(machine, test_options(proc.root()));

  proc.set_process(300, "b", 0);
  proc.set_process(100, "a", 0);
  monitor.tick(1.0);
  proc.set_process(300, "b", 100);
  proc.set_process(100, "a", 100);
  monitor.tick(2.0);
  const auto tracked = monitor.tracked();
  ASSERT_EQ(tracked.size(), 2u);
  EXPECT_EQ(tracked[0].pid, 100);
  EXPECT_EQ(tracked[1].pid, 300);
  EXPECT_FALSE(tracked[0].admitted);  // still pending at streak 1
}

TEST(ForeignFence, AdvisoryWhenEnforcementDisabled) {
  const auto machine = two_by_two();
  EXPECT_EQ(apply_fence(machine, 1234567, 0, /*enforce=*/false), FenceState::kAdvisory);
  // Advisory fences have nothing to undo.
  EXPECT_EQ(release_fence(machine, 1234567, FenceState::kAdvisory), FenceState::kNone);
}

TEST(ForeignFence, EnforcedOnOwnProcessApplies) {
  // We own ourselves, so sched_setaffinity must succeed (kApplied) on any
  // host whose cpu 0 exists; release restores the full mask.
  const auto machine = topo::Machine::symmetric(1, 1, 1.0, 10.0);
  const auto state = apply_fence(machine, ::getpid(), 0, /*enforce=*/true);
  EXPECT_TRUE(state == FenceState::kApplied || state == FenceState::kAdvisory)
      << to_string(state);
  if (state == FenceState::kApplied) {
    EXPECT_EQ(release_fence(machine, ::getpid(), state), FenceState::kNone);
  }
}

TEST(ForeignEventKind, Names) {
  EXPECT_STREQ(to_string(ForeignEvent::Kind::kSeen), "seen");
  EXPECT_STREQ(to_string(ForeignEvent::Kind::kGone), "gone");
  EXPECT_STREQ(to_string(ForeignEvent::Kind::kFence), "fence");
  EXPECT_STREQ(to_string(ForeignEvent::Kind::kRelease), "release");
}

}  // namespace
}  // namespace numashare::foreign
