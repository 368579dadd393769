// Directed regressions for the foreign fault sites (docs/INJECT.md):
// foreign.appear materializes a synthetic hog on node 0, foreign.balloon
// inflates it (clamped to the node's physical cores), foreign.die removes
// it and the gone-hysteresis ages it out. These run against a bare
// ForeignMonitor over a nonexistent proc root, so every observation is
// synthetic — exactly how the 120-seed sweep scripts foreign churn without
// real processes.
#include <gtest/gtest.h>

#include <string>

#include "foreign/monitor.hpp"
#include "inject/fault.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {
namespace {

MonitorOptions synthetic_options() {
  MonitorOptions options;
  // Nonexistent root: scans observe nothing real, only the fault sites feed
  // the monitor. (The first scan still primes; synthetic pids are exempt
  // from the priming no-verdict rule.)
  options.scanner.proc_root = "/nonexistent/ns-foreign-inject";
  return options;
}

class ForeignInject : public ::testing::Test {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

TEST_F(ForeignInject, AppearAdmitsASyntheticHogWithAnAdvisoryFence) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ForeignMonitor monitor(machine, synthetic_options());
  ASSERT_TRUE(inject::install_spec("foreign.appear@count=1"));

  // Tick 1: the hog materializes (half of node 0's cores) but hysteresis
  // holds admission back.
  EXPECT_TRUE(monitor.tick(1.0).empty());
  ASSERT_EQ(monitor.tracked().size(), 1u);
  EXPECT_TRUE(monitor.tracked()[0].synthetic);
  EXPECT_DOUBLE_EQ(monitor.tracked()[0].cpu_cores, 1.0);
  EXPECT_FALSE(monitor.load().any());

  // Tick 2: second consecutive sighting -> admitted and fenced. Synthetic
  // hogs are never enforced, so the fence stays advisory.
  const auto events = monitor.tick(2.0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kSeen);
  EXPECT_EQ(events[0].name, "synthetic-hog");
  EXPECT_EQ(events[1].kind, ForeignEvent::Kind::kFence);
  EXPECT_EQ(events[1].node, 0u);
  EXPECT_EQ(events[1].fence, FenceState::kAdvisory);

  ASSERT_TRUE(monitor.load().any());
  EXPECT_DOUBLE_EQ(monitor.load().busy_cores[0], 1.0);
  EXPECT_DOUBLE_EQ(monitor.load().busy_cores[1], 0.0);
  EXPECT_GT(monitor.load().bandwidth[0], 0.0);
}

TEST_F(ForeignInject, BalloonInflatesEveryHogAndClampsToTheNode) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ForeignMonitor monitor(machine, synthetic_options());
  ASSERT_TRUE(inject::install_spec("foreign.appear@count=1"));
  monitor.tick(1.0);
  monitor.tick(2.0);  // admitted at 1.0 cores

  ASSERT_TRUE(inject::install_spec("foreign.balloon@pct=50,count=1"));
  monitor.tick(3.0);
  ASSERT_EQ(monitor.tracked().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor.tracked()[0].cpu_cores, 1.5);
  EXPECT_DOUBLE_EQ(monitor.load().busy_cores[0], 1.5);

  // A 400% balloon would put the hog at 7.5 cores; the node only has 2.
  ASSERT_TRUE(inject::install_spec("foreign.balloon@pct=400,count=1"));
  monitor.tick(4.0);
  EXPECT_DOUBLE_EQ(monitor.tracked()[0].cpu_cores, 2.0);
  EXPECT_DOUBLE_EQ(monitor.load().busy_cores[0], 2.0);
}

TEST_F(ForeignInject, DieAgesTheHogOutThroughGoneHysteresis) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ForeignMonitor monitor(machine, synthetic_options());
  ASSERT_TRUE(inject::install_spec("foreign.appear@count=1"));
  monitor.tick(1.0);
  monitor.tick(2.0);  // admitted

  ASSERT_TRUE(inject::install_spec("foreign.die@count=1"));
  // First miss: still tracked, still priced — one flap must not evict.
  EXPECT_TRUE(monitor.tick(3.0).empty());
  EXPECT_TRUE(monitor.load().any());

  // Second consecutive miss: dropped. The advisory fence goes with the
  // entry (only applied fences emit a release on age-out).
  const auto events = monitor.tick(4.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, ForeignEvent::Kind::kGone);
  EXPECT_FALSE(monitor.load().any());
  EXPECT_TRUE(monitor.tracked().empty());
}

TEST_F(ForeignInject, ReleaseAllReleasesTheSyntheticFenceExactlyOnce) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ForeignMonitor monitor(machine, synthetic_options());
  ASSERT_TRUE(inject::install_spec("foreign.appear@count=1"));
  monitor.tick(1.0);
  monitor.tick(2.0);  // admitted + advisory fence

  const auto released = monitor.release_all();
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].kind, ForeignEvent::Kind::kRelease);
  EXPECT_TRUE(monitor.release_all().empty());  // idempotent
}

TEST_F(ForeignInject, RepeatedAppearStacksIndependentHogs) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ForeignMonitor monitor(machine, synthetic_options());
  ASSERT_TRUE(inject::install_spec("foreign.appear@count=2"));
  monitor.tick(1.0);  // two ticks with the site hot: two distinct pids
  monitor.tick(2.0);
  ASSERT_EQ(monitor.tracked().size(), 2u);
  EXPECT_NE(monitor.tracked()[0].pid, monitor.tracked()[1].pid);
  // The first hog has two sightings and is admitted; both pile onto node 0.
  monitor.tick(3.0);
  EXPECT_DOUBLE_EQ(monitor.load().busy_cores[0], 2.0);
}

}  // namespace
}  // namespace numashare::foreign
