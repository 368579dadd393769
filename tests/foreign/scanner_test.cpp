// ForeignScanner over scripted procfs trees (support/procfs_writer): CPU
// share measurement from tick deltas, EWMA smoothing, Cpus_allowed node
// attribution, participant exclusion, and the re-priming discipline for
// vanished/reused pids.
//
// The scanner smooths with a fixed EWMA (alpha 0.5) that starts from zero,
// so a process's first measured share reads half its raw share: a test that
// wants the raw value steps the process twice at the same rate, or expects
// the halved value.
#include "foreign/scanner.hpp"

#include <gtest/gtest.h>

#include "support/procfs_writer.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {
namespace {

topo::Machine two_by_two() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

/// Deterministic scanner: tps pinned.
ScannerOptions raw_options(const std::string& root) {
  ScannerOptions options;
  options.proc_root = root;
  options.ticks_per_second = 100;
  return options;
}

TEST(ForeignScanner, FirstScanPrimesAndReturnsNothing) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "hog", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  EXPECT_FALSE(scanner.scan(1.0).has_value());
}

TEST(ForeignScanner, MeasuresCoresFromTickDeltas) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "hog", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  // 150 ticks at 100 ticks/s over 1 second = 1.5 cores, read as 0.75 by
  // the EWMA's first step from zero.
  proc.set_process(100, "hog", 150);
  auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_EQ(result->processes[0].pid, 100);
  EXPECT_EQ(result->processes[0].name, "hog");
  EXPECT_NEAR(result->processes[0].cpu_cores, 0.75, 1e-9);

  // Another second at 2.25 cores: 0.5 * 2.25 + 0.5 * 0.75 = 1.5.
  proc.set_process(100, "hog", 375);
  result = scanner.scan(3.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 1.5, 1e-9);
}

TEST(ForeignScanner, EwmaSmoothsSpikes) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}});
  proc.set_process(100, "spiky", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  // Raw 2.0 cores, EWMA from 0: 0.5 * 2.0 = 1.0.
  proc.set_process(100, "spiky", 200);
  auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 1.0, 1e-9);

  // Process goes idle: the estimate halves instead of vanishing instantly.
  result = scanner.scan(3.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 0.5, 1e-9);
}

TEST(ForeignScanner, CpusAllowedAttributesToTheMaskedNode) {
  const auto machine = two_by_two();  // node 0 = cores {0,1}, node 1 = {2,3}
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "pinned", 0, /*allowed_mask=*/0xC);  // cores 2,3
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "pinned", 100, 0xC);  // 1.0 raw cores, 0.5 smoothed
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  const auto& process = result->processes[0];
  EXPECT_EQ(process.allowed_mask, 0xCu);
  ASSERT_EQ(process.node_cores.size(), 2u);
  EXPECT_NEAR(process.node_cores[0], 0.0, 1e-9);
  EXPECT_NEAR(process.node_cores[1], 0.5, 1e-9);
}

TEST(ForeignScanner, UnrestrictedMaskSpreadsByNodeSize) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "roamer", 0);  // mask 0 -> writer emits all-ff
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "roamer", 200);  // 2.0 raw cores, 1.0 smoothed
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].node_cores[0], 0.5, 1e-9);
  EXPECT_NEAR(result->processes[0].node_cores[1], 0.5, 1e-9);
}

TEST(ForeignScanner, ParticipantsAreNeverForeign) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "ours", 0);
  proc.set_process(200, "theirs", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.set_participants({100});
  scanner.scan(1.0);

  proc.set_process(100, "ours", 100);
  proc.set_process(200, "theirs", 100);
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_EQ(result->processes[0].pid, 200);
}

TEST(ForeignScanner, MinCoresFloorDropsIdleShells) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "hog", 0);
  proc.set_process(200, "shell", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "hog", 100);   // 1.0 raw cores, 0.5 smoothed
  proc.set_process(200, "shell", 9);   // 0.09 raw, 0.045 smoothed: below the 0.05 floor
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_EQ(result->processes[0].pid, 100);
}

TEST(ForeignScanner, VanishedPidIsForgottenAndReuseReprimes) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "mortal", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "mortal", 100);
  ASSERT_EQ(scanner.scan(2.0)->processes.size(), 1u);

  proc.remove_process(100);
  EXPECT_TRUE(scanner.scan(3.0)->processes.empty());

  // Same pid returns with a *lower* counter (pid reuse). The first sighting
  // must prime, not compute a garbage delta against the dead incarnation.
  proc.set_process(100, "reborn", 10);
  EXPECT_TRUE(scanner.scan(4.0)->processes.empty());
  // 0.5 raw cores, smoothed from zero: the dead incarnation's EWMA is gone.
  proc.set_process(100, "reborn", 60);
  const auto result = scanner.scan(5.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 0.25, 1e-9);
}

TEST(ForeignScanner, CounterRegressionReprimesInPlace) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "jumpy", 500);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  // Counter goes backwards without the directory ever vanishing (pid reuse
  // between scans): prime only, no underflow garbage.
  proc.set_process(100, "jumpy", 20);
  EXPECT_TRUE(scanner.scan(2.0)->processes.empty());
  proc.set_process(100, "jumpy", 220);  // 2.0 raw cores, 1.0 smoothed
  const auto result = scanner.scan(3.0);
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 1.0, 1e-9);
}

TEST(ForeignScanner, NodeBusyCoresFromPerCpuLines) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  // cpu0 fully busy, cpu1 half, cpus 2/3 idle: node 0 = 1.5 busy cores.
  proc.set_cpu_times({{100, 100}, {50, 150}, {0, 200}, {0, 200}});
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->node_busy_cores.size(), 2u);
  EXPECT_NEAR(result->node_busy_cores[0], 1.5, 1e-9);
  EXPECT_NEAR(result->node_busy_cores[1], 0.0, 1e-9);
}

TEST(ForeignScanner, MaxProcessesKeepsLargestConsumers) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  // One process more than the 32-process cap.
  constexpr std::int32_t kFirst = 100, kLast = 132;
  for (std::int32_t pid = kFirst; pid <= kLast; ++pid) proc.set_process(pid, "p", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  // Consumption ordered by pid: 20, 40, ..., 660 ticks, so even the smallest
  // (0.1 smoothed cores) clears the min-cores floor.
  for (std::int32_t pid = kFirst; pid <= kLast; ++pid) {
    proc.set_process(pid, "p", static_cast<std::uint64_t>(pid - kFirst + 1) * 20);
  }
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 32u);
  EXPECT_EQ(result->processes[0].pid, kLast);  // largest first
  EXPECT_EQ(result->processes[1].pid, kLast - 1);
  EXPECT_EQ(result->processes.back().pid, kFirst + 1);  // the smallest is cut
}

TEST(ForeignScanner, CommWithSpacesAndParensParses) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "web content (x)", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "web content (x)", 200);  // 2.0 raw cores, 1.0 smoothed
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_EQ(result->processes[0].name, "web content (x)");
  EXPECT_NEAR(result->processes[0].cpu_cores, 1.0, 1e-9);
}

TEST(ForeignScanner, MissingRootYieldsEmptyScans) {
  const auto machine = two_by_two();
  ForeignScanner scanner(machine, raw_options("/nonexistent/numashare-test"));
  EXPECT_FALSE(scanner.scan(1.0).has_value());  // priming
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->processes.empty());
}

}  // namespace
}  // namespace numashare::foreign
