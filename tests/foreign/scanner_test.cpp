// ForeignScanner over scripted procfs trees (support/procfs_writer): CPU
// share measurement from tick deltas, EWMA smoothing, Cpus_allowed node
// attribution, participant exclusion, and the re-priming discipline for
// vanished/reused pids.
#include "foreign/scanner.hpp"

#include <gtest/gtest.h>

#include "support/procfs_writer.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {
namespace {

topo::Machine two_by_two() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

/// Deterministic scanner: tps pinned, no smoothing unless a test wants it.
ScannerOptions raw_options(const std::string& root, double alpha = 1.0) {
  ScannerOptions options;
  options.proc_root = root;
  options.ticks_per_second = 100;
  options.ewma_alpha = alpha;
  options.min_cores = 0.05;
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

  // 150 ticks at 100 ticks/s over 1 second = 1.5 cores.
  proc.set_process(100, "hog", 150);
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_EQ(result->processes[0].pid, 100);
  EXPECT_EQ(result->processes[0].name, "hog");
  EXPECT_NEAR(result->processes[0].cpu_cores, 1.5, 1e-9);
}

TEST(ForeignScanner, EwmaSmoothsSpikes) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}});
  proc.set_process(100, "spiky", 0);
  ForeignScanner scanner(machine, raw_options(proc.root(), /*alpha=*/0.5));
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

  proc.set_process(100, "pinned", 100, 0xC);
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  const auto& process = result->processes[0];
  EXPECT_EQ(process.allowed_mask, 0xCu);
  ASSERT_EQ(process.node_cores.size(), 2u);
  EXPECT_NEAR(process.node_cores[0], 0.0, 1e-9);
  EXPECT_NEAR(process.node_cores[1], 1.0, 1e-9);
}

TEST(ForeignScanner, UnrestrictedMaskSpreadsByNodeSize) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "roamer", 0);  // mask 0 -> writer emits all-ff
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "roamer", 100);
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

  proc.set_process(100, "hog", 100);   // 1.0 cores
  proc.set_process(200, "shell", 1);   // 0.01 cores, below the 0.05 floor
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
  proc.set_process(100, "reborn", 60);
  const auto result = scanner.scan(5.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 1u);
  EXPECT_NEAR(result->processes[0].cpu_cores, 0.5, 1e-9);
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
  proc.set_process(100, "jumpy", 120);
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
  for (std::int32_t pid = 100; pid < 104; ++pid) proc.set_process(pid, "p", 0);
  auto options = raw_options(proc.root());
  options.max_processes = 2;
  ForeignScanner scanner(machine, options);
  scanner.scan(1.0);

  // Consumption ordered by pid: 10, 20, 30, 40 ticks.
  for (std::int32_t pid = 100; pid < 104; ++pid) {
    proc.set_process(pid, "p", static_cast<std::uint64_t>(pid - 99) * 10);
  }
  const auto result = scanner.scan(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->processes.size(), 2u);
  EXPECT_EQ(result->processes[0].pid, 103);  // largest first
  EXPECT_EQ(result->processes[1].pid, 102);
}

TEST(ForeignScanner, CommWithSpacesAndParensParses) {
  const auto machine = two_by_two();
  ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(100, "web content (x)", 0);
  ForeignScanner scanner(machine, raw_options(proc.root()));
  scanner.scan(1.0);

  proc.set_process(100, "web content (x)", 100);
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
