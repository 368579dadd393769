// Daemon integration for foreign-workload arbitration: the monitor runs on
// the configured cadence, admissions/departures produce foreign-seen /
// foreign-gone / foreign-fence journal records, the tracked set is mirrored
// into the registry's foreign shard (what daemon-status renders), and
// shutdown releases every fence with a journaled record.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "agent/policies.hpp"
#include "daemon/daemon.hpp"
#include "daemon/journal.hpp"
#include "daemon/registry.hpp"
#include "support/procfs_writer.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

DaemonOptions foreign_options(const std::string& registry, const std::string& journal,
                              const std::string& proc_root) {
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  options.foreign_enabled = true;
  options.foreign_scan_every_ticks = 1;
  options.foreign.scanner.proc_root = proc_root;
  options.foreign.scanner.ticks_per_second = 100;
  return options;
}

TEST(DaemonForeign, DetectJournalMirrorAndRelease) {
  const auto registry_name = unique_registry("full");
  const auto journal = unique_journal("full");
  foreign::ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  proc.set_process(4242, "hog", 0);

  {
    Daemon daemon(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0),
                  std::make_unique<agent::ModelGuidedPolicy>(),
                  foreign_options(registry_name, journal, proc.root()));
    ASSERT_TRUE(daemon.init());
    ASSERT_NE(daemon.foreign_monitor(), nullptr);

    // The hog runs 2 cores, then 1: the scanner's EWMA (alpha 0.5, from
    // zero) reads 1.0 cores at both sightings.
    daemon.tick(1.0);  // priming scan
    proc.set_process(4242, "hog", 200);
    daemon.tick(2.0);  // first sighting
    EXPECT_EQ(daemon.stats().foreign_seen, 0u);  // hysteresis holds it back
    proc.set_process(4242, "hog", 300);
    daemon.tick(3.0);  // second sighting: admitted + fenced
    EXPECT_EQ(daemon.stats().foreign_seen, 1u);
    EXPECT_EQ(daemon.stats().foreign_fences, 1u);
    EXPECT_GE(daemon.stats().foreign_scans, 3u);

    // The registry's foreign shard mirrors the tracked set for daemon-status.
    auto observer = Registry::open(registry_name);
    ASSERT_NE(observer, nullptr);
    const auto& header = observer->header();
    ASSERT_GE(header.foreign_count.load(), 1u);
    const auto& slot = header.foreign[0];
    EXPECT_EQ(slot.pid.load(), 4242);
    EXPECT_STREQ(slot.name, "hog");
    EXPECT_EQ(slot.busy_millicores.load(), 1000u);  // 1.0 cores
    EXPECT_EQ(slot.node_millicores[0].load(), 500u);
    EXPECT_EQ(slot.node_millicores[1].load(), 500u);
    EXPECT_EQ(slot.fence.load(),
              static_cast<std::uint32_t>(foreign::FenceState::kAdvisory));

    // The hog exits: after two missed scans it is dropped everywhere.
    proc.remove_process(4242);
    daemon.tick(4.0);
    EXPECT_EQ(daemon.stats().foreign_gone, 0u);
    daemon.tick(5.0);
    EXPECT_EQ(daemon.stats().foreign_gone, 1u);
    EXPECT_EQ(header.foreign_count.load(), 0u);

    // A second hog is still fenced at shutdown: release must be journaled.
    proc.set_process(5555, "late-hog", 0);
    daemon.tick(6.0);   // primes the new pid
    proc.set_process(5555, "late-hog", 100);
    daemon.tick(7.0);
    proc.set_process(5555, "late-hog", 200);
    daemon.tick(8.0);
    EXPECT_EQ(daemon.stats().foreign_seen, 2u);
    daemon.shutdown();
    EXPECT_EQ(daemon.stats().foreign_releases, 1u);
  }

  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "foreign-seen"), 2u);
  EXPECT_EQ(count_events(entries, "foreign-gone"), 1u);
  // Two fence decisions plus one shutdown release, all "foreign-fence".
  EXPECT_EQ(count_events(entries, "foreign-fence"), 3u);
  std::size_t released = 0;
  for (const auto& entry : entries) {
    if (entry.event != "foreign-fence") continue;
    const auto state = journal_field(entry.raw, "state");
    ASSERT_TRUE(state.has_value());
    released += *state == "\"released\"" ? 1 : 0;
  }
  EXPECT_EQ(released, 1u);
  std::remove(journal.c_str());
}

TEST(DaemonForeign, DisabledByDefault) {
  const auto registry_name = unique_registry("off");
  Daemon daemon(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0),
                std::make_unique<agent::ModelGuidedPolicy>(), [&] {
                  DaemonOptions options;
                  options.registry_name = registry_name;
                  return options;
                }());
  ASSERT_TRUE(daemon.init());
  EXPECT_EQ(daemon.foreign_monitor(), nullptr);
  daemon.tick(1.0);
  EXPECT_EQ(daemon.stats().foreign_scans, 0u);

  auto observer = Registry::open(registry_name);
  ASSERT_NE(observer, nullptr);
  EXPECT_EQ(observer->header().foreign_count.load(), 0u);
}

TEST(DaemonForeign, ScanCadenceHonored) {
  const auto registry_name = unique_registry("cadence");
  foreign::ProcfsWriter proc;
  proc.set_cpu_times({{0, 100}, {0, 100}, {0, 100}, {0, 100}});
  auto options = foreign_options(registry_name, "", proc.root());
  options.foreign_scan_every_ticks = 5;
  Daemon daemon(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0),
                std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());
  for (int i = 1; i <= 20; ++i) daemon.tick(static_cast<double>(i));
  EXPECT_EQ(daemon.stats().foreign_scans, 4u);
}

}  // namespace
}  // namespace numashare::nsd
