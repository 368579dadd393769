// Command-compliance watchdog and checkpointed journal.
//
// The watchdog half drives a real Daemon with manual virtual-time ticks and
// a FailoverClient whose acks the test controls exactly: every health
// transition (healthy -> laggard -> quarantined -> evicted, plus the
// readmission paths and the exponential probe backoff) is pinned down in
// ticks of virtual time. The journal half covers the checkpoint record,
// side-file compaction, and recovery from checkpoint + tail.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "agent/channel.hpp"
#include "agent/policies.hpp"
#include "agent/protocol.hpp"
#include "daemon/daemon.hpp"
#include "daemon/failover.hpp"
#include "daemon/journal.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

topo::Machine test_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

/// A tight enactment deadline so transitions land in a handful of virtual
/// jumps. The ladder follows it: quarantine one more deadline after the
/// laggard demotion, probe backoff 0.125 -> 0.25 -> ... capped at 2.0, and
/// eviction at the fourth offense. The heartbeat timeout is generous because
/// every test beats before every tick (the watchdog, not liveness, must be
/// what acts).
DaemonOptions watchdog_options(const std::string& registry, const std::string& journal) {
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.heartbeat_timeout_s = 30.0;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  options.compact_after_lines = 0;
  options.enactment_deadline_s = 0.25;
  return options;
}

/// The runtime side of the compliance protocol, under test control: drain
/// commands tracking the newest epoch and its total thread target, then ack
/// (or deliberately don't).
struct Echo {
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  std::uint32_t target = agent::kUnconstrained;

  void drain(agent::ShmChannel& channel) {
    while (auto cmd = channel.pop_command()) {
      if (cmd->epoch == 0) continue;  // advisory, not a thread target
      if (cmd->epoch < epoch) continue;
      epoch = cmd->epoch;
      switch (cmd->type) {
        case agent::CommandType::kSetTotalThreads:
          target = cmd->total_threads;
          break;
        case agent::CommandType::kSetNodeThreads: {
          std::uint32_t total = 0;
          for (std::uint32_t n = 0; n < cmd->node_count; ++n) total += cmd->node_threads[n];
          target = total;
          break;
        }
        case agent::CommandType::kClearControls:
          target = agent::kUnconstrained;
          break;
        default:
          break;
      }
    }
  }

  /// Publish a telemetry sample claiming the newest drained epoch is fully
  /// enacted (running threads at the target).
  void ack(agent::ShmChannel& channel) {
    agent::Telemetry tel;
    tel.seq = ++seq;
    tel.running_threads = target == agent::kUnconstrained ? 2 : target;
    tel.total_workers = 4;
    tel.enacted_epoch = epoch;
    tel.enacted_target = target;
    channel.push_telemetry(tel);
  }
};

std::string only_app_name(Daemon& daemon) {
  const auto& views = daemon.arbitration_agent().views();
  return views.empty() ? std::string() : views.front().name;
}

// ---- health state machine ----------------------------------------------

TEST(Compliance, PromptAckerStaysHealthy) {
  const auto registry = unique_registry("healthy");
  auto options = watchdog_options(registry, "");
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  double now = 0.0;
  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  FailoverClient client("prompt", copts);
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));
  const auto app = only_app_name(daemon);
  ASSERT_FALSE(app.empty());

  // Ack every tick across several enactment deadlines: never even laggard.
  Echo echo;
  for (int i = 0; i < 12; ++i) {
    echo.drain(*client.channel());
    echo.ack(*client.channel());
    client.heartbeat();
    daemon.tick(now += 0.2);
  }
  const auto view = daemon.compliance_view(app);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->health, ClientHealth::kHealthy);
  EXPECT_GT(view->commanded_epoch, 0u);
  EXPECT_EQ(view->commanded_epoch, view->enacted_epoch);
  EXPECT_EQ(daemon.stats().laggards, 0u);
  EXPECT_EQ(daemon.stats().quarantines, 0u);
}

TEST(Compliance, LaggardIsCappedThenReadmittedOnAck) {
  const auto registry = unique_registry("laggard");
  const auto journal = unique_journal("laggard");
  auto options = watchdog_options(registry, journal);
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());

    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 2.0;
    FailoverClient client("sluggish", copts);
    ASSERT_TRUE(connect_with_ticks(client, daemon, now));
    const auto app = only_app_name(daemon);

    // Ignore the initial command past the enactment deadline: laggard, and
    // the unenacted cores are administratively reclaimed (no ack at all, so
    // the cap falls to the floor).
    client.heartbeat();
    daemon.tick(now += 0.3);
    auto view = daemon.compliance_view(app);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->health, ClientHealth::kLaggard);
    EXPECT_EQ(daemon.stats().laggards, 1u);

    // The next tick carries the capped command: total == floor == 1, not
    // the whole 4-core machine.
    client.heartbeat();
    daemon.tick(now += 0.05);
    Echo echo;
    echo.drain(*client.channel());
    EXPECT_EQ(echo.target, 1u);
    EXPECT_GT(echo.epoch, 0u);

    // Enact it. One tick later the laggard is readmitted and the cap lifted:
    // the follow-up command grants the machine back.
    echo.ack(*client.channel());
    client.heartbeat();
    daemon.tick(now += 0.05);
    view = daemon.compliance_view(app);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->health, ClientHealth::kHealthy);
    EXPECT_EQ(daemon.stats().readmissions, 1u);

    client.heartbeat();
    daemon.tick(now += 0.05);
    echo.drain(*client.channel());
    EXPECT_EQ(echo.target, 4u);
    echo.ack(*client.channel());
    client.heartbeat();
    daemon.tick(now += 0.05);
    EXPECT_EQ(daemon.stats().quarantines, 0u);
  }
  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "laggard"), 1u);
  bool readmitted_from_laggard = false;
  for (const auto& entry : entries) {
    if (entry.event != "readmit") continue;
    readmitted_from_laggard = journal_field(entry.raw, "from").value_or("") == "\"laggard\"";
  }
  EXPECT_TRUE(readmitted_from_laggard);
  std::remove(journal.c_str());
}

TEST(Compliance, QuarantineProbesBackOffExponentiallyThenEvict) {
  const auto registry = unique_registry("quarantine");
  const auto journal = unique_journal("quarantine");
  auto options = watchdog_options(registry, journal);
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());

    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 2.0;
    FailoverClient client("defiant", copts);
    ASSERT_TRUE(connect_with_ticks(client, daemon, now));
    const auto app = only_app_name(daemon);

    const auto step = [&](double dt) {
      client.heartbeat();
      daemon.tick(now += dt);
    };

    // Never acks. Timeline (deadline 0.25, so quarantine at 0.5 behind,
    // backoff 0.125 -> 0.25 -> 0.5, 4 offenses): laggard, then quarantine
    // (offense 1), then three failed probes (offenses 2, 3 and 4) and the
    // compliance eviction.
    step(0.3);  // behind past the deadline: laggard
    ASSERT_EQ(daemon.compliance_view(app)->health, ClientHealth::kLaggard);
    step(0.25);  // behind past two deadlines: quarantined, offense 1
    auto view = daemon.compliance_view(app);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->health, ClientHealth::kQuarantined);
    EXPECT_EQ(view->offenses, 1u);
    EXPECT_DOUBLE_EQ(view->backoff_s, 0.125);
    EXPECT_EQ(daemon.stats().quarantines, 1u);

    step(0.15);  // past the first backoff: probe 1 starts (cap lifted)
    view = daemon.compliance_view(app);
    EXPECT_TRUE(view->probing);
    EXPECT_EQ(daemon.stats().readmission_probes, 1u);

    step(0.3);  // probe deadline blown: offense 2, backoff doubles
    view = daemon.compliance_view(app);
    EXPECT_FALSE(view->probing);
    EXPECT_EQ(view->offenses, 2u);
    EXPECT_DOUBLE_EQ(view->backoff_s, 0.25);

    step(0.3);  // past the doubled backoff: probe 2
    EXPECT_EQ(daemon.stats().readmission_probes, 2u);
    step(0.3);  // blown again: offense 3, backoff doubles again
    view = daemon.compliance_view(app);
    EXPECT_EQ(view->offenses, 3u);
    EXPECT_DOUBLE_EQ(view->backoff_s, 0.5);

    step(0.55);  // past the third backoff: probe 3
    EXPECT_EQ(daemon.stats().readmission_probes, 3u);
    EXPECT_EQ(daemon.stats().compliance_evictions, 0u);
    step(0.3);  // blown: offense 4 == max -> compliance eviction
    EXPECT_EQ(daemon.stats().compliance_evictions, 1u);
    EXPECT_EQ(daemon.client_count(), 0u);
    EXPECT_FALSE(daemon.compliance_view(app).has_value());
    EXPECT_EQ(client.poll(now), FailoverState::kRejoining);
    EXPECT_FALSE(client.connected());
  }
  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "laggard"), 1u);
  EXPECT_EQ(count_events(entries, "quarantine"), 1u);
  EXPECT_EQ(count_events(entries, "readmission-probe"), 3u);
  EXPECT_EQ(count_events(entries, "probe-failed"), 2u);  // the final failure evicts instead
  EXPECT_EQ(count_events(entries, "compliance-evict"), 1u);
  std::remove(journal.c_str());
}

TEST(Compliance, SurvivedProbeReadmitsAndResetsBackoff) {
  const auto registry = unique_registry("probe-ok");
  auto options = watchdog_options(registry, "");
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  double now = 0.0;
  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  FailoverClient client("redeemed", copts);
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));
  const auto app = only_app_name(daemon);

  const auto step = [&](double dt) {
    client.heartbeat();
    daemon.tick(now += dt);
  };

  step(0.3);   // laggard
  step(0.25);  // quarantined, offense 1
  step(0.15);  // past the 0.125 backoff, probe 1 starts: the cap is lifted...
  ASSERT_TRUE(daemon.compliance_view(app)->probing);
  step(0.05);  // ...and the full-share command goes out

  // Enact it within the probe deadline: readmitted, backoff reset, but the
  // offense stays on the record for the repeat-offender eviction.
  Echo echo;
  echo.drain(*client.channel());
  EXPECT_EQ(echo.target, 4u);  // the probe granted the whole machine back
  echo.ack(*client.channel());
  step(0.05);
  const auto view = daemon.compliance_view(app);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->health, ClientHealth::kHealthy);
  EXPECT_FALSE(view->probing);
  EXPECT_EQ(view->offenses, 1u);
  EXPECT_DOUBLE_EQ(view->backoff_s, 0.0);
  EXPECT_EQ(daemon.stats().readmissions, 1u);
}

// ---- checkpointed journal ----------------------------------------------

TEST(Checkpoint, RecordsRegistryAndHealthSnapshot) {
  const auto registry = unique_registry("cpsnap");
  const auto journal = unique_journal("cpsnap");
  auto options = watchdog_options(registry, journal);
  options.checkpoint_every_ticks = 1;  // checkpoint every tick
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 2.0;
    FailoverClient client("snapped", copts);
    ASSERT_TRUE(connect_with_ticks(client, daemon, now));
    client.heartbeat();
    daemon.tick(now += 0.3);  // never acked: laggard by now
    EXPECT_GE(daemon.stats().checkpoints, 1u);
  }
  const auto entries = read_journal(journal);
  ASSERT_GE(count_events(entries, "checkpoint"), 2u);
  // The newest checkpoint carrying a client must reflect its health and the
  // commanded-vs-enacted epochs the watchdog compared.
  std::string with_client;
  for (const auto& entry : entries) {
    if (entry.event != "checkpoint") continue;
    const auto clients = journal_field(entry.raw, "clients").value_or("[]");
    if (clients != "[]") with_client = clients;
  }
  ASSERT_FALSE(with_client.empty());
  EXPECT_NE(with_client.find("\"health\":\"laggard\""), std::string::npos) << with_client;
  EXPECT_NE(with_client.find("\"commanded\":"), std::string::npos);
  EXPECT_NE(with_client.find("\"enacted\":0"), std::string::npos);
  // Orderly shutdown: the very last records are a (now empty) checkpoint
  // and daemon-stop.
  ASSERT_GE(entries.size(), 2u);
  EXPECT_EQ(entries[entries.size() - 2].event, "checkpoint");
  EXPECT_EQ(entries.back().event, "daemon-stop");
  std::remove(journal.c_str());
}

TEST(Checkpoint, RestartRecoversFromCheckpointPlusTail) {
  const auto registry = unique_registry("recover");
  const auto journal = unique_journal("recover");
  auto options = watchdog_options(registry, journal);
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());
    EXPECT_FALSE(daemon.stats().recovered_from_checkpoint);  // fresh journal
    ClientConnectOptions copts;
    copts.registry_name = registry;
    FailoverClient client("first-life", copts);
    ASSERT_TRUE(connect_with_ticks(client, daemon, now));
    client.disconnect();
    daemon.tick(now += 0.01);
  }  // shutdown: final checkpoint, then daemon-stop (the tail)

  Daemon restarted(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(restarted.init(&error)) << error;
  EXPECT_TRUE(restarted.stats().recovered_from_checkpoint);
  EXPECT_EQ(restarted.stats().recovered_tail_entries, 1u);  // just daemon-stop

  const auto entries = read_journal(journal);
  ASSERT_GE(count_events(entries, "daemon-recover"), 1u);
  for (const auto& entry : entries) {
    if (entry.event != "daemon-recover") continue;
    EXPECT_EQ(journal_field(entry.raw, "from_checkpoint").value_or(""), "true");
    EXPECT_EQ(journal_field(entry.raw, "sidefile").value_or(""), "false");
    EXPECT_EQ(journal_field(entry.raw, "tail_entries").value_or(""), "1");
  }

  // join_seq advanced past the first incarnation: a new client's app name
  // can never collide with a journaled one.
  FailoverClient client("second-life", {.registry_name = registry});
  ASSERT_TRUE(connect_with_ticks(client, restarted, now));
  const auto name = only_app_name(restarted);
  EXPECT_EQ(name.find("#0.1"), std::string::npos) << name;
  std::remove(journal.c_str());
}

TEST(Checkpoint, CompactionRotatesToSideFileAndReseeds) {
  const auto registry = unique_registry("compact");
  const auto journal = unique_journal("compact");
  auto options = watchdog_options(registry, journal);
  options.snapshot_every_ticks = 1;  // one line per tick
  options.compact_after_lines = 10;
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());
    // 12 ticks write daemon-start + 12 snapshot lines: exactly one rotation
    // at the 10-line threshold (a second would overwrite the side-file).
    for (int i = 0; i < 12; ++i) daemon.tick(now += 0.01);
    EXPECT_EQ(daemon.stats().compactions, 1u);
    EXPECT_GE(daemon.stats().checkpoints, 1u);

    // The side-file holds the rotated-out head; the live journal was
    // truncated and reseeded with a checkpoint as its first record, so it
    // is self-contained for recovery.
    const auto side = read_journal(journal + ".1");
    EXPECT_FALSE(side.empty());
    EXPECT_EQ(side.front().event, "daemon-start");
    const auto head = read_journal(journal);
    ASSERT_FALSE(head.empty());
    EXPECT_EQ(head.front().event, "checkpoint");
    EXPECT_LT(head.size(), 12u);
  }
  std::remove(journal.c_str());
  std::remove((journal + ".1").c_str());
}

// ---- JournalWriter / recover_journal primitives ------------------------

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/numashare-compliance-jrnl-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++) + ".jsonl";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
  }
  static int counter_;
  std::string path_;
};

int JournalFileTest::counter_ = 0;

TEST_F(JournalFileTest, RotateMovesContentToSideFile) {
  JournalWriter writer(path_);
  ASSERT_TRUE(writer.ok());
  writer.record(1.0, "a");
  writer.record(2.0, "b");
  EXPECT_EQ(writer.lines_written(), 2u);
  ASSERT_TRUE(writer.rotate());
  EXPECT_EQ(writer.rotations(), 1u);
  EXPECT_EQ(writer.lines_written(), 0u);
  writer.record(3.0, "c");

  const auto side = read_journal(path_ + ".1");
  ASSERT_EQ(side.size(), 2u);
  EXPECT_EQ(side[0].event, "a");
  const auto head = read_journal(path_);
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head[0].event, "c");
}

TEST_F(JournalFileTest, RecoverySplitsAtNewestCheckpoint) {
  {
    JournalWriter writer(path_);
    writer.record(1.0, "daemon-start");
    writer.record(2.0, "checkpoint", {{"tick", jnum(std::uint64_t{10})}});
    writer.record(3.0, "join");
    writer.record(4.0, "checkpoint", {{"tick", jnum(std::uint64_t{20})}});
    writer.record(5.0, "evict");
    writer.record(6.0, "reallocate");
  }
  const auto recovered = recover_journal(path_);
  EXPECT_FALSE(recovered.used_sidefile);
  EXPECT_FALSE(recovered.torn_tail);
  EXPECT_EQ(journal_field(recovered.checkpoint, "tick").value_or(""), "20");
  ASSERT_EQ(recovered.tail.size(), 2u);
  EXPECT_EQ(recovered.tail[0].event, "evict");
  EXPECT_EQ(recovered.tail[1].event, "reallocate");
}

TEST_F(JournalFileTest, RecoveryWithoutCheckpointReplaysEverything) {
  {
    JournalWriter writer(path_);
    writer.record(1.0, "daemon-start");
    writer.record(2.0, "join");
  }
  const auto recovered = recover_journal(path_);
  EXPECT_TRUE(recovered.checkpoint.empty());
  EXPECT_EQ(recovered.tail.size(), 2u);
}

TEST_F(JournalFileTest, RecoveryFallsBackToSideFile) {
  // A crash between rotate()'s rename and the first write of the new file
  // leaves no primary; the side-file is the only truth.
  {
    JournalWriter writer(path_ + ".1");
    writer.record(1.0, "checkpoint", {{"tick", jnum(std::uint64_t{7})}});
    writer.record(2.0, "join");
  }
  const auto recovered = recover_journal(path_);
  EXPECT_TRUE(recovered.used_sidefile);
  EXPECT_EQ(journal_field(recovered.checkpoint, "tick").value_or(""), "7");
  ASSERT_EQ(recovered.tail.size(), 1u);
  EXPECT_EQ(recovered.tail[0].event, "join");
}

TEST_F(JournalFileTest, RecoveryFlagsTornTail) {
  {
    JournalWriter writer(path_);
    writer.record(1.0, "checkpoint");
    writer.record(2.0, "join");
  }
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"ts\":3,\"event\":\"ev", file);  // no terminating newline
  std::fclose(file);
  const auto recovered = recover_journal(path_);
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_FALSE(recovered.checkpoint.empty());
  ASSERT_EQ(recovered.tail.size(), 1u);  // the torn record is never surfaced
  EXPECT_EQ(recovered.tail[0].event, "join");
}

TEST(FsyncPolicyGrammar, ParsesAndRejects) {
  bool ok = false;
  EXPECT_EQ(parse_fsync_policy("none", &ok), FsyncPolicy::kNone);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_fsync_policy("checkpoint", &ok), FsyncPolicy::kCheckpoint);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_fsync_policy("every-write", &ok), FsyncPolicy::kEveryWrite);
  EXPECT_TRUE(ok);
  parse_fsync_policy("sometimes", &ok);
  EXPECT_FALSE(ok);
  EXPECT_STREQ(to_string(FsyncPolicy::kCheckpoint), "checkpoint");
  EXPECT_STREQ(to_string(FsyncPolicy::kEveryWrite), "every-write");
}

TEST_F(JournalFileTest, EveryWritePolicySyncsWithoutBreakingRecords) {
  JournalWriter writer(path_);
  writer.set_fsync_policy(FsyncPolicy::kEveryWrite);
  EXPECT_EQ(writer.fsync_policy(), FsyncPolicy::kEveryWrite);
  writer.record(1.0, "a");
  writer.record(2.0, "b");
  writer.sync(/*force=*/true);
  EXPECT_EQ(read_journal(path_).size(), 2u);
}

}  // namespace
}  // namespace numashare::nsd
