// Compliance watchdog and checkpointed journal under injected faults.
//
// The four compliance fault sites, armed by installing a plan:
//   client.ack.suppress   — telemetry acks stripped in transit;
//   client.enact.stall    — the runtime-side command pump wedges (ms=N);
//   daemon.checkpoint.die — the daemon dies right after a checkpoint (50);
//   journal.rotate.die    — the daemon dies mid-rotation, after the rename
//                           and before the new file exists (51).
// The *.die scenarios fork, because a die site _exit()s the whole process.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "agent/channel.hpp"
#include "agent/policies.hpp"
#include "daemon/daemon.hpp"
#include "daemon/failover.hpp"
#include "daemon/journal.hpp"
#include "daemon/registry.hpp"
#include "inject/fault.hpp"
#include "runtime/runtime.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

using namespace std::chrono_literals;

topo::Machine test_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

DaemonOptions watchdog_options(const std::string& registry, const std::string& journal) {
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.heartbeat_timeout_s = 5.0;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  options.compact_after_lines = 0;
  options.enactment_deadline_s = 0.25;
  return options;
}

class ComplianceInject : public ::testing::Test {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

// A client that acks every command promptly still goes laggard when the
// acks are stripped in transit: the watchdog believes the wire, not the
// client's intentions. Clearing the fault heals it on the next real ack.
TEST_F(ComplianceInject, AckSuppressionMakesAnAckingClientLaggard) {
  const auto registry = unique_registry("acksup");
  auto options = watchdog_options(registry, "");
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  double now = 0.0;
  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  FailoverClient client("earnest", copts);
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));
  const auto app = daemon.arbitration_agent().views().front().name;

  ASSERT_TRUE(inject::install_spec("client.ack.suppress@count=0"));
  std::uint64_t seq = 0, epoch = 0;
  std::uint32_t target = agent::kUnconstrained;
  const auto pump = [&](double dt) {
    while (auto cmd = client.channel()->pop_command()) {
      if (cmd->epoch == 0) continue;
      epoch = std::max(epoch, cmd->epoch);
      if (cmd->type == agent::CommandType::kSetNodeThreads) {
        target = 0;
        for (std::uint32_t n = 0; n < cmd->node_count; ++n) target += cmd->node_threads[n];
      } else if (cmd->type == agent::CommandType::kSetTotalThreads) {
        target = cmd->total_threads;
      }
    }
    agent::Telemetry tel;
    tel.seq = ++seq;
    tel.running_threads = target == agent::kUnconstrained ? 2 : target;
    tel.enacted_epoch = epoch;
    tel.enacted_target = target;
    client.channel()->push_telemetry(tel);  // ack stripped by the fault
    client.heartbeat();
    daemon.tick(now += dt);
  };

  for (int i = 0; i < 4; ++i) pump(0.1);
  auto view = daemon.compliance_view(app);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->health, ClientHealth::kLaggard);
  EXPECT_GT(inject::fires("client.ack.suppress"), 0u);

  // Stop suppressing: the very next genuine ack readmits.
  inject::clear_plan();
  pump(0.05);
  pump(0.05);
  view = daemon.compliance_view(app);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->health, ClientHealth::kHealthy);
  EXPECT_EQ(daemon.stats().readmissions, 1u);
}

// The acceptance scenario for the watchdog: two forked clients with live
// runtimes; one wedges its command pump (client.enact.stall), so its acks
// stop while its heartbeats keep flowing — liveness eviction never applies.
// The watchdog must demote it to laggard, reclaim the unenacted cores, and
// re-grant them to the compliant peer, which exits 0 only after actually
// running with >= 3 of the 4 cores.
TEST_F(ComplianceInject, StalledLaggardCoresAreReGrantedToCompliantPeer) {
  const auto registry = unique_registry("stall");
  const auto journal = unique_journal("stall");
  auto options = watchdog_options(registry, journal);
  options.period_us = 5'000;

  auto daemon =
      std::make_unique<Daemon>(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(),
                               options);
  ASSERT_TRUE(daemon->init());

  // Both clients fork before daemon->start(): a child forked beside the
  // daemon thread can inherit a lock it held (ASan's allocator lock) and
  // deadlock. The registry exists since init(); connect() retries until the
  // loop runs.
  // The laggard: every pop_command wedges for 4s (count=0 = forever), so
  // the pump thread never publishes telemetry again. Heartbeats run from
  // the main thread and keep it "alive" the whole time.
  const pid_t laggard = fork();
  ASSERT_GE(laggard, 0);
  if (laggard == 0) {
    inject::clear_plan();
    if (!inject::install_spec("client.enact.stall@ms=4000,count=0")) _exit(99);
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 8.0;
    copts.max_attempts = 20;
    FailoverClient client("wedged", copts);
    if (!client.connect()) _exit(2);
    rt::Runtime runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "wedged"});
    agent::RuntimeAdapter adapter(runtime, *client.channel(), 8.0);
    adapter.start(1'000);  // wedges inside the first pop_command
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      client.heartbeat();
      std::this_thread::sleep_for(2ms);
    }
    _exit(3);  // the parent SIGKILLs us long before this
  }

  // The compliant peer: pumps and acks normally. Exits 0 only once it has
  // been constrained (shared machine) and then observed >= 3 running
  // threads — which requires the laggard's cores to be reclaimed.
  const pid_t peer = fork();
  ASSERT_GE(peer, 0);
  if (peer == 0) {
    inject::clear_plan();
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 0.5;
    copts.max_attempts = 20;
    FailoverClient client("diligent", copts);
    if (!client.connect()) _exit(2);
    rt::Runtime runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "diligent"});
    agent::RuntimeAdapter adapter(runtime, *client.channel(), 0.5);
    bool was_constrained = false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      adapter.pump();
      client.heartbeat();
      const auto running = runtime.running_threads();
      if (running <= 2) was_constrained = true;
      if (was_constrained && running >= 3) _exit(0);
      std::this_thread::sleep_for(2ms);
    }
    _exit(3);
  }
  daemon->start();

  // The peer's exit 0 bounds the whole pipeline end to end: laggard
  // detection, administrative reclamation, and the re-grant.
  int status = 0;
  ASSERT_EQ(waitpid(peer, &status, 0), peer);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "peer never received the reclaimed cores";

  ASSERT_EQ(::kill(laggard, SIGKILL), 0);
  ASSERT_EQ(waitpid(laggard, &status, 0), laggard);

  // Let the daemon evict the killed laggard, then shut down for the journal.
  // The loop thread owns the daemon's bookkeeping, so the wait watches the
  // registry's atomic slot states instead, and stats() is read only after
  // stop() has joined the loop.
  const auto view = Registry::open(registry);
  ASSERT_NE(view, nullptr);
  const auto all_free = [&] {
    for (std::uint32_t i = 0; i < kMaxClients; ++i) {
      if (view->slot(i).state() != SlotState::kFree) return false;
    }
    return true;
  };
  const auto drain = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!all_free() && std::chrono::steady_clock::now() < drain) {
    std::this_thread::sleep_for(5ms);
  }
  daemon->stop();
  EXPECT_TRUE(all_free());
  EXPECT_GE(daemon->stats().laggards, 1u);
  daemon.reset();

  const auto entries = read_journal(journal);
  EXPECT_GE(count_events(entries, "laggard"), 1u);
  bool laggard_named = false;
  for (const auto& entry : entries) {
    if (entry.event != "laggard") continue;
    laggard_named |= journal_field(entry.raw, "client").value_or("").find("wedged") !=
                     std::string::npos;
  }
  EXPECT_TRUE(laggard_named);
  std::remove(journal.c_str());
}

// The daemon dies immediately after writing (and fsyncing) its second
// checkpoint. A restart must recover from exactly that checkpoint — it was
// made durable before the death — and journal the recovery.
TEST_F(ComplianceInject, CheckpointCrashRecoversFromLatestDurableCheckpoint) {
  const auto registry = unique_registry("cpdie");
  const auto journal = unique_journal("cpdie");

  const pid_t daemon_pid = fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    inject::clear_plan();
    // after=1: the first checkpoint survives, the second kills us.
    if (!inject::install_spec("daemon.checkpoint.die@after=1")) _exit(99);
    auto options = watchdog_options(registry, journal);
    options.snapshot_every_ticks = 1;  // tail material between checkpoints
    options.checkpoint_every_ticks = 3;
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    if (!daemon.init()) _exit(97);
    double now = 0.0;
    for (int i = 0; i < 1000; ++i) daemon.tick(now += 0.01);
    _exit(96);  // the die site never fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(daemon_pid, &status, 0), daemon_pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 50);  // daemon.checkpoint.die default

  // The journal's last record is the fsynced checkpoint at tick 6: _exit
  // ran no destructors, yet nothing is torn and nothing is lost.
  const auto before = read_journal(journal);
  ASSERT_GE(count_events(before, "checkpoint"), 2u);
  EXPECT_EQ(before.back().event, "checkpoint");
  EXPECT_EQ(journal_field(before.back().raw, "tick").value_or(""), "6");

  // The dead daemon's registry segment survived _exit; a successor cleans
  // it up in init() and recovers from the checkpoint.
  auto options = watchdog_options(registry, journal);
  Daemon restarted(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(restarted.init(&error)) << error;
  EXPECT_TRUE(restarted.stats().recovered_from_checkpoint);
  EXPECT_EQ(restarted.stats().recovered_tail_entries, 0u);  // died AT the checkpoint

  const auto after = read_journal(journal);
  ASSERT_GE(count_events(after, "daemon-recover"), 1u);
  for (const auto& entry : after) {
    if (entry.event != "daemon-recover") continue;
    EXPECT_EQ(journal_field(entry.raw, "from_checkpoint").value_or(""), "true");
    EXPECT_EQ(journal_field(entry.raw, "checkpoint_tick").value_or(""), "6");
  }
  std::remove(journal.c_str());
  std::remove((journal + ".1").c_str());
}

// The daemon dies inside rotate(), after the rename moved the journal to
// the side-file and before the new primary exists. Recovery must notice the
// empty primary and fall back to the side-file.
TEST_F(ComplianceInject, RotationCrashRecoversFromSideFile) {
  const auto registry = unique_registry("rotdie");
  const auto journal = unique_journal("rotdie");

  const pid_t daemon_pid = fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    inject::clear_plan();
    if (!inject::install_spec("journal.rotate.die")) _exit(99);
    auto options = watchdog_options(registry, journal);
    options.snapshot_every_ticks = 1;
    options.compact_after_lines = 6;
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    if (!daemon.init()) _exit(97);
    double now = 0.0;
    for (int i = 0; i < 1000; ++i) daemon.tick(now += 0.01);
    _exit(96);
  }
  int status = 0;
  ASSERT_EQ(waitpid(daemon_pid, &status, 0), daemon_pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 51);  // journal.rotate.die default

  // Post-crash state: no primary journal, everything in the side-file.
  EXPECT_TRUE(read_journal(journal).empty());
  const auto side = read_journal(journal + ".1");
  ASSERT_FALSE(side.empty());
  EXPECT_EQ(side.front().event, "daemon-start");

  auto options = watchdog_options(registry, journal);
  Daemon restarted(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(restarted.init(&error)) << error;
  EXPECT_EQ(restarted.stats().recovered_tail_entries, side.size());
  EXPECT_FALSE(restarted.stats().recovered_from_checkpoint);  // head had none yet

  const auto after = read_journal(journal);
  ASSERT_GE(count_events(after, "daemon-recover"), 1u);
  for (const auto& entry : after) {
    if (entry.event != "daemon-recover") continue;
    EXPECT_EQ(journal_field(entry.raw, "sidefile").value_or(""), "true");
  }
  std::remove(journal.c_str());
  std::remove((journal + ".1").c_str());
}

}  // namespace
}  // namespace numashare::nsd
