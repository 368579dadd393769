// Fault-schedule sweep over the daemon/agent coordination path.
//
// Two layers:
//  * directed regressions — one test per failure mode the injection layer
//    was built to reach (claimant death mid-claim, admit/abandon race,
//    heartbeat suppression, daemon death after the write-ahead join, the
//    whole compliance ladder under ack suppression);
//  * the randomized sweep — a fixed list of >=100 seeds, each expanded
//    into a fault schedule (daemon-side + per-client rules) and run through
//    a fork-based scenario. Three invariants must hold for every seed:
//      1. no client process ever wedges (all children exit, with an
//         expected status, within a wall deadline);
//      2. the daemon reclaims every slot and core within a bounded number
//         of ticks once the clients are gone;
//      3. the journal never records a reallocation naming a client outside
//         the membership its own join/leave/evict/abandon events define
//         (checkpoint records reseed that membership after a rotation);
//      4. every foreign fence the journal records is released by the end —
//         either its process aged out (foreign-gone) or the shutdown
//         release produced a state:"released" record. The daemon must
//         never exit leaving a foreign pid pinned.
//    On failure the seed and the full schedule are printed so the exact
//    run reproduces with no other input.
//
// The schedules also exercise the compliance watchdog: client menus include
// ack suppression (client.ack.suppress) and enactment stalls
// (client.enact.stall@ms=N), and the daemon runs with a tight compliance
// deadline plus periodic checkpoints and journal compaction. The seeds
// reach laggard demotion and readmission only: a sweep client lives
// 0.05-0.40 s, and quarantine needs one 0.5 s behind. The later rungs
// (quarantine, readmission probes, probe-failed, compliance-evict) run under
// fire in FaultDirected.ComplianceLadderRunsUnderFire, which forks the same
// client body for seconds, and in virtual time in
// tests/daemon/compliance_test.cpp.
//
// Every client is a FailoverClient, the shipped client path: it sees an
// eviction in the poll() after it, and rejoins on the poll() after that.
//
// Foreign arbitration runs live in every schedule: the daemon menu scripts
// synthetic hogs through the monitor's fault sites (foreign.appear,
// foreign.balloon@pct=N, foreign.die), so detection hysteresis, fencing,
// and the policy's foreign-aware re-search all happen under the same churn.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agent/policies.hpp"
#include "agent/shm_channel.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "daemon/failover.hpp"
#include "daemon/journal.hpp"
#include "inject/fault.hpp"
#include "runtime/datablock.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

using namespace std::chrono_literals;

// Child exit codes with a meaning in the scenarios below.
constexpr int kExitGraceful = 0;      // disconnected properly
constexpr int kExitNoConnect = 7;     // connect() gave up (daemon gone / full)
constexpr int kExitLostSlot = 8;      // eviction observed, stopped cleanly
constexpr int kExitAbrupt = 9;        // died without goodbye (simulated crash)
// 43..47 are the *.die site defaults (registry claiming/joining, client
// post_claim/pre_attach/post_attach); 48 is the daemon's post_journal_join.

topo::Machine test_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

DaemonOptions sweep_options(const std::string& registry, const std::string& journal) {
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  // Also the claim-reclaim timeout.
  options.heartbeat_timeout_s = 0.3;
  options.snapshot_every_ticks = 0;
  // A compliance deadline tight enough that ack suppression and enactment
  // stalls actually demote clients within a sweep lifetime (the quarantine
  // and probe windows scale with it).
  options.enactment_deadline_s = 0.25;
  // Checkpoints and compaction running concurrently with the fault schedule.
  options.checkpoint_every_ticks = 200;
  options.compact_after_lines = 400;
  // Foreign arbitration live for every schedule. The scanner points at a
  // nonexistent proc root — nothing real to observe, so the run stays
  // deterministic — and the foreign.* fault sites feed the monitor with
  // synthetic hogs instead.
  options.foreign_enabled = true;
  options.foreign_scan_every_ticks = 5;
  options.foreign.scanner.proc_root = "/nonexistent/ns-sweep-foreign";
  return options;
}

ClientConnectOptions sweep_client_options(const std::string& registry) {
  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  copts.max_attempts = 5;
  copts.initial_backoff_us = 1'000;
  copts.max_backoff_us = 20'000;
  copts.activation_timeout_s = 0.4;
  return copts;
}

bool all_slots_free(const Registry& registry) {
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    if (registry.slot(i).state() != SlotState::kFree) return false;
  }
  return true;
}

std::string unquote(std::string text) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

/// Names mentioned by a "reallocate" entry's apps array. App names contain
/// no escapes, so a plain scan for "name":"..." is exact.
std::vector<std::string> reallocate_names(const std::string& raw) {
  std::vector<std::string> names;
  std::size_t at = 0;
  while ((at = raw.find("\"name\":\"", at)) != std::string::npos) {
    at += 8;
    const auto end = raw.find('"', at);
    if (end == std::string::npos) break;
    names.push_back(raw.substr(at, end - at));
    at = end + 1;
  }
  return names;
}

/// Names mentioned by a "checkpoint" entry's clients array: each per-client
/// object carries "client":"<name>" (nowhere else in the record).
std::vector<std::string> checkpoint_client_names(const std::string& raw) {
  std::vector<std::string> names;
  std::size_t at = 0;
  while ((at = raw.find("\"client\":\"", at)) != std::string::npos) {
    at += 10;
    const auto end = raw.find('"', at);
    if (end == std::string::npos) break;
    names.push_back(raw.substr(at, end - at));
    at = end + 1;
  }
  return names;
}

/// Invariant 3: replay the journal, tracking live membership from the
/// join/leave/evict/abandon events; every reallocation must name a subset
/// of the live set, and the final set must be empty. A compacted journal
/// starts mid-history with a checkpoint instead of daemon-start — the
/// checkpoint's clients array reseeds the membership; once tracking, every
/// checkpoint must itself be a subset of the live set.
void check_journal_consistency(const std::vector<JournalEntry>& entries) {
  std::set<std::string> live;
  bool tracking = false;
  for (const auto& entry : entries) {
    if (entry.event == "daemon-start") {
      live.clear();
      tracking = true;
    } else if (entry.event == "checkpoint") {
      if (!tracking) {
        for (const auto& name : checkpoint_client_names(entry.raw)) live.insert(name);
        tracking = true;
      } else {
        for (const auto& name : checkpoint_client_names(entry.raw)) {
          EXPECT_TRUE(live.count(name) > 0)
              << "checkpoint names '" << name << "' which is not a live client\n"
              << entry.raw;
        }
      }
    } else if (entry.event == "join") {
      live.insert(unquote(journal_field(entry.raw, "client").value_or("")));
    } else if (entry.event == "leave" || entry.event == "evict" ||
               entry.event == "compliance-evict" || entry.event == "join-abandoned") {
      live.erase(unquote(journal_field(entry.raw, "client").value_or("")));
    } else if (entry.event == "reallocate") {
      for (const auto& name : reallocate_names(entry.raw)) {
        EXPECT_TRUE(live.count(name) > 0)
            << "reallocate names '" << name << "' which is not a live client\n"
            << entry.raw;
      }
    }
  }
  EXPECT_TRUE(live.empty()) << "journal ends with live clients unaccounted for";
}

/// Invariant 4: replay the foreign records. A "foreign-fence" whose state
/// is anything but "released" marks the pid fenced; a released record or a
/// "foreign-gone" clears it (an advisory fence dies with its entry — only
/// still-fenced pids need the shutdown release). A complete journal must
/// end with nothing fenced.
void check_foreign_fences_released(const std::vector<JournalEntry>& entries) {
  std::set<std::string> fenced;
  for (const auto& entry : entries) {
    const auto pid = journal_field(entry.raw, "pid").value_or("");
    if (entry.event == "foreign-fence") {
      if (unquote(journal_field(entry.raw, "state").value_or("")) == "released") {
        fenced.erase(pid);
      } else {
        fenced.insert(pid);
      }
    } else if (entry.event == "foreign-gone") {
      fenced.erase(pid);
    }
  }
  EXPECT_TRUE(fenced.empty())
      << fenced.size() << " foreign fence(s) never released by the end of the journal";
}

// ---- directed regressions ----------------------------------------------

class FaultDirected : public ::testing::Test {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

// A claimant that dies between the claim CAS and publishing kJoining leaks
// the slot: nobody else can claim it, and the daemon never sees kJoining.
// The claim timeout must reclaim it, after which the registry is whole again.
TEST_F(FaultDirected, DeadClaimantSlotIsReclaimed) {
  const auto registry_name = unique_registry("claimdie");
  auto options = sweep_options(registry_name, "");
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    inject::clear_plan();
    if (!inject::install_spec("registry.die@site=claiming")) _exit(99);
    FailoverClient client("doomed", sweep_client_options(registry_name));
    client.connect();
    _exit(98);  // unreachable: the die site fires inside the first claim
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 43);  // the claiming-site default

  // The slot is now stuck in kClaiming. Tick past the claim timeout.
  auto observer = Registry::open(registry_name);
  ASSERT_NE(observer, nullptr);
  EXPECT_EQ(observer->slot(0).state(), SlotState::kClaiming);
  double now = monotonic_seconds();
  daemon.tick(now);  // records first-seen
  daemon.tick(now + options.heartbeat_timeout_s + 0.05);
  EXPECT_EQ(daemon.stats().claims_reclaimed, 1u);
  EXPECT_TRUE(all_slots_free(*observer));

  // The reclaimed slot is usable: a well-behaved client joins through it.
  FailoverClient healthy("healthy", sweep_client_options(registry_name));
  ASSERT_TRUE(connect_with_ticks(healthy, daemon, now));
  EXPECT_EQ(daemon.stats().joins, 1u);
}

// The daemon stalls inside admit() (channel minted, join journaled) long
// enough for the client to abandon its claim. The activation CAS must fail
// and the whole admit roll back — no ghost app, no stomped slot.
TEST_F(FaultDirected, AdmitRollsBackWhenClientAbandonsTheClaim) {
  const auto registry_name = unique_registry("abandon");
  const auto journal = unique_journal("abandon");
  auto options = sweep_options(registry_name, journal);
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    ASSERT_TRUE(daemon.init());
    ASSERT_TRUE(inject::install_spec("daemon.pause@site=admit_pre_activate,us=300000"));

    auto copts = sweep_client_options(registry_name);
    copts.activation_timeout_s = 0.05;  // abandons long before the pause ends
    copts.max_attempts = 1;
    FailoverClient client("impatient", copts);
    EXPECT_FALSE(connect_with_ticks(client, daemon, now));

    EXPECT_EQ(daemon.stats().joins_abandoned, 1u);
    EXPECT_EQ(daemon.stats().joins, 0u);
    EXPECT_EQ(daemon.client_count(), 0u);
    EXPECT_EQ(daemon.arbitration_agent().views().size(), 0u);  // no ghost app
    auto observer = Registry::open(registry_name);
    ASSERT_NE(observer, nullptr);
    EXPECT_TRUE(all_slots_free(*observer));
  }
  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "join"), 1u);  // write-ahead record...
  EXPECT_EQ(count_events(entries, "join-abandoned"), 1u);  // ...then the rollback
  check_journal_consistency(entries);
  std::remove(journal.c_str());
}

// Heartbeat suppression under the eviction threshold must be invisible;
// sustained suppression must evict. The daemon watches counter *change*,
// so the boundary is exact in ticks of virtual time.
TEST_F(FaultDirected, HeartbeatSuppressionEvictsOnlyPastThreshold) {
  const auto registry_name = unique_registry("hbsup");
  auto options = sweep_options(registry_name, "");
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  double now = 0.0;
  FailoverClient client("flaky", sweep_client_options(registry_name));
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));

  // Three suppressed beats at 0.05s spacing freeze the counter for 0.15s —
  // well under the 0.3s timeout — before the following beats move it again.
  ASSERT_TRUE(inject::install_spec("client.heartbeat.suppress@count=3"));
  for (int i = 0; i < 6; ++i) {
    client.heartbeat();
    daemon.tick(now += 0.05);
  }
  EXPECT_EQ(inject::fires("client.heartbeat.suppress"), 3u);
  EXPECT_EQ(daemon.stats().evictions, 0u);
  EXPECT_EQ(client.poll(now), FailoverState::kAttached);

  // Unlimited suppression: the counter freezes and the timeout must fire.
  ASSERT_TRUE(inject::install_spec("client.heartbeat.suppress@count=0"));
  client.heartbeat();
  daemon.tick(now += 0.1);  // observes the frozen counter
  daemon.tick(now += options.heartbeat_timeout_s + 0.05);
  EXPECT_EQ(daemon.stats().evictions, 1u);
  EXPECT_EQ(client.poll(now), FailoverState::kRejoining);
  inject::clear_plan();

  // Eviction is recoverable: the next poll wins a fresh incarnation.
  const double poll_at = now;
  EXPECT_TRUE(join_with_ticks(client, daemon, now, [&client, poll_at] {
    return client.poll(poll_at) == FailoverState::kAttached;
  }));
  EXPECT_EQ(daemon.stats().joins, 2u);
}

// The daemon crashes immediately after journaling the join (write-ahead)
// and before activating the slot. The client must not wedge: it abandons
// the claim, sees the dead daemon, and gives up in bounded time. The
// journal keeps the join with no matching activation — exactly what the
// write-ahead ordering promises recovery tooling.
TEST_F(FaultDirected, DaemonDeathAfterJournaledJoinLeavesClientUnwedged) {
  const auto registry_name = unique_registry("dmndie");
  const auto journal = unique_journal("dmndie");

  const pid_t daemon_pid = fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    inject::clear_plan();
    if (!inject::install_spec("daemon.die@site=post_journal_join")) _exit(99);
    auto options = sweep_options(registry_name, journal);
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    if (!daemon.init()) _exit(97);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      daemon.tick(monotonic_seconds());  // dies inside admit()
      std::this_thread::sleep_for(2ms);
    }
    _exit(96);  // the die site never fired: no client showed up?
  }

  // Wait for the child daemon's registry to go live.
  std::unique_ptr<Registry> probe;
  const auto open_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < open_deadline) {
    probe = Registry::open(registry_name);
    if (probe != nullptr) break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_NE(probe, nullptr);

  auto copts = sweep_client_options(registry_name);
  copts.max_attempts = 3;
  FailoverClient client("orphan", copts);
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect(&error));  // bounded failure, not a hang
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);

  int status = 0;
  ASSERT_EQ(waitpid(daemon_pid, &status, 0), daemon_pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 48);  // the post_journal_join default

  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "join"), 1u);
  EXPECT_EQ(count_events(entries, "evict") + count_events(entries, "leave"), 0u);

  // The dead daemon's _exit ran no destructors; clean its segments up the
  // way a restarted daemon would.
  probe.reset();
  EXPECT_GE(agent::cleanup_stale_segments(registry_name), 1u);
  std::remove(journal.c_str());
}

// ---- the randomized sweep ----------------------------------------------

struct Schedule {
  std::string daemon_spec;
  std::string client_spec[2];
  double client_lifetime_s[2] = {0.0, 0.0};
  bool client_graceful[2] = {false, false};
  bool client_retry_on_loss[2] = {false, false};

  std::string describe() const {
    return "daemon='" + daemon_spec + "' client0='" + client_spec[0] + "' client1='" +
           client_spec[1] + "'";
  }
};

/// Deterministically expand a seed into a schedule. Daemon-side rules never
/// include *.die (the daemon runs inside the test process); client rules
/// may kill, stall, or starve the child at any protocol stage.
Schedule make_schedule(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Schedule s;

  const auto maybe_join = [](std::string& spec, const std::string& clause) {
    if (!spec.empty()) spec += ";";
    spec += clause;
  };

  const std::vector<std::string> daemon_menu = {
      "daemon.tick.skip@count=" + std::to_string(1 + rng.uniform_u64(4)),
      "daemon.pause@site=admit_pre_activate,us=" + std::to_string(1000 + rng.uniform_u64(25000)),
      "shm.cmd.drop@count=" + std::to_string(1 + rng.uniform_u64(3)),
      "shm.cmd.dup@count=" + std::to_string(1 + rng.uniform_u64(2)),
      "shm.cmd.delay@ticks=" + std::to_string(1 + rng.uniform_u64(2)) + ",count=" +
          std::to_string(1 + rng.uniform_u64(2)),
      // Foreign churn: `after` counts monitor ticks (one per
      // foreign_scan_every_ticks daemon ticks), so hogs appear, balloon,
      // and die at staggered points of the run.
      "foreign.appear@after=" + std::to_string(rng.uniform_u64(20)) + ",count=1",
      "foreign.appear@count=1;foreign.balloon@pct=" +
          std::to_string(25 + rng.uniform_u64(275)) + ",after=" +
          std::to_string(2 + rng.uniform_u64(30)) + ",count=" +
          std::to_string(1 + rng.uniform_u64(3)),
      "foreign.appear@count=1;foreign.die@after=" +
          std::to_string(4 + rng.uniform_u64(50)) + ",count=1",
  };
  const std::uint64_t daemon_clauses = rng.uniform_u64(3);  // 0..2
  for (std::uint64_t i = 0; i < daemon_clauses; ++i) {
    maybe_join(s.daemon_spec, daemon_menu[rng.uniform_u64(daemon_menu.size())]);
  }

  for (int c = 0; c < 2; ++c) {
    const std::vector<std::string> client_menu = {
        "registry.die@site=claiming",
        "registry.die@site=joining",
        "client.die@site=post_claim",
        "client.die@site=pre_attach",
        "client.die@site=post_attach",
        "registry.pause@site=claiming,us=" + std::to_string(rng.uniform_u64(450000)),
        "client.connect.fail@count=" + std::to_string(1 + rng.uniform_u64(3)),
        "client.heartbeat.suppress@count=" + std::to_string(rng.uniform_u64(9)),  // 0=unlimited
        "client.ack.suppress@count=" + std::to_string(rng.uniform_u64(9)),  // 0=unlimited
        "client.enact.stall@ms=" + std::to_string(1 + rng.uniform_u64(40)) + ",count=" +
            std::to_string(1 + rng.uniform_u64(3)),
        "shm.tel.drop@count=" + std::to_string(1 + rng.uniform_u64(4)),
        "shm.tel.dup@count=" + std::to_string(1 + rng.uniform_u64(2)),
        "shm.tel.delay@ticks=1,count=" + std::to_string(1 + rng.uniform_u64(2)),
        // Crash mid-datablock-migration (the client body runs a migrating
        // registry every beat): dies after a completed move, exit 49.
        "datablock.migrate.die@after=" + std::to_string(rng.uniform_u64(6)),
        "datablock.migrate.abort@count=" + std::to_string(1 + rng.uniform_u64(4)),
    };
    const std::uint64_t clauses = rng.uniform_u64(3);  // 0..2
    for (std::uint64_t i = 0; i < clauses; ++i) {
      maybe_join(s.client_spec[c], client_menu[rng.uniform_u64(client_menu.size())]);
    }
    s.client_lifetime_s[c] = 0.05 + 0.35 * rng.uniform();
    s.client_graceful[c] = rng.uniform() < 0.5;
    s.client_retry_on_loss[c] = rng.uniform() < 0.5;
  }
  return s;
}

/// The forked client body. Never returns; never touches gtest.
[[noreturn]] void run_sweep_client(const Schedule& schedule, int which,
                                   const std::string& registry_name) {
  inject::clear_plan();
  if (!schedule.client_spec[which].empty() &&
      !inject::install_spec(schedule.client_spec[which])) {
    _exit(99);
  }
  FailoverClient client(which == 0 ? "sweep-a" : "sweep-b",
                      sweep_client_options(registry_name));
  if (!client.connect()) _exit(kExitNoConnect);
  // A small migrating registry beats alongside the protocol loop, so the
  // datablock.migrate.* rules have live sites to fire in this process, and
  // a crash mid-migration happens *between* heartbeats — the daemon-side
  // invariants (slot reclaim, journal consistency) see the worst timing.
  rt::DatablockRegistry datablocks(2);
  std::vector<rt::DatablockPtr> blocks;
  for (int b = 0; b < 3; ++b) blocks.push_back(datablocks.create(1024, 0));
  std::uint32_t flip = 0;
  std::uint64_t seq = 0;
  std::uint64_t enacted_epoch = 0;
  std::uint32_t enacted_target = agent::kUnconstrained;
  bool retried = false;
  const auto stop = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        static_cast<std::int64_t>(schedule.client_lifetime_s[which] * 1e6));
  while (std::chrono::steady_clock::now() < stop) {
    client.heartbeat();
    client.poll(monotonic_seconds());
    if (!client.connected()) {
      // Evicted mid-run: this poll dropped the slot. Half the schedules
      // re-join on the next poll — the reconnect-during-evict path — the
      // rest stop cleanly.
      if (!schedule.client_retry_on_loss[which] || retried) _exit(kExitLostSlot);
      retried = true;
      if (client.poll(monotonic_seconds()) != FailoverState::kAttached) _exit(kExitLostSlot);
      // Fresh incarnation, fresh epoch space: never ack the old one's epochs.
      enacted_epoch = 0;
      enacted_target = agent::kUnconstrained;
    }
    // Alternate the target node so every beat wants at least one move.
    datablocks.migrate_toward({flip % 2, (flip + 1) % 2}, 1u << 16);
    ++flip;
    // Enact first (this pop is where client.enact.stall wedges), then ack
    // the newest epoch through telemetry so the compliance watchdog sees a
    // well-behaved client unless a fault says otherwise.
    while (auto cmd = client.channel()->pop_command()) {
      if (cmd->epoch == 0) continue;
      if (cmd->epoch > enacted_epoch) enacted_epoch = cmd->epoch;
      if (cmd->type == agent::CommandType::kSetTotalThreads) {
        enacted_target = cmd->total_threads;
      } else if (cmd->type == agent::CommandType::kSetNodeThreads) {
        enacted_target = 0;
        for (std::uint32_t n = 0; n < cmd->node_count; ++n) {
          enacted_target += cmd->node_threads[n];
        }
      } else if (cmd->type == agent::CommandType::kClearControls) {
        enacted_target = agent::kUnconstrained;
      }
    }
    agent::Telemetry tel;
    tel.seq = ++seq;
    tel.running_threads = enacted_target == agent::kUnconstrained ? 2 : enacted_target;
    tel.enacted_epoch = enacted_epoch;
    tel.enacted_target = enacted_target;
    client.channel()->push_telemetry(tel);
    std::this_thread::sleep_for(5ms);
  }
  if (schedule.client_graceful[which]) {
    client.disconnect();
    _exit(kExitGraceful);
  }
  _exit(kExitAbrupt);
}

bool exit_status_expected(int status) {
  if (!WIFEXITED(status)) return false;
  switch (WEXITSTATUS(status)) {
    case kExitGraceful:
    case kExitNoConnect:
    case kExitLostSlot:
    case kExitAbrupt:
    case 43:  // registry.die claiming
    case 44:  // registry.die joining
    case 45:  // client.die post_claim
    case 46:  // client.die pre_attach
    case 47:  // client.die post_attach
    case 49:  // datablock.migrate.die (mid-migration crash)
      return true;
    default:
      return false;
  }
}

// The compliance ladder under fire: the sweep's daemon options and client
// body, two forked clients living for seconds. "sweep-a" never acks, so it
// climbs every rung — laggard, quarantine, failed readmission probes — to
// the compliance eviction, sees it through poll() and stops. "sweep-b"'s
// acks are stripped for its first 200 beats (about a second at 5 ms a
// beat): past quarantine, which comes 0.5 s behind, and well before a
// fourth offense, so a readmission probe readmits it.
TEST_F(FaultDirected, ComplianceLadderRunsUnderFire) {
  const auto registry_name = unique_registry("ladder");
  const auto journal = unique_journal("ladder");
  Schedule schedule;
  schedule.client_spec[0] = "client.ack.suppress@count=0";
  schedule.client_spec[1] = "client.ack.suppress@count=200";
  for (int c = 0; c < 2; ++c) {
    schedule.client_lifetime_s[c] = 4.0;
    schedule.client_graceful[c] = true;
  }
  int status[2] = {-1, -1};
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(),
                  sweep_options(registry_name, journal));
    ASSERT_TRUE(daemon.init());
    pid_t children[2] = {-1, -1};
    for (int c = 0; c < 2; ++c) {
      children[c] = fork();
      ASSERT_GE(children[c], 0);
      if (children[c] == 0) run_sweep_client(schedule, c, registry_name);
    }
    int remaining = 2;
    const auto wall_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (remaining > 0 && std::chrono::steady_clock::now() < wall_deadline) {
      daemon.tick(monotonic_seconds());
      for (int c = 0; c < 2; ++c) {
        if (children[c] >= 0 && waitpid(children[c], &status[c], WNOHANG) == children[c]) {
          children[c] = -1;
          --remaining;
        }
      }
      std::this_thread::sleep_for(2ms);
    }
    for (const auto child : children) {
      if (child < 0) continue;
      ::kill(child, SIGKILL);
      waitpid(child, nullptr, 0);
      ADD_FAILURE() << "client wedged: pid " << child << " still alive at the wall deadline";
    }
  }
  EXPECT_TRUE(WIFEXITED(status[0]) && WEXITSTATUS(status[0]) == kExitLostSlot) << status[0];
  EXPECT_TRUE(WIFEXITED(status[1]) && WEXITSTATUS(status[1]) == kExitGraceful) << status[1];

  // A compaction moves the journal's head to the side-file: read both.
  auto entries = read_journal(journal + ".1");
  for (auto& entry : read_journal(journal)) entries.push_back(std::move(entry));
  const auto events_of = [&entries](const std::string& client) {
    std::set<std::string> events;
    for (const auto& entry : entries) {
      if (journal_field(entry.raw, "client").value_or("").find(client) != std::string::npos) {
        events.insert(entry.event);
      }
    }
    return events;
  };
  const auto defiant = events_of("sweep-a");
  for (const char* rung :
       {"laggard", "quarantine", "readmission-probe", "probe-failed", "compliance-evict"}) {
    EXPECT_TRUE(defiant.count(rung) > 0) << "sweep-a never reached " << rung;
  }
  const auto redeemed = events_of("sweep-b");
  for (const char* rung : {"laggard", "quarantine", "readmit"}) {
    EXPECT_TRUE(redeemed.count(rung) > 0) << "sweep-b never reached " << rung;
  }
  EXPECT_EQ(redeemed.count("compliance-evict"), 0u);
  check_journal_consistency(entries);
  check_foreign_fences_released(entries);
  std::remove(journal.c_str());
  std::remove((journal + ".1").c_str());
}

class FaultSweep : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

TEST_P(FaultSweep, InvariantsHoldUnderSchedule) {
  const std::uint32_t seed = GetParam();
  const Schedule schedule = make_schedule(seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " " + schedule.describe());

  const auto registry_name = unique_registry("seed-" + std::to_string(seed));
  const auto journal = unique_journal("seed-" + std::to_string(seed));
  const auto options = sweep_options(registry_name, journal);
  {
    auto daemon = std::make_unique<Daemon>(test_machine(),
                                           std::make_unique<agent::ModelGuidedPolicy>(),
                                           options);
    ASSERT_TRUE(daemon->init());
    if (!schedule.daemon_spec.empty()) {
      ASSERT_TRUE(inject::install_spec(schedule.daemon_spec));
    }

    pid_t children[2] = {-1, -1};
    for (int c = 0; c < 2; ++c) {
      children[c] = fork();
      ASSERT_GE(children[c], 0);
      if (children[c] == 0) run_sweep_client(schedule, c, registry_name);
    }

    // Invariant 1: every child exits, acceptably, within the wall deadline.
    const auto wall_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int remaining = 2;
    while (remaining > 0 && std::chrono::steady_clock::now() < wall_deadline) {
      daemon->tick(monotonic_seconds());
      for (auto& child : children) {
        if (child < 0) continue;
        int status = 0;
        const pid_t reaped = waitpid(child, &status, WNOHANG);
        if (reaped == child) {
          EXPECT_TRUE(exit_status_expected(status))
              << "child exited with unexpected status " << status;
          child = -1;
          --remaining;
        }
      }
      std::this_thread::sleep_for(2ms);
    }
    for (const auto child : children) {
      if (child < 0) continue;
      ::kill(child, SIGKILL);
      int status = 0;
      waitpid(child, &status, 0);
      ADD_FAILURE() << "client wedged: pid " << child
                    << " still alive at the wall deadline";
    }

    // Invariant 2: with the clients gone, a bounded number of ticks must
    // return every slot (and so every core) to the pool. The bound covers
    // the worst case: a heartbeat-timeout eviction plus a claim-timeout
    // reclamation back to back.
    inject::clear_plan();  // stop injecting into the daemon's cleanup path
    bool reclaimed = false;
    auto observer = Registry::open(registry_name);
    ASSERT_NE(observer, nullptr);
    const int max_ticks =
        static_cast<int>((2.0 * options.heartbeat_timeout_s + 1.0) / 0.002);
    for (int i = 0; i < max_ticks; ++i) {
      daemon->tick(monotonic_seconds());
      if (daemon->client_count() == 0 && all_slots_free(*observer)) {
        reclaimed = true;
        break;
      }
      std::this_thread::sleep_for(2ms);
    }
    EXPECT_TRUE(reclaimed) << "slots/cores not reclaimed within " << max_ticks << " ticks";
  }

  // Invariants 3 + 4: journal replay consistency and foreign-fence release
  // (the daemon is destroyed, so the journal is complete including the
  // shutdown events).
  const auto entries = read_journal(journal);
  check_journal_consistency(entries);
  check_foreign_fences_released(entries);
  std::remove(journal.c_str());
}

// The fixed seed list: 120 schedules, deterministic by construction (the
// schedule is a pure function of the seed). A failure reports its seed and
// schedule; rerun with --gtest_filter=*FaultSweep*/<seed-1> to reproduce.
INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweep, ::testing::Range(1u, 121u));

}  // namespace
}  // namespace numashare::nsd
