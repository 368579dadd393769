// Daemon kill/restart chaos harness (docs/DAEMON.md "Failover & degraded
// mode").
//
// Two layers, like fault_sweep:
//  * directed regressions — one per failover property: survivors of a
//    daemon SIGKILL all land in degraded mode within a bounded window and
//    compute bitwise-identical conservative allocations; a restarted daemon
//    comes back with a strictly higher arbiter generation and the survivors
//    fail back onto it (its commands carry that generation); a wedged-but-
//    alive daemon drives clients to suspect and back without an episode;
//    the windows are seconds of the caller's clock, whatever the poll rate.
//  * the randomized sweep — 40 seeds, each expanded into a kill/restart
//    schedule (2-3 clients, >=3 kill cycles, SIGKILL vs in-tick die site,
//    randomized kill timing and restart delay). Invariants per seed:
//      1. no wedge: every phase (attach, degrade, agree, fail back)
//         converges within a wall deadline;
//      2. once the survivor set is stable, every survivor's degraded
//         allocation is identical, and never exceeds the machine;
//      3. each client's observed arbiter generation is strictly monotone
//         across cycles, and all clients agree on the final generation;
//      4. after the last failback, commands carry the final generation.
//
// Process shape: the daemon runs in a forked child (self-ticking loop);
// the FailoverClients run single-threaded in the parent, polling on the
// monotonic clock, so the parent can compare their degraded allocations
// directly — and stays fork-safe under TSan (no parent threads at fork
// time).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
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
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

DaemonOptions failover_daemon_options(const std::string& registry, const std::string& journal) {
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.heartbeat_timeout_s = 1.0;
  options.snapshot_every_ticks = 0;
  // Frequent checkpoints so most kill points land after one (the before-
  // first-checkpoint recovery path is still reached by early kills).
  options.checkpoint_every_ticks = 25;
  return options;
}

ClientConnectOptions failover_client_options(const std::string& registry, std::uint64_t seed) {
  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  copts.max_attempts = 8;
  copts.initial_backoff_us = 1'000;
  copts.max_backoff_us = 50'000;
  copts.activation_timeout_s = 1.0;
  copts.backoff_seed = seed;  // deterministic jitter per client
  return copts;
}

/// The forked daemon body: install the fault plan, init, self-tick until the
/// lifetime guard expires. Never returns; never touches gtest.
[[noreturn]] void run_daemon_child(const topo::Machine& machine, const std::string& registry,
                                   const std::string& journal, const std::string& fault_spec) {
  inject::clear_plan();
  if (!fault_spec.empty() && !inject::install_spec(fault_spec)) _exit(99);
  auto options = failover_daemon_options(registry, journal);
  Daemon daemon(machine, std::make_unique<agent::ModelGuidedPolicy>(), options);
  if (!daemon.init()) _exit(97);
  const auto deadline = Clock::now() + 60s;  // parent kills us long before
  while (Clock::now() < deadline) {
    daemon.tick(monotonic_seconds());
    std::this_thread::sleep_for(1ms);
  }
  _exit(0);
}

pid_t spawn_daemon(const topo::Machine& machine, const std::string& registry,
                   const std::string& journal, const std::string& fault_spec = "") {
  const pid_t pid = fork();
  if (pid == 0) run_daemon_child(machine, registry, journal, fault_spec);
  return pid;
}

/// Wait until the spawned daemon's registry is live (it may be sitting in a
/// daemon.restart.delay pause first).
bool wait_for_daemon(const std::string& registry, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (auto probe = Registry::open(registry); probe != nullptr && probe->daemon_alive()) {
      return true;
    }
    std::this_thread::sleep_for(2ms);
  }
  return false;
}

/// Pump every client (heartbeat + poll) until `done` or the deadline. The
/// deadline IS the bounded-window assertion: a false return means a wedge.
bool pump_until(std::vector<std::unique_ptr<FailoverClient>>& clients,
                const std::function<bool()>& done, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    for (auto& client : clients) {
      client->heartbeat();
      client->poll(monotonic_seconds());
    }
    if (done()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return done();
}

bool all_in_state(const std::vector<std::unique_ptr<FailoverClient>>& clients,
                  FailoverState state) {
  for (const auto& client : clients) {
    if (client->state() != state) return false;
  }
  return true;
}

bool all_have_degraded_allocation(const std::vector<std::unique_ptr<FailoverClient>>& clients) {
  for (const auto& client : clients) {
    if (!client->degraded_allocation().has_value()) return false;
  }
  return true;
}

/// Invariant 2: every survivor computed the identical allocation, and the
/// consensus never hands out more than the machine has.
void expect_identical_degraded_allocations(
    const std::vector<std::unique_ptr<FailoverClient>>& clients, const topo::Machine& machine) {
  ASSERT_FALSE(clients.empty());
  const auto& reference = clients.front()->degraded_allocation();
  ASSERT_TRUE(reference.has_value());
  for (const auto& client : clients) {
    const auto& mine = client->degraded_allocation();
    ASSERT_TRUE(mine.has_value());
    EXPECT_EQ(mine->slots, reference->slots);
    EXPECT_TRUE(mine->allocation == reference->allocation)
        << "survivors disagree on the degraded allocation";
  }
  EXPECT_TRUE(reference->allocation.validate(machine));
  EXPECT_LE(reference->allocation.total(), machine.core_count());
}

void reap(pid_t pid, int* status_out = nullptr) {
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  if (status_out) *status_out = status;
}

void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  reap(pid, &status);
  ASSERT_TRUE(WIFSIGNALED(status));
}

class FailoverDirected : public ::testing::Test {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

// The generation fence itself, no processes involved (RuntimeAdapter::pump
// applies it; see Channel.StaleGenerationCommandIsFenced).
TEST_F(FailoverDirected, StaleCommandsAreFencedByGeneration) {
  agent::Command command;
  command.arbiter_generation = 0;  // in-process agent: never stale
  EXPECT_FALSE(agent::command_is_stale(command, 5));
  command.arbiter_generation = 4;  // pre-crash incarnation
  EXPECT_TRUE(agent::command_is_stale(command, 5));
  command.arbiter_generation = 5;  // current incarnation
  EXPECT_FALSE(agent::command_is_stale(command, 5));
  command.arbiter_generation = 6;  // newer than we knew: fresh by definition
  EXPECT_FALSE(agent::command_is_stale(command, 5));
}

/// Every command waiting in `client`'s channel, popped directly (the sweep
/// runs no runtime adapter).
std::vector<agent::Command> drain_commands(FailoverClient& client) {
  std::vector<agent::Command> commands;
  if (auto* channel = client.channel()) {
    while (auto command = channel->pop_command()) commands.push_back(*command);
  }
  return commands;
}

// SIGKILL the daemon under three live clients: all three must reach
// degraded mode within the bounded window and agree bitwise on the
// conservative allocation.
TEST_F(FailoverDirected, SurvivorsAgreeAfterDaemonKill) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0, 5.0);
  const auto registry = unique_registry("agree");
  const auto journal = unique_journal("agree");

  const pid_t daemon_pid = spawn_daemon(machine, registry, journal);
  ASSERT_GE(daemon_pid, 0);
  ASSERT_TRUE(wait_for_daemon(registry, 5000ms));

  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<FailoverClient>(
        "agree-" + std::to_string(c), failover_client_options(registry, 100 + c)));
    ASSERT_TRUE(clients.back()->connect());
    EXPECT_EQ(clients.back()->known_generation(), 1u);
  }
  ASSERT_TRUE(pump_until(
      clients, [&] { return all_in_state(clients, FailoverState::kAttached); }, 2000ms));

  kill_and_reap(daemon_pid);

  // Bounded degraded window: all survivors in degraded mode with an
  // allocation in hand well inside the deadline.
  ASSERT_TRUE(pump_until(
      clients,
      [&] {
        return all_in_state(clients, FailoverState::kDegraded) &&
               all_have_degraded_allocation(clients);
      },
      5000ms))
      << "survivors did not all reach degraded mode in time";
  // Settle a few more rounds so every survivor has gathered every proposal.
  for (int round = 0; round < 10; ++round) {
    for (auto& client : clients) {
      client->heartbeat();
      client->poll(monotonic_seconds());
    }
  }
  expect_identical_degraded_allocations(clients, machine);
  // Every survivor owns a row of the consensus.
  for (auto& client : clients) {
    EXPECT_FALSE(client->degraded_threads().empty());
    EXPECT_EQ(client->stats().degraded_entries, 1u);
  }

  clients.clear();
  EXPECT_GE(agent::cleanup_stale_segments(registry), 1u);
  std::remove(journal.c_str());
}

// The last grant an app hands poll() clamps its degraded proposal: a client
// the daemon held at one thread on node 0 asks for no more than that, while
// an unconstrained peer asks for its fair share.
TEST_F(FailoverDirected, DegradedProposalClampsToTheLastGrant) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0, 5.0);
  const auto registry = unique_registry("clamp");
  const auto journal = unique_journal("clamp");

  const pid_t daemon_pid = spawn_daemon(machine, registry, journal);
  ASSERT_GE(daemon_pid, 0);
  ASSERT_TRUE(wait_for_daemon(registry, 5000ms));

  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (int c = 0; c < 2; ++c) {
    clients.push_back(std::make_unique<FailoverClient>(
        "clamp-" + std::to_string(c), failover_client_options(registry, 400 + c)));
    ASSERT_TRUE(clients.back()->connect());
  }
  const std::vector<std::vector<std::uint32_t>> grants{{1, 0}, {}};
  kill_and_reap(daemon_pid);

  const auto deadline = Clock::now() + 5000ms;
  while (Clock::now() < deadline && !(all_in_state(clients, FailoverState::kDegraded) &&
                                      all_have_degraded_allocation(clients))) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c]->heartbeat();
      clients[c]->poll(monotonic_seconds(), grants[c]);
    }
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(all_in_state(clients, FailoverState::kDegraded));
  for (int round = 0; round < 10; ++round) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c]->poll(monotonic_seconds(), grants[c]);
    }
  }
  expect_identical_degraded_allocations(clients, machine);

  const auto proposal = [&](const FailoverClient& client) {
    const auto& slot = client.registry()->slot(client.slot_index());
    return std::vector<std::uint32_t>{slot.proposal_desired[0].load(),
                                      slot.proposal_desired[1].load()};
  };
  EXPECT_EQ(proposal(*clients[0]), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(proposal(*clients[1]), (std::vector<std::uint32_t>{2, 2}));
  const auto held = clients[0]->degraded_threads();
  ASSERT_EQ(held.size(), 2u);
  EXPECT_LE(held[0], 1u);
  EXPECT_EQ(held[1], 0u);

  clients.clear();
  EXPECT_GE(agent::cleanup_stale_segments(registry), 1u);
  std::remove(journal.c_str());
}

// Kill, then restart: survivors must observe the strictly higher
// incarnation, fail back onto it, drop their degraded grants, and see
// post-failback commands stamped with the new generation.
TEST_F(FailoverDirected, FailbackBumpsGenerationAndResumesCommands) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const auto registry = unique_registry("failback");
  const auto journal = unique_journal("failback");

  pid_t daemon_pid = spawn_daemon(machine, registry, journal);
  ASSERT_GE(daemon_pid, 0);
  ASSERT_TRUE(wait_for_daemon(registry, 5000ms));

  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (int c = 0; c < 2; ++c) {
    clients.push_back(std::make_unique<FailoverClient>(
        "fb-" + std::to_string(c), failover_client_options(registry, 200 + c)));
    ASSERT_TRUE(clients.back()->connect());
  }
  kill_and_reap(daemon_pid);
  ASSERT_TRUE(pump_until(
      clients, [&] { return all_in_state(clients, FailoverState::kDegraded); }, 5000ms));

  // Restart with a deliberate delay: the degraded interval is observable,
  // and rejoin probes against the orphan registry must keep failing until
  // the fresh incarnation actually publishes.
  daemon_pid = spawn_daemon(machine, registry, journal,
                            "daemon.restart.delay@site=init,us=100000");
  ASSERT_GE(daemon_pid, 0);
  ASSERT_TRUE(pump_until(
      clients, [&] { return all_in_state(clients, FailoverState::kAttached); }, 8000ms))
      << "survivors did not fail back onto the restarted daemon";

  for (auto& client : clients) {
    EXPECT_EQ(client->known_generation(), 2u);  // strictly fenced successor
    EXPECT_EQ(client->stats().rejoins, 1u);
    EXPECT_FALSE(client->degraded_allocation().has_value());  // died with gen 1
  }

  // Post-failback commands carry the new incarnation.
  bool saw_fresh_command = false;
  ASSERT_TRUE(pump_until(
      clients,
      [&] {
        for (auto& client : clients) {
          for (const auto& command : drain_commands(*client)) {
            EXPECT_EQ(command.arbiter_generation, 2u);
            saw_fresh_command = true;
          }
        }
        return saw_fresh_command;
      },
      5000ms));

  kill_and_reap(daemon_pid);
  clients.clear();
  EXPECT_GE(agent::cleanup_stale_segments(registry), 1u);
  std::remove(journal.c_str());
}

/// An in-process daemon on `registry`, ticked by the test thread.
std::unique_ptr<Daemon> in_process_daemon(const std::string& registry) {
  auto daemon = std::make_unique<Daemon>(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0),
                                         std::make_unique<agent::ModelGuidedPolicy>(),
                                         failover_daemon_options(registry, ""));
  return daemon->init() ? std::move(daemon) : nullptr;
}

// A wedged-but-alive daemon (ticks skipped, heartbeat frozen) must drive the
// client to suspect — and back to attached, with no degraded episode, once
// the heartbeat resumes. In-process daemon, manual ticks, and the client
// polls on the same virtual clock: 0.1 s frozen is past the 0.05 s suspect
// window and short of the 0.5 s degraded one.
TEST_F(FailoverDirected, SuspectRecoversWhenHeartbeatResumes) {
  const auto registry = unique_registry("suspect");
  const auto daemon = in_process_daemon(registry);
  ASSERT_NE(daemon, nullptr);
  FailoverClient client("wedge-watch", failover_client_options(registry, 300));
  double now = 0.0;
  ASSERT_TRUE(connect_with_ticks(client, *daemon, now));

  // Healthy ticks: attached, however much time passes between polls.
  for (int i = 0; i < 5; ++i) {
    daemon->tick(now += 0.01);
    client.heartbeat();
    EXPECT_EQ(client.poll(now), FailoverState::kAttached);
  }

  // Freeze the heartbeat (ticks skipped, pid alive): suspect after the
  // suspect window, and never degraded — the pid is alive and the degraded
  // window is long.
  ASSERT_TRUE(inject::install_spec("daemon.tick.skip@count=0"));
  FailoverState state = FailoverState::kAttached;
  for (int i = 0; i < 10; ++i) {
    daemon->tick(now += 0.01);  // skipped: no heartbeat movement
    client.heartbeat();
    state = client.poll(now);
  }
  EXPECT_EQ(state, FailoverState::kSuspect);
  EXPECT_EQ(client.stats().degraded_entries, 0u);

  // Resume: one real tick clears the suspicion.
  inject::clear_plan();
  daemon->tick(now += 0.01);
  EXPECT_EQ(client.poll(now), FailoverState::kAttached);
  EXPECT_EQ(client.stats().rejoins, 0u);  // same incarnation throughout
  EXPECT_EQ(client.known_generation(), 1u);
}

// The failover windows are seconds of the caller's clock, not poll counts.
// Two clients watch one wedged daemon (ticks skipped, pid alive), one
// polling every 2 ms of virtual time and one every 10 ms. Both turn suspect
// at the same instant, 0.05 s after the heartbeat last moved, and both
// degrade at 0.5 s.
TEST_F(FailoverDirected, WindowsAreTimedNotCounted) {
  const auto registry = unique_registry("timed");
  const auto daemon = in_process_daemon(registry);
  ASSERT_NE(daemon, nullptr);
  FailoverClient fast("poll-2ms", failover_client_options(registry, 500));
  FailoverClient slow("poll-10ms", failover_client_options(registry, 501));
  double now = 0.0;
  ASSERT_TRUE(connect_with_ticks(fast, *daemon, now));
  ASSERT_TRUE(connect_with_ticks(slow, *daemon, now));

  // The clients' clock counts whole milliseconds from their first poll, so
  // `ms / 1000.0` lands exactly on each window edge.
  FailoverClient* clients[2] = {&fast, &slow};
  const int period_ms[2] = {2, 10};
  for (auto* client : clients) ASSERT_EQ(client->poll(0.0), FailoverState::kAttached);
  ASSERT_TRUE(inject::install_spec("daemon.tick.skip@count=0"));
  int suspect_at_ms[2] = {-1, -1};
  int degraded_at_ms[2] = {-1, -1};
  for (int ms = 1; ms <= 600; ++ms) {
    daemon->tick(now += 0.001);  // skipped: the heartbeat stays put
    for (int c = 0; c < 2; ++c) {
      if (ms % period_ms[c] != 0) continue;
      const auto state = clients[c]->poll(ms / 1000.0);
      if (state != FailoverState::kAttached && suspect_at_ms[c] < 0) suspect_at_ms[c] = ms;
      if (state == FailoverState::kDegraded && degraded_at_ms[c] < 0) degraded_at_ms[c] = ms;
    }
  }
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE("polling every " + std::to_string(period_ms[c]) + " ms");
    EXPECT_EQ(suspect_at_ms[c], 50);
    EXPECT_EQ(degraded_at_ms[c], 500);
    EXPECT_EQ(clients[c]->stats().degraded_entries, 1u);
  }
}

// ---- the randomized kill/restart sweep ----------------------------------

struct FailoverSchedule {
  std::uint32_t clients = 2;
  std::uint32_t cycles = 3;
  std::uint32_t nodes = 2;
  std::uint32_t cores_per_node = 2;
  // Daemon incarnation k serves cycle k and dies per these (all indexed by
  // cycle): by parent SIGKILL after a live window, or by the armed
  // daemon.die@site=tick site after a tick count (generous enough that the
  // cycle's attach phase always completes first). Incarnation k > 0 starts
  // with a restart-delay pause, stretching the observable degraded window.
  std::vector<bool> kill_by_signal;
  std::vector<std::uint32_t> kill_after_ms;
  std::vector<std::uint32_t> die_after_ticks;
  std::vector<std::uint32_t> restart_delay_us;  // [0] unused (initial spawn)

  std::string describe() const {
    std::string text = std::to_string(clients) + " clients, " + std::to_string(nodes) + "x" +
                       std::to_string(cores_per_node) + ", cycles:";
    for (std::uint32_t k = 0; k < cycles; ++k) {
      text += " [start +" + std::to_string(restart_delay_us[k]) + "us, ";
      text += kill_by_signal[k] ? "SIGKILL after " + std::to_string(kill_after_ms[k]) + "ms]"
                                : "die@tick after " + std::to_string(die_after_ticks[k]) + "]";
    }
    return text;
  }

  /// The fault spec incarnation `cycle` is spawned with.
  std::string spec_for(std::uint32_t cycle) const {
    std::string spec;
    if (cycle > 0 && restart_delay_us[cycle] > 0) {
      spec = "daemon.restart.delay@site=init,us=" + std::to_string(restart_delay_us[cycle]);
    }
    if (!kill_by_signal[cycle]) {
      if (!spec.empty()) spec += ";";
      spec += "daemon.die@site=tick,after=" + std::to_string(die_after_ticks[cycle]);
    }
    return spec;
  }
};

FailoverSchedule make_failover_schedule(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  FailoverSchedule s;
  s.clients = 2 + static_cast<std::uint32_t>(rng.uniform_u64(2));     // 2..3
  s.cycles = 3 + static_cast<std::uint32_t>(rng.uniform_u64(2));      // 3..4
  s.nodes = 2 + static_cast<std::uint32_t>(rng.uniform_u64(2));       // 2..3
  s.cores_per_node = 2 + static_cast<std::uint32_t>(rng.uniform_u64(3));  // 2..4
  for (std::uint32_t k = 0; k < s.cycles; ++k) {
    s.kill_by_signal.push_back(rng.uniform() < 0.5);
    s.kill_after_ms.push_back(10 + static_cast<std::uint32_t>(rng.uniform_u64(90)));
    // ~1ms per self-tick: 150+ ticks leaves the attach/rejoin phase (a few
    // tens of ms) comfortably complete before the site fires mid-service.
    s.die_after_ticks.push_back(150 + static_cast<std::uint32_t>(rng.uniform_u64(150)));
    s.restart_delay_us.push_back(
        k == 0 ? 0 : static_cast<std::uint32_t>(rng.uniform_u64(60'000)));
  }
  return s;
}

class FailoverSweep : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

TEST_P(FailoverSweep, SurvivalInvariantsHoldUnderKillRestartCycles) {
  const std::uint32_t seed = GetParam();
  const FailoverSchedule schedule = make_failover_schedule(seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " " + schedule.describe());

  const auto machine =
      topo::Machine::symmetric(schedule.nodes, schedule.cores_per_node, 1.0, 10.0, 5.0);
  const auto registry = unique_registry("seed-" + std::to_string(seed));
  const auto journal = unique_journal("seed-" + std::to_string(seed));

  pid_t daemon_pid = spawn_daemon(machine, registry, journal, schedule.spec_for(0));
  ASSERT_GE(daemon_pid, 0);
  ASSERT_TRUE(wait_for_daemon(registry, 5000ms));

  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (std::uint32_t c = 0; c < schedule.clients; ++c) {
    clients.push_back(std::make_unique<FailoverClient>(
        "swp-" + std::to_string(seed) + "-" + std::to_string(c),
        failover_client_options(registry, seed * 100 + c)));
    ASSERT_TRUE(clients.back()->connect()) << "initial connect failed for client " << c;
  }

  std::vector<std::uint64_t> last_generation(clients.size(), 0);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    last_generation[c] = clients[c]->known_generation();
    EXPECT_EQ(last_generation[c], 1u);
  }

  for (std::uint32_t cycle = 0; cycle < schedule.cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    ASSERT_TRUE(pump_until(
        clients, [&] { return all_in_state(clients, FailoverState::kAttached); }, 10000ms))
        << "not all clients attached";

    // Kill incarnation `cycle`: a parent SIGKILL after the live window, or
    // the armed in-tick die site (then we pump until the child exits 52).
    // Reaping before expecting degraded detection matters: a zombie pid
    // still "exists" for the survivors' liveness probe.
    if (schedule.kill_by_signal[cycle]) {
      const auto live_until =
          Clock::now() + std::chrono::milliseconds(schedule.kill_after_ms[cycle]);
      pump_until(clients, [&] { return Clock::now() >= live_until; },
                 std::chrono::milliseconds(schedule.kill_after_ms[cycle] + 50));
      kill_and_reap(daemon_pid);
    } else {
      int status = 0;
      pid_t reaped = -1;
      ASSERT_TRUE(pump_until(
          clients,
          [&] {
            reaped = waitpid(daemon_pid, &status, WNOHANG);
            return reaped == daemon_pid;
          },
          20000ms))
          << "the armed daemon.die@tick site never fired";
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), 52);  // the daemon.die@tick default
    }

    // Invariant 1+2: bounded degraded window, then stable agreement.
    ASSERT_TRUE(pump_until(
        clients,
        [&] {
          return all_in_state(clients, FailoverState::kDegraded) &&
                 all_have_degraded_allocation(clients);
        },
        8000ms))
        << "survivors did not all reach degraded mode";
    for (int round = 0; round < 10; ++round) {
      for (auto& client : clients) {
        client->heartbeat();
        client->poll(monotonic_seconds());
      }
    }
    expect_identical_degraded_allocations(clients, machine);

    // Restart the next incarnation (possibly delayed; possibly pre-armed to
    // die); everyone must fail back with a strictly higher generation.
    const std::uint32_t next = cycle + 1;
    daemon_pid = spawn_daemon(machine, registry, journal,
                              next < schedule.cycles ? schedule.spec_for(next) : "");
    ASSERT_GE(daemon_pid, 0);
    ASSERT_TRUE(pump_until(
        clients, [&] { return all_in_state(clients, FailoverState::kAttached); }, 15000ms))
        << "survivors did not fail back";

    // Invariant 3: strict generation monotonicity, and all clients agree.
    for (std::size_t c = 0; c < clients.size(); ++c) {
      EXPECT_GT(clients[c]->known_generation(), last_generation[c])
          << "client " << c << " generation did not advance";
      last_generation[c] = clients[c]->known_generation();
      EXPECT_EQ(last_generation[c], clients[0]->known_generation());
      EXPECT_FALSE(clients[c]->degraded_allocation().has_value());
    }
  }

  // Invariant 4: post-failback commands carry the final generation.
  const std::uint64_t final_generation = clients[0]->known_generation();
  bool saw_fresh_command = false;
  EXPECT_TRUE(pump_until(
      clients,
      [&] {
        for (auto& client : clients) {
          for (const auto& command : drain_commands(*client)) {
            EXPECT_GE(command.arbiter_generation, final_generation);
            saw_fresh_command = true;
          }
        }
        return saw_fresh_command;
      },
      8000ms));

  kill_and_reap(daemon_pid);
  clients.clear();
  EXPECT_GE(agent::cleanup_stale_segments(registry), 1u);
  std::remove(journal.c_str());
  std::remove((journal + ".1").c_str());
}

// 40 seeds, deterministic by construction: a failure prints the seed and
// schedule; rerun with --gtest_filter=*FailoverSweep*/<seed-1>.
INSTANTIATE_TEST_SUITE_P(Seeds, FailoverSweep, ::testing::Range(1u, 41u));

}  // namespace
}  // namespace numashare::nsd
