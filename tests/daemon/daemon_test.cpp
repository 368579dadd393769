// ns_daemon lifecycle: dynamic join, heartbeat eviction, graceful leave,
// crash recovery — in-process with deterministic manual ticks, plus the
// full two-client fork round trip with SIGKILL and core reclamation.
#include "daemon/daemon.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agent/channel.hpp"
#include "agent/policies.hpp"
#include "core/placement.hpp"
#include "daemon/failover.hpp"
#include "runtime/runtime.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"
#include "topology/presets.hpp"

namespace numashare::nsd {
namespace {

using namespace std::chrono_literals;

topo::Machine test_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

TEST(Daemon, InitRequiresNoLiveOwner) {
  const auto registry = unique_registry("owner");
  DaemonOptions options;
  options.registry_name = registry;
  Daemon first(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(first.init());

  // Same registry, owner (this process) is alive: second daemon must refuse.
  Daemon second(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  EXPECT_FALSE(second.init(&error));
  EXPECT_NE(error.find("live daemon"), std::string::npos) << error;
}

TEST(Daemon, JournalLessRestartSucceedsTheDeadGeneration) {
  // A daemon without a journal that dies leaves only its registry segment.
  // Its successor must still publish a strictly newer generation, or a
  // degraded survivor never sees its failback signal.
  const auto registry = unique_registry("gen");
  DaemonOptions options;
  options.registry_name = registry;
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Daemon first(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    _exit(first.init() && first.arbiter_generation() == 1 ? 0 : 1);  // no shutdown: a crash
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  Daemon second(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(second.init(&error)) << error;
  EXPECT_EQ(second.arbiter_generation(), 2u);
  const auto published = Registry::open(registry, &error);
  ASSERT_NE(published, nullptr) << error;
  EXPECT_EQ(published->header().arbiter_generation.load(), 2u);
}

TEST(Daemon, StartupCleansStaleSegments) {
  const auto registry = unique_registry("stale");
  // Litter: a dead "registry" plus channel-looking segments from a previous
  // incarnation that was SIGKILLed (nothing unlinked them). Raw shm_open is
  // exactly that state. PID 0 in a real crashed registry would never be
  // alive, but a raw segment without magic is even more broken — init()
  // must cope with both.
  for (const char* suffix : {"", "-chan-0-1", "-chan-3-7"}) {
    const std::string name = registry + suffix;
    const int fd = shm_open(name.c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(ftruncate(fd, 4096), 0);
    close(fd);
  }

  DaemonOptions options;
  options.registry_name = registry;
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_EQ(daemon.stats().stale_segments_cleaned, 3u);
}

TEST(Daemon, StartupSparesADaemonWhoseNameExtendsOurs) {
  // A live daemon on <r>2 with an admitted client: a daemon starting on <r>
  // must clean only its own names, not every name that starts with <r>.
  const auto registry = unique_registry("prefix");
  const auto neighbour_registry = registry + "2";
  DaemonOptions neighbour_options;
  neighbour_options.registry_name = neighbour_registry;
  Daemon neighbour(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(),
                   neighbour_options);
  ASSERT_TRUE(neighbour.init());
  ClientConnectOptions copts;
  copts.registry_name = neighbour_registry;
  FailoverClient client("neighbour", copts);
  double now = 0.0;
  ASSERT_TRUE(connect_with_ticks(client, neighbour, now));
  const std::string channel_name = client.channel()->name();

  DaemonOptions options;
  options.registry_name = registry;
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_EQ(daemon.stats().stale_segments_cleaned, 0u);
  EXPECT_NE(Registry::open(neighbour_registry, &error), nullptr) << error;
  EXPECT_NE(agent::ShmChannel::attach(channel_name, &error), nullptr) << error;
}

TEST(Daemon, JoinEvictLeaveLifecycle) {
  const auto registry = unique_registry("life");
  const auto journal = unique_journal("life");
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.heartbeat_timeout_s = 0.5;
  options.snapshot_every_ticks = 0;
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;

    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 8.0;
    FailoverClient alpha("alpha", copts);
    ASSERT_TRUE(connect_with_ticks(alpha, daemon, now));
    EXPECT_EQ(daemon.client_count(), 1u);
    EXPECT_EQ(daemon.stats().joins, 1u);

    // The registry advertises the arbitrated machine's shape.
    const auto shape = alpha.arbitration_machine();
    EXPECT_EQ(shape.node_count(), 2u);
    EXPECT_EQ(shape.core_count(), 4u);

    // The model-guided policy acts on the *advertised* AI before any
    // telemetry arrives: alpha must receive per-node thread targets that
    // cover the whole machine.
    daemon.tick(now += 0.01);
    std::optional<agent::Command> last;
    while (auto cmd = alpha.channel()->pop_command()) last = *cmd;
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->type, agent::CommandType::kSetNodeThreads);
    std::uint32_t total = 0;
    for (std::uint32_t n = 0; n < last->node_count; ++n) total += last->node_threads[n];
    EXPECT_EQ(total, 4u);

    // A second client joins; the partition must be recomputed to cover both.
    copts.advertised_ai = 0.5;
    FailoverClient beta("beta", copts);
    ASSERT_TRUE(connect_with_ticks(beta, daemon, now));
    EXPECT_EQ(daemon.client_count(), 2u);
    daemon.tick(now += 0.01);
    std::uint32_t alpha_total = 0, beta_total = 0;
    while (auto cmd = alpha.channel()->pop_command()) {
      if (cmd->type == agent::CommandType::kSetNodeThreads) {
        alpha_total = 0;
        for (std::uint32_t n = 0; n < cmd->node_count; ++n) alpha_total += cmd->node_threads[n];
      }
    }
    while (auto cmd = beta.channel()->pop_command()) {
      if (cmd->type == agent::CommandType::kSetNodeThreads) {
        beta_total = 0;
        for (std::uint32_t n = 0; n < cmd->node_count; ++n) beta_total += cmd->node_threads[n];
      }
    }
    EXPECT_EQ(alpha_total + beta_total, 4u);
    EXPECT_GE(alpha_total, 1u);
    EXPECT_GE(beta_total, 1u);

    // alpha goes silent: heartbeats stop, and (since the PID — ours — is
    // still alive) the heartbeat timeout must evict it. beta keeps beating.
    beta.heartbeat();
    daemon.tick(now += 0.1);  // observes alpha's last heartbeat value
    beta.heartbeat();
    daemon.tick(now += options.heartbeat_timeout_s + 0.1);
    EXPECT_EQ(daemon.stats().evictions, 1u);
    EXPECT_EQ(daemon.client_count(), 1u);
    EXPECT_EQ(alpha.poll(now), FailoverState::kRejoining);
    EXPECT_FALSE(alpha.connected());
    EXPECT_EQ(beta.poll(now), FailoverState::kAttached);

    // The survivor inherits the whole machine.
    daemon.tick(now += 0.01);
    std::optional<agent::Command> beta_last;
    while (auto cmd = beta.channel()->pop_command()) {
      if (cmd->type == agent::CommandType::kSetNodeThreads) beta_last = *cmd;
    }
    ASSERT_TRUE(beta_last.has_value());
    std::uint32_t reclaimed = 0;
    for (std::uint32_t n = 0; n < beta_last->node_count; ++n) {
      reclaimed += beta_last->node_threads[n];
    }
    EXPECT_EQ(reclaimed, 4u);

    // beta says goodbye properly.
    beta.disconnect();
    daemon.tick(now += 0.01);
    EXPECT_EQ(daemon.stats().leaves, 1u);
    EXPECT_EQ(daemon.client_count(), 0u);
  }

  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "daemon-start"), 1u);
  EXPECT_EQ(count_events(entries, "join"), 2u);
  EXPECT_EQ(count_events(entries, "evict"), 1u);
  EXPECT_EQ(count_events(entries, "leave"), 1u);
  EXPECT_GE(count_events(entries, "reallocate"), 2u);
  EXPECT_EQ(count_events(entries, "daemon-stop"), 1u);
  for (const auto& entry : entries) {
    if (entry.event != "evict") continue;
    EXPECT_EQ(journal_field(entry.raw, "reason").value_or(""), "\"heartbeat-timeout\"");
  }
  // Every model-guided decision journals what its search cost.
  for (const auto& entry : entries) {
    if (entry.event != "reallocate") continue;
    const auto search = journal_field(entry.raw, "search").value_or("");
    EXPECT_TRUE(search == "\"full\"" || search == "\"refine\"") << entry.raw;
    EXPECT_GE(std::stoull(journal_field(entry.raw, "evaluated").value_or("0")), 1u) << entry.raw;
    for (const char* key : {"pruned", "bound_solves", "app_classes", "home_moves",
                            "predicted_gflops", "search_us", "truncated"}) {
      EXPECT_TRUE(journal_field(entry.raw, key).has_value()) << key << " in " << entry.raw;
    }
  }
  std::remove(journal.c_str());
}

TEST(Daemon, JournalCountsAppClasses) {
  // Two clients advertise the same AI, so the exact search treats them as
  // one class of interchangeable apps: three apps, two classes.
  const auto registry = unique_registry("classes");
  const auto journal = unique_journal("classes");
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.snapshot_every_ticks = 0;
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    std::vector<std::unique_ptr<FailoverClient>> clients;
    for (const double ai : {0.5, 8.0, 0.5}) {
      ClientConnectOptions copts;
      copts.registry_name = registry;
      copts.advertised_ai = ai;
      clients.push_back(
          std::make_unique<FailoverClient>("twin-" + std::to_string(clients.size()), copts));
      ASSERT_TRUE(connect_with_ticks(*clients.back(), daemon, now));
    }
    daemon.tick(now += 0.01);
  }
  std::optional<std::string> classes;
  for (const auto& entry : read_journal(journal)) {
    if (entry.event == "reallocate") classes = journal_field(entry.raw, "app_classes");
  }
  EXPECT_EQ(classes.value_or(""), "2");
  std::remove(journal.c_str());
}

/// The model-guided policy behind the daemon's advertised-AI wrapper.
const agent::ModelGuidedPolicy& model_policy(Daemon& daemon) {
  auto& wrapper = dynamic_cast<AdvertisedAiPolicy&>(daemon.arbitration_agent().policy());
  return dynamic_cast<agent::ModelGuidedPolicy&>(wrapper.inner());
}

/// Two bandwidth-bound NUMA-bad apps with their data on node 0 of
/// test_machine(): moving one home to node 1 doubles what they get.
std::vector<model::AppSpec> homed_specs() {
  return {model::AppSpec::numa_bad("a", 0.05, 0), model::AppSpec::numa_bad("b", 0.05, 0)};
}

TEST(Daemon, AdvertisedDataHomePricedBeforeFirstTelemetry) {
  // Clients that connect advertising an AI and a data home are priced as
  // NUMA-bad on the very first decide, before any telemetry arrives.
  const auto registry = unique_registry("adhome");
  DaemonOptions options;
  options.registry_name = registry;
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  double now = 0.0;
  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (int i = 0; i < 2; ++i) {
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = 0.05;
    copts.data_home = 0;
    clients.push_back(std::make_unique<FailoverClient>("adhome-" + std::to_string(i), copts));
    ASSERT_TRUE(connect_with_ticks(*clients.back(), daemon, now));
  }
  daemon.tick(now += 0.01);
  const auto& stats = model_policy(daemon).last_search();
  ASSERT_NE(stats.kind, agent::ModelGuidedPolicy::SearchKind::kNone);
  const auto bad = model::decide(test_machine(), homed_specs(), model::Objective::kTotalGflops, 1);
  const auto perfect = model::decide(test_machine(),
                                     {model::AppSpec::numa_perfect("a", 0.05),
                                      model::AppSpec::numa_perfect("b", 0.05)},
                                     model::Objective::kTotalGflops, 1);
  EXPECT_DOUBLE_EQ(stats.predicted_gflops, bad.search.solution.total_gflops);
  EXPECT_LT(stats.predicted_gflops, perfect.search.solution.total_gflops);
  EXPECT_EQ(stats.home_moves, 1u);
}

TEST(Daemon, JournalCountsHomeMoves) {
  // The telemetry carries the data home the model prices. The first
  // decision suggests one home move and journals `home_moves: 1`; the
  // client obeys and re-advertises with the same AI, which re-decides, and
  // the settled homes journal `home_moves: 0`.
  const auto registry = unique_registry("moves");
  const auto journal = unique_journal("moves");
  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.snapshot_every_ticks = 0;
  double now = 0.0;
  {
    Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    // No advertised AI: the policy waits for the telemetry.
    std::vector<std::unique_ptr<FailoverClient>> clients;
    for (int i = 0; i < 2; ++i) {
      ClientConnectOptions copts;
      copts.registry_name = registry;
      clients.push_back(std::make_unique<FailoverClient>("homed-" + std::to_string(i), copts));
      ASSERT_TRUE(connect_with_ticks(*clients.back(), daemon, now));
    }
    const auto push = [&](std::uint64_t seq, std::uint32_t second_home) {
      for (std::size_t i = 0; i < clients.size(); ++i) {
        agent::Telemetry tel;
        tel.seq = seq;
        tel.ai_estimate = 0.05;
        tel.data_home_node = i == 0 ? 0 : second_home;
        clients[i]->channel()->push_telemetry(tel);
      }
    };
    push(1, 0);
    daemon.tick(now += 0.01);
    push(2, 1);
    daemon.tick(now += 0.01);
  }
  std::vector<std::string> moves;
  for (const auto& entry : read_journal(journal)) {
    if (entry.event == "reallocate") moves.push_back(journal_field(entry.raw, "home_moves").value_or(""));
  }
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_TRUE(model::decide(test_machine(), homed_specs(), model::Objective::kTotalGflops, 1)
                  .move.has_value());
  EXPECT_EQ(moves[0], "1");
  EXPECT_EQ(moves[1], "0");
  std::remove(journal.c_str());
}

TEST(OverMembership, DaemonCommandsTwentyOneClients) {
  // The 21st client pushes the model search past its exact bound on the
  // 4x20 preset (C(40,20) uniform candidates once the per-app floor clamps
  // to zero). The tick that admits it must still return, command every
  // client, and keep observing heartbeats: no client may be evicted while
  // it beats.
  const auto registry = unique_registry("crowd");
  DaemonOptions options;
  options.registry_name = registry;
  options.heartbeat_timeout_s = 0.5;
  options.enactment_deadline_s = 60.0;  // the clients never enact; keep them uncapped
  options.snapshot_every_ticks = 0;
  Daemon daemon(topo::paper_skylake_machine(), std::make_unique<agent::ModelGuidedPolicy>(),
                options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  // join_churn's memory-bound-heavy AI mix, cycled.
  constexpr double kAiMix[] = {1.0 / 64, 1.0 / 64, 1.0 / 32, 1.0 / 32, 1.0 / 16,
                               1.0 / 16, 1.0 / 8,  1.0 / 8,  1.0,      1.0};
  constexpr std::size_t kClients = 21;
  double now = 0.0;
  std::vector<std::unique_ptr<FailoverClient>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = kAiMix[i % std::size(kAiMix)];
    clients.push_back(std::make_unique<FailoverClient>("crowd-" + std::to_string(i), copts));
    ASSERT_TRUE(connect_with_ticks(*clients.back(), daemon, now)) << "client " << i;
  }
  ASSERT_EQ(daemon.client_count(), kClients);

  // Beat and tick across several heartbeat timeouts.
  const auto ticks_before = daemon.stats().ticks;
  for (int round = 0; round < 10; ++round) {
    for (auto& client : clients) client->heartbeat();
    daemon.tick(now += 0.2);
  }
  EXPECT_EQ(daemon.stats().ticks, ticks_before + 10);
  EXPECT_EQ(daemon.stats().evictions, 0u);
  EXPECT_EQ(daemon.client_count(), kClients);

  auto& wrapper = dynamic_cast<AdvertisedAiPolicy&>(daemon.arbitration_agent().policy());
  const auto& model = dynamic_cast<agent::ModelGuidedPolicy&>(wrapper.inner());
  EXPECT_EQ(model.last_search().kind, agent::ModelGuidedPolicy::SearchKind::kRefine);
  EXPECT_LE(model.last_search().evaluated, model::kMaxSearchSolves);

  const auto machine = topo::paper_skylake_machine();
  std::vector<std::uint32_t> node_load(machine.node_count(), 0);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(clients[i]->poll(now), FailoverState::kAttached) << "client " << i;
    std::optional<agent::Command> last;
    while (auto cmd = clients[i]->channel()->pop_command()) {
      if (cmd->type == agent::CommandType::kSetNodeThreads) last = *cmd;
    }
    ASSERT_TRUE(last.has_value()) << "client " << i << " never commanded";
    std::uint32_t total = 0;
    for (std::uint32_t n = 0; n < last->node_count; ++n) {
      total += last->node_threads[n];
      node_load[n] += last->node_threads[n];
    }
    EXPECT_GE(total, 1u) << "client " << i;
  }
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    EXPECT_LE(node_load[n], machine.cores_in_node(n)) << "node " << n;
  }
}

TEST(Daemon, ClientReconnectsAfterEviction) {
  const auto registry = unique_registry("reconn");
  DaemonOptions options;
  options.registry_name = registry;
  options.heartbeat_timeout_s = 0.2;
  double now = 0.0;
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.advertised_ai = 2.0;
  FailoverClient client("phoenix", copts);
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));
  const std::string first_channel = client.channel()->name();

  // Go silent long enough to be evicted.
  daemon.tick(now += 0.1);
  daemon.tick(now += 1.0);
  EXPECT_EQ(daemon.stats().evictions, 1u);

  // The poll that sees the eviction drops the connection without blocking
  // on a rejoin (one join attempt would wait out the 2 s activation
  // timeout), so this thread, which ticks the daemon, sees the loss first.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client.poll(now), FailoverState::kRejoining);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.channel(), nullptr);

  // The next poll, on a helper thread while the daemon ticks, rejoins: a
  // fresh slot incarnation and a working channel.
  const double poll_at = now;
  ASSERT_TRUE(join_with_ticks(client, daemon, now, [&client, poll_at] {
    return client.poll(poll_at) == FailoverState::kAttached;
  }));
  EXPECT_EQ(client.stats().rejoins, 1u);
  EXPECT_EQ(client.poll(now), FailoverState::kAttached);
  EXPECT_NE(client.channel()->name(), first_channel);
  EXPECT_EQ(daemon.stats().joins, 2u);
}

TEST(Daemon, AdvertisedDataHomeReachesTheSlot) {
  const auto registry = unique_registry("home");
  DaemonOptions options;
  options.registry_name = registry;
  double now = 0.0;
  Daemon daemon(test_machine(), std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  ClientConnectOptions copts;
  copts.registry_name = registry;
  copts.data_home = 1;
  FailoverClient client("homed", copts);
  ASSERT_TRUE(connect_with_ticks(client, daemon, now));
  EXPECT_EQ(client.registry()->slot(client.slot_index()).data_home.load(), 1u);
}

TEST(Daemon, ConnectBackoffGivesUpWithoutDaemon) {
  ClientConnectOptions copts;
  copts.registry_name = unique_registry("nobody");
  copts.max_attempts = 3;
  copts.initial_backoff_us = 100;
  copts.max_backoff_us = 200;
  FailoverClient client("lonely", copts);
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect(&error));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(error.find("gave up after 3 attempts"), std::string::npos) << error;
  // Backoff actually slept (100 + 200 us at minimum), but stayed bounded.
  EXPECT_GE(elapsed, 300us);
  EXPECT_LT(elapsed, 2s);
}

// The acceptance scenario: a real daemon thread, two forked client
// processes with live runtimes, a SIGKILL, eviction within the heartbeat
// timeout, core reclamation for the survivor, and a journal telling the
// whole story. Afterwards, a restart over deliberately planted litter
// proves startup cleanup.
TEST(DaemonE2E, ForkKillEvictReclaim) {
  const auto registry = unique_registry("e2e");
  const auto journal = unique_journal("e2e");
  const auto machine = test_machine();

  DaemonOptions options;
  options.registry_name = registry;
  options.journal_path = journal;
  options.heartbeat_timeout_s = 1.0;
  options.period_us = 5'000;
  options.snapshot_every_ticks = 50;

  auto run_client = [&](const char* name, double ai, bool exit_when_whole_machine) {
    ClientConnectOptions copts;
    copts.registry_name = registry;
    copts.advertised_ai = ai;
    copts.max_attempts = 20;
    FailoverClient client(name, copts);
    if (!client.connect()) _exit(2);
    rt::Runtime runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = name});
    agent::RuntimeAdapter adapter(runtime, *client.channel(), ai);
    bool was_constrained = false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      adapter.pump();
      client.heartbeat();
      const auto running = runtime.running_threads();
      if (running < 4) was_constrained = true;
      if (exit_when_whole_machine && was_constrained && running == 4) {
        _exit(0);  // constrained first, then won the whole machine back
      }
      std::this_thread::sleep_for(2ms);
    }
    _exit(exit_when_whole_machine ? 3 : 0);
  };

  auto daemon =
      std::make_unique<Daemon>(machine, std::make_unique<agent::ModelGuidedPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon->init(&error)) << error;

  // Both clients fork before the daemon thread starts: a child forked
  // beside a running thread can inherit a lock that thread held (ASan's
  // allocator lock, say) and deadlock on it. The registry exists since
  // init(), and the clients' connect() retries until the loop activates
  // their slots.
  // victim: joins and runs until killed.
  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) run_client("victim", 8.0, /*exit_when_whole_machine=*/false);

  // survivor: exits 0 once it has seen a constrained allocation and then
  // been given all four cores (which requires the victim's eviction).
  const pid_t survivor = fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) run_client("survivor", 0.5, /*exit_when_whole_machine=*/true);
  daemon->start();

  // Wait until both clients are active (observed through a separate
  // read-only mapping of the registry — all-atomic fields).
  auto observer = Registry::open(registry);
  ASSERT_NE(observer, nullptr);
  const auto join_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint32_t active = 0;
  while (std::chrono::steady_clock::now() < join_deadline) {
    active = 0;
    for (std::uint32_t i = 0; i < kMaxClients; ++i) {
      if (observer->slot(i).state() == SlotState::kActive) ++active;
    }
    if (active == 2) break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(active, 2u) << "both clients should register dynamically";

  // Give the policy a moment to constrain both, then kill the victim.
  std::this_thread::sleep_for(200ms);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The survivor only exits 0 after inheriting the whole machine, which
  // bounds "eviction + reclamation + redistribution" end to end.
  ASSERT_EQ(waitpid(survivor, &status, 0), survivor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The survivor exited without saying goodbye; the daemon notices the dead
  // pid and frees its slot too. Wait for that so the stats are settled.
  const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < drain_deadline) {
    active = 0;
    for (std::uint32_t i = 0; i < kMaxClients; ++i) {
      if (observer->slot(i).state() != SlotState::kFree) ++active;
    }
    if (active == 0) break;
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(active, 0u);

  daemon->stop();
  EXPECT_EQ(daemon->stats().joins, 2u);
  EXPECT_EQ(daemon->stats().evictions, 2u);
  EXPECT_EQ(daemon->stats().leaves, 0u);
  observer.reset();
  daemon.reset();  // releases the registry so a successor can own the name

  const auto entries = read_journal(journal);
  EXPECT_EQ(count_events(entries, "join"), 2u);
  EXPECT_EQ(count_events(entries, "evict"), 2u);
  EXPECT_GE(count_events(entries, "reallocate"), 2u);
  bool victim_evicted = false;
  for (const auto& entry : entries) {
    if (entry.event != "evict") continue;
    const auto client_field = journal_field(entry.raw, "client").value_or("");
    const auto reason = journal_field(entry.raw, "reason").value_or("");
    if (client_field.find("victim") != std::string::npos) {
      victim_evicted = reason == "\"heartbeat-timeout\"" || reason == "\"dead-pid\"";
    }
  }
  EXPECT_TRUE(victim_evicted);

  // Restart over planted litter: a crashed daemon's segments must be found
  // and removed before the new registry goes live.
  {
    const std::string stale = registry + "-chan-9-99";
    const int fd = shm_open(stale.c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    close(fd);
  }
  Daemon restarted(machine, std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(restarted.init(&error)) << error;
  EXPECT_GE(restarted.stats().stale_segments_cleaned, 1u);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace numashare::nsd
