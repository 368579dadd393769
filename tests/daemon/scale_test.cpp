// Registry v7 tick-path scaling (docs/DAEMON.md "Scaling the tick path"):
// high-membership churn over the 1024-slot sharded registry, asserting the
// attention-bitmap path and the legacy full-sweep path converge to identical
// registry/health state, and that the periodic sweep converges slots whose
// attention bit was lost.
//
// Clients are simulated in-process by nsd::SimFleet (tests/support), which
// drives the slot protocol (claim / heartbeat / kLeaving CAS) against a
// second mapping of the registry, exactly what FailoverClient does, minus the
// channel attach — the daemon still mints a real ShmChannel per admitted
// slot, so the full 1024-client run also exercises segment churn.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "daemon/registry.hpp"
#include "support/daemon_support.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Sanitizer-scaled membership: the full capacity unsanitized, enough to
/// span many shards under ASan/TSan without timing out.
constexpr std::uint32_t kChurnClients = kSanitized ? 96 : kMaxClients;

topo::Machine test_machine() { return topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0); }

/// Final daemon + registry state after a churn script, for convergence
/// comparison across scan modes.
struct ChurnResult {
  std::size_t client_count = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;
  std::vector<SlotState> states;
  std::vector<std::uint32_t> health;

  bool operator==(const ChurnResult&) const = default;
};

/// Deterministic join/leave/heartbeat churn: the same script runs against a
/// bitmap-only daemon and a sweep-every-tick daemon, so any divergence in
/// final state is a scan-path bug, not script noise.
ChurnResult run_churn(std::uint64_t full_sweep_every_ticks, const char* tag) {
  DaemonOptions options;
  options.registry_name = unique_registry(tag);
  options.full_sweep_every_ticks = full_sweep_every_ticks;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  options.heartbeat_timeout_s = 5.0;
  Daemon daemon(test_machine(), std::make_unique<NullPolicy>(), options);
  std::string error;
  EXPECT_TRUE(daemon.init(&error)) << error;

  auto fleet = SimFleet::open(options.registry_name, &error);
  EXPECT_NE(fleet, nullptr) << error;

  double now = 0.0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };

  constexpr std::uint32_t kRounds = 32;
  const std::uint32_t join_batch = (kChurnClients + kRounds / 2 - 1) / (kRounds / 2);
  std::uint32_t joined = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    // Join a batch until the target membership has passed through.
    for (std::uint32_t j = 0; j < join_batch && joined < kChurnClients; ++j, ++joined) {
      EXPECT_TRUE(fleet->claim("churn-" + std::to_string(joined), 4.0));
    }
    daemon.tick(now += 0.01);
    // Every admitted client heartbeats; a subset leaves.
    fleet->heartbeat_all();
    const auto members = static_cast<std::uint32_t>(fleet->clients().size());
    const std::uint32_t leave_count =
        round % 2 == 1 ? std::min<std::uint32_t>(join_batch / 2, members) : 0;
    for (std::uint32_t l = 0; l < leave_count; ++l) {
      EXPECT_TRUE(fleet->leave(next() % static_cast<std::uint32_t>(fleet->clients().size())));
    }
    daemon.tick(now += 0.01);
  }
  // Drain any tail work (leaves flagged on the last round).
  for (int i = 0; i < 3; ++i) daemon.tick(now += 0.01);

  ChurnResult result;
  result.client_count = daemon.client_count();
  result.joins = daemon.stats().joins;
  result.leaves = daemon.stats().leaves;
  result.evictions = daemon.stats().evictions;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    result.states.push_back(fleet->registry().slot(i).state());
    result.health.push_back(fleet->registry().slot(i).health.load(std::memory_order_relaxed));
  }
  EXPECT_EQ(result.joins, kChurnClients);
  EXPECT_EQ(result.client_count, fleet->clients().size());
  return result;
}

TEST(DaemonScale, ChurnConvergesIdenticallyOnBitmapAndFullSweepPaths) {
  // 0 = bitmap-only (no safety net at all: every transition must be found
  // from attention bits alone); 1 = the pre-v7 full scan every tick.
  const ChurnResult bitmap = run_churn(/*full_sweep_every_ticks=*/0, "bitmap");
  const ChurnResult sweep = run_churn(/*full_sweep_every_ticks=*/1, "sweep");
  EXPECT_EQ(bitmap, sweep);
}

TEST(DaemonScale, BitmapPathServicesWithoutSweeps) {
  DaemonOptions options;
  options.registry_name = unique_registry("nosweep");
  options.full_sweep_every_ticks = 0;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  Daemon daemon(test_machine(), std::make_unique<NullPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  auto fleet = SimFleet::open(options.registry_name, &error);
  ASSERT_NE(fleet, nullptr) << error;
  ASSERT_TRUE(fleet->claim("solo", 2.0));
  daemon.tick(0.01);
  EXPECT_TRUE(fleet->active(fleet->clients().front()));
  EXPECT_EQ(daemon.stats().full_sweeps, 0u);
  EXPECT_GT(daemon.stats().attention_visits, 0u);
}

TEST(DaemonScale, LostAttentionBitConvergesViaFullSweep) {
  DaemonOptions options;
  options.registry_name = unique_registry("lostbit");
  options.full_sweep_every_ticks = 4;
  options.snapshot_every_ticks = 0;
  options.checkpoint_every_ticks = 0;
  Daemon daemon(test_machine(), std::make_unique<NullPolicy>(), options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  // Tick once so the startup sweep (tick counter 0) is behind us.
  daemon.tick(0.01);

  // A claimant that dies between its kJoining CAS and the fetch_or leaves a
  // published slot with no attention bit. Reproduce that by driving the
  // slot protocol by hand, skipping raise_attention.
  auto client_view = Registry::open(options.registry_name, &error);
  ASSERT_NE(client_view, nullptr) << error;
  auto& slot = client_view->slot(7);
  std::uint64_t word = slot.state_word.load(std::memory_order_acquire);
  ASSERT_EQ(state_of(word), SlotState::kFree);
  ASSERT_TRUE(slot.try_transition(word, SlotState::kClaiming));
  slot.pid.store(static_cast<std::uint32_t>(::getpid()), std::memory_order_relaxed);
  std::memset(slot.name, 0, sizeof(slot.name));
  std::strncpy(slot.name, "lost-bit", sizeof(slot.name) - 1);
  slot.advertised_ai.store(0.0, std::memory_order_relaxed);
  slot.data_home.store(agent::kMaxNodes, std::memory_order_relaxed);
  slot.heartbeat.store(1, std::memory_order_relaxed);
  ASSERT_TRUE(slot.try_transition(word, SlotState::kJoining));

  // Ticks 2 and 3 (counter 1, 2 at entry): no sweep due, no bit — the
  // bitmap path alone must NOT see this slot.
  daemon.tick(0.02);
  daemon.tick(0.03);
  EXPECT_EQ(slot.state(), SlotState::kJoining);
  EXPECT_EQ(daemon.client_count(), 0u);
  // Two more ticks cross the counter-4 boundary: the safety-net sweep runs
  // and admits the orphaned publish.
  daemon.tick(0.04);
  daemon.tick(0.05);
  EXPECT_EQ(slot.state(), SlotState::kActive);
  EXPECT_EQ(daemon.client_count(), 1u);
  EXPECT_GE(daemon.stats().full_sweeps, 2u);  // startup sweep + safety net
}

}  // namespace
}  // namespace numashare::nsd
