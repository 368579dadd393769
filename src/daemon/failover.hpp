// The client side of the daemon: how an application joins a running
// numashared, and what it does when the arbiter is gone.
//
// A FailoverClient hides the whole registry dance — open the registry,
// claim a slot, publish identity, wait for the daemon to mint a ShmChannel,
// and attach to it. connect() retries each stage with bounded, jittered
// backoff, so an app started moments before the daemon (or across a daemon
// restart) still gets in. Once joined, it runs a four-state machine the app
// drives from its pump loop:
//
//       attached ──stalls──▶ suspect ──pid dead / stalls longer──▶ degraded
//          ▲                    │ heartbeat resumes                  │
//          └────────────────────┘                                    │
//          ▲                                new incarnation appears  │
//          └──────────── rejoining ◀─────────────────────────────────┘
//                           ▲
//           evicted ────────┘
//
//  * attached  — the registry header's daemon_heartbeat is advancing.
//  * suspect   — the heartbeat has not moved for a bounded window.
//  * degraded  — the daemon is dead (pid gone) or wedged past a longer
//    window. Survivors keep their mappings of the now-orphaned registry
//    segment and use their own slots as a proposal bus: each publishes one
//    conservative proposal (fair share clamped to its last daemon-granted
//    allocation), then every survivor independently runs the deterministic
//    consensus::arbitrate() over the same snapshot — identical allocations
//    on every participant, no coordinator, progress never stalls.
//  * rejoining — the slot word moved on (the daemon evicted us), or a fresh
//    daemon incarnation (higher arbiter_generation under the well-known
//    registry name) was observed; the client lets go of its slot and
//    re-runs the join dance (with jittered backoff, so the herd spreads
//    out). An eviction drops the connection in the poll that sees it; the
//    blocking rejoin runs on the next poll.
//
// The windows are seconds of the caller's monotonic clock, passed to every
// poll(now); their values are in failover.cpp and docs/DAEMON.md.
//
// The app's loop (examples/daemon_app is the reference caller): poll() with
// the adapter's RuntimeAdapter::last_grant(), heartbeat(), pump its
// RuntimeAdapter on channel(), and while degraded enact degraded_threads()
// itself. A failback replaces the channel, so the app rebuilds its adapter
// whenever stats().rejoins moves or the client is no longer connected. The
// adapter is the channel's only command consumer and applies the
// generation fence (agent::command_is_stale): a pre-crash grant can never
// be enacted after failback, and degraded-mode allocations die with the
// generation they were computed under.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/consensus.hpp"
#include "agent/shm_channel.hpp"
#include "daemon/registry.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {

struct ClientConnectOptions {
  std::string registry_name = kDefaultRegistryName;
  /// Advertised arithmetic intensity (0 = unknown; the daemon's policy then
  /// waits for telemetry-derived AI).
  double advertised_ai = 0.0;
  /// Advertised NUMA-bad data home (agent::kMaxNodes = perfect/unknown).
  std::uint32_t data_home = agent::kMaxNodes;

  /// Bounded backoff with decorrelated jitter for every join: sleep
  /// initial_backoff_us, then after each failed attempt a uniform draw from
  /// [initial, 3 * previous_sleep] clamped at max_backoff_us; give up after
  /// max_attempts attempts. A restarted daemon then sees the survivors'
  /// re-join CAS attempts spread out instead of a thundering herd hitting
  /// the fresh registry in lockstep.
  std::uint32_t max_attempts = 12;
  std::int64_t initial_backoff_us = 2'000;
  std::int64_t max_backoff_us = 500'000;
  /// Jitter RNG seed; 0 derives one from pid + monotonic clock.
  std::uint64_t backoff_seed = 0;
  /// How long one attempt waits for the daemon to activate a claimed slot.
  double activation_timeout_s = 2.0;
};

enum class FailoverState : std::uint32_t {
  kAttached = 0,
  kSuspect = 1,
  kDegraded = 2,
  kRejoining = 3,
};

const char* to_string(FailoverState state);

struct FailoverStats {
  std::uint64_t degraded_entries = 0;  ///< transitions into degraded mode
  std::uint64_t rejoins = 0;           ///< successful failbacks
};

class FailoverClient {
 public:
  explicit FailoverClient(std::string app_name, ClientConnectOptions options = {});
  /// Leaves gracefully (kLeaving) when still connected.
  ~FailoverClient();

  FailoverClient(const FailoverClient&) = delete;
  FailoverClient& operator=(const FailoverClient&) = delete;

  /// Join the daemon: registry open + slot claim + activation wait +
  /// channel attach, with bounded jittered backoff across attempts.
  bool connect(std::string* error = nullptr);
  /// Graceful goodbye: publish kLeaving and drop the channel.
  void disconnect();

  /// One pump of the state machine: ownership and liveness check,
  /// degraded-mode proposal exchange + arbitration, failback probing. Call
  /// from the app's progress loop (single-threaded; pair with heartbeat()).
  /// `now` is the caller's monotonic clock in seconds, like Daemon::tick.
  /// `last_grant` is the per-node allocation the daemon last granted
  /// (RuntimeAdapter::last_grant(); empty = unconstrained): entering
  /// degraded mode clamps this client's proposal to it.
  FailoverState poll(double now, const std::vector<std::uint32_t>& last_grant = {});

  /// Bump the registry heartbeat (call from the app's progress loop).
  void heartbeat();

  FailoverState state() const { return state_; }
  /// True from a successful join until disconnect() or a poll() that sees
  /// the slot gone. Safe to read from any thread while connect() runs.
  bool connected() const { return connected_.load(std::memory_order_acquire); }
  /// Newest daemon incarnation observed in the registry header.
  std::uint64_t known_generation() const { return known_generation_; }
  const FailoverStats& stats() const { return stats_; }

  /// The app side of the pair's channel (attach RuntimeAdapter here). Null
  /// while not connected.
  agent::ShmChannel* channel() { return channel_.get(); }
  std::uint32_t slot_index() const { return slot_index_; }
  /// The mapped registry segment (null while not connected). In degraded
  /// mode this is the *orphaned* segment every survivor still maps — the
  /// proposal bus for consensus arbitration.
  const Registry* registry() const { return registry_.get(); }

  /// The arbitrated machine's node layout, as published in the registry —
  /// build the local runtime over this shape so the daemon's per-node
  /// thread commands line up with the runtime's pools. Speeds are
  /// placeholders (the client side never evaluates the model). Requires a
  /// live connection.
  topo::Machine arbitration_machine() const;

  /// The latest degraded-mode consensus over the surviving participants;
  /// nullopt outside degraded mode (failback clears it — those grants are
  /// fenced by the dead generation) or before any survivor has published.
  const std::optional<agent::SlotAllocation>& degraded_allocation() const {
    return degraded_allocation_;
  }
  /// This client's per-node share of the degraded consensus (empty if none).
  std::vector<std::uint32_t> degraded_threads() const;

 private:
  bool join(std::string* error);
  bool try_join_once(std::string* error);
  void leave();
  void drop_connection();
  void enter_degraded(double now, const std::vector<std::uint32_t>& last_grant);
  void exit_degraded_resumed();
  void publish_proposal(const std::vector<std::uint32_t>& last_grant);
  void gather_and_arbitrate();
  bool try_failback();
  void mirror_state();
  void refresh_from_registry();

  std::string app_name_;
  ClientConnectOptions options_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<agent::ShmChannel> channel_;
  std::uint32_t slot_index_ = kMaxClients;
  /// The slot's exact {kActive, nonce} word for our incarnation. Ownership
  /// test is a single word compare — no torn pid/generation reads.
  std::uint64_t active_word_ = 0;
  std::atomic<bool> connected_{false};

  topo::Machine machine_;
  FailoverState state_ = FailoverState::kAttached;
  /// Newest incarnation observed in the registry header.
  std::uint64_t known_generation_ = 0;
  /// The incarnation we outlived — the one this degraded episode's
  /// proposals are tagged with.
  std::uint64_t dead_generation_ = 0;
  std::uint64_t last_heartbeat_seen_ = 0;
  /// When poll() last saw daemon_heartbeat move; unset until the first
  /// poll after a join or a resumed heartbeat.
  std::optional<double> heartbeat_moved_at_;
  double last_probe_at_ = 0.0;
  std::optional<agent::SlotAllocation> degraded_allocation_;
  FailoverStats stats_;
};

}  // namespace numashare::nsd
