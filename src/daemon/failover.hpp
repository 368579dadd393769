// Daemon-loss survival: the client-side failover tier.
//
// A DaemonClient answers "am I still attached?"; a FailoverClient answers
// "what do I do when the arbiter is gone?". It wraps a DaemonClient and
// runs a four-state machine the app drives from its pump loop:
//
//       attached ──misses──▶ suspect ──pid dead / more misses──▶ degraded
//          ▲                    │ heartbeat resumes                  │
//          └────────────────────┘                                    │
//          ▲                                new incarnation appears  │
//          └──────────── rejoining ◀─────────────────────────────────┘
//
//  * attached  — the registry header's daemon_heartbeat is advancing.
//  * suspect   — the heartbeat stalled for a bounded miss window.
//  * degraded  — the daemon is dead (pid gone) or wedged past the window.
//    Survivors keep their mappings of the now-orphaned registry segment and
//    use their own slots as a proposal bus: each publishes one conservative
//    proposal (fair share clamped to its last daemon-granted allocation),
//    then every survivor independently runs the deterministic
//    consensus::arbitrate() over the same snapshot — identical allocations
//    on every participant, no coordinator, progress never stalls.
//  * rejoining — a fresh daemon incarnation (higher arbiter_generation
//    under the well-known registry name) was observed; the survivor
//    abandons the orphan segment and re-runs the join dance (with
//    decorrelated-jitter backoff, so the herd spreads out).
//
// The app's loop (examples/daemon_app is the reference caller): poll() with
// the adapter's RuntimeAdapter::last_grant(), heartbeat(), pump its
// RuntimeAdapter on client().channel(), and while degraded enact
// degraded_threads() itself. A failback replaces the channel, so the app
// rebuilds its adapter whenever stats().rejoins moves or the client is no
// longer connected. The adapter is the channel's only command consumer and
// applies the generation fence (agent::command_is_stale): a pre-crash grant
// can never be enacted after failback, and degraded-mode allocations die
// with the generation they were computed under.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agent/consensus.hpp"
#include "daemon/client.hpp"
#include "topology/machine.hpp"

namespace numashare::nsd {

enum class FailoverState : std::uint32_t {
  kAttached = 0,
  kSuspect = 1,
  kDegraded = 2,
  kRejoining = 3,
};

const char* to_string(FailoverState state);

struct FailoverOptions {
  /// poll() calls with an unchanged daemon_heartbeat before kSuspect.
  std::uint32_t suspect_after_misses = 5;
  /// Misses with the daemon pid still *alive* before degrading anyway (a
  /// wedged daemon starves clients exactly like a dead one). A dead pid
  /// short-circuits to degraded as soon as the suspect window expires.
  std::uint32_t degraded_after_misses = 50;
  /// While degraded, probe the well-known registry name for a fresh
  /// incarnation every N polls (shm_open is cheap but not free).
  std::uint32_t rejoin_probe_every_polls = 4;
};

struct FailoverStats {
  std::uint64_t degraded_entries = 0;  ///< transitions into degraded mode
  std::uint64_t rejoins = 0;           ///< successful failbacks
};

class FailoverClient {
 public:
  explicit FailoverClient(std::string app_name, ClientConnectOptions connect_options = {},
                          FailoverOptions options = {});

  /// Join the daemon (DaemonClient::connect with slot-holding forced on).
  bool connect(std::string* error = nullptr);
  void disconnect();

  /// One pump of the state machine: liveness check, degraded-mode proposal
  /// exchange + arbitration, failback probing. Call from the app's progress
  /// loop (single-threaded; pair with heartbeat()). `last_grant` is the
  /// per-node allocation the daemon last granted (RuntimeAdapter::
  /// last_grant(); empty = unconstrained): entering degraded mode clamps
  /// this client's proposal to it.
  FailoverState poll(const std::vector<std::uint32_t>& last_grant = {});

  void heartbeat() { client_.heartbeat(); }

  FailoverState state() const { return state_; }
  bool connected() const { return client_.connected(); }
  /// Newest daemon incarnation observed in the registry header.
  std::uint64_t known_generation() const { return known_generation_; }
  const FailoverStats& stats() const { return stats_; }

  /// The latest degraded-mode consensus over the surviving participants;
  /// nullopt outside degraded mode (failback clears it — those grants are
  /// fenced by the dead generation) or before any survivor has published.
  const std::optional<agent::SlotAllocation>& degraded_allocation() const {
    return degraded_allocation_;
  }
  /// This client's per-node share of the degraded consensus (empty if none).
  std::vector<std::uint32_t> degraded_threads() const;

  /// The wrapped connector (channel access, slot index, options).
  DaemonClient& client() { return client_; }
  const DaemonClient& client() const { return client_; }

 private:
  void enter_degraded(const std::vector<std::uint32_t>& last_grant);
  void exit_degraded_resumed();
  void publish_proposal(const std::vector<std::uint32_t>& last_grant);
  void gather_and_arbitrate();
  bool try_failback();
  void mirror_state();
  void refresh_from_registry();

  std::string app_name_;
  FailoverOptions options_;
  DaemonClient client_;
  topo::Machine machine_;
  FailoverState state_ = FailoverState::kAttached;
  /// Newest incarnation observed in the registry header.
  std::uint64_t known_generation_ = 0;
  /// The incarnation we outlived — the one this degraded episode's
  /// proposals are tagged with.
  std::uint64_t dead_generation_ = 0;
  std::uint64_t last_heartbeat_seen_ = 0;
  std::uint32_t misses_ = 0;
  std::uint32_t degraded_polls_ = 0;
  std::optional<agent::SlotAllocation> degraded_allocation_;
  FailoverStats stats_;
};

}  // namespace numashare::nsd
