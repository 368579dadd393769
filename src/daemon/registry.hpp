// The daemon's well-known shared-memory registry segment.
//
// The library Agent only knows static add_app(); a production host needs a
// rendezvous point where applications come and go while the daemon runs.
// The registry is that point: one shm segment at a well-known name holding
// a fixed array of client slots. A client claims a free slot (CAS), writes
// its identity (name, PID, advertised arithmetic intensity) and publishes
// kJoining; the daemon notices on its next tick, creates a dedicated
// ShmChannel for the pair, writes the channel name back into the slot and
// publishes kActive. From then on the client's only registry duty is to
// bump its heartbeat counter; losing the heartbeat (or the PID) gets the
// slot evicted and recycled.
//
// Everything in the segment is address-free — plain PODs and lock-free
// atomics — exactly like ShmChannel's rings, so the same layout works
// across unrelated processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "agent/protocol.hpp"

namespace numashare::nsd {

/// Registry capacity (v7): 1024 slots behind a shard structure. Shards are
/// purely an indexing scheme over the flat slot array — slot i lives in
/// shard i / kSlotsPerShard — sized so one shard's attention bitmap is
/// exactly one 64-bit word (see RegistryHeader::attention).
inline constexpr std::uint32_t kRegistryShards = 16;
inline constexpr std::uint32_t kSlotsPerShard = 64;
inline constexpr std::uint32_t kMaxClients = kRegistryShards * kSlotsPerShard;
inline constexpr std::uint32_t kClientNameChars = 48;
inline constexpr std::uint32_t kShmNameChars = 64;
inline constexpr std::uint32_t kMaxForeign = 16;
inline constexpr std::uint32_t kForeignNameChars = 32;
inline constexpr const char* kDefaultRegistryName = "/numashare-registry";

/// Slot lifecycle. Transitions:
///   kFree -> kClaiming  (client CAS; slot reserved, fields not yet valid)
///   kClaiming -> kJoining (client, release-published after identity fields)
///   kClaiming -> kFree  (daemon, claim timeout: claimant died or stalled)
///   kJoining -> kActive (daemon, after creating the pair's channel)
///   kJoining -> kFree   (client, activation timeout / daemon, dead PID)
///   kActive -> kLeaving (client, graceful goodbye)
///   kActive -> kFree    (daemon, eviction: heartbeat loss or dead PID)
///   kLeaving -> kFree   (daemon, after deregistering the app)
/// The daemon never reads identity fields before observing kJoining, which
/// is store-released only after they are complete.
enum class SlotState : std::uint32_t {
  kFree = 0,
  kJoining = 1,
  kActive = 2,
  kLeaving = 3,
  kClaiming = 4,
};
static_assert(std::is_trivially_copyable_v<SlotState>);

/// Compliance health of an active client, daemon-maintained (the watchdog in
/// Daemon::tick). Mirrored into the slot for status tools. A client that is
/// heartbeating but stays behind the commanded epoch past the enactment
/// deadline becomes a laggard (its unenacted cores are administratively
/// reclaimed); one that stays behind through the grace window is quarantined
/// at a floor allocation with exponential-backoff readmission probes; repeat
/// offenders are evicted ("compliance-evict"). Eviction is terminal, so it
/// needs no state here.
enum class ClientHealth : std::uint32_t {
  kHealthy = 0,
  kLaggard = 1,
  kQuarantined = 2,
};

inline const char* to_string(ClientHealth health) {
  switch (health) {
    case ClientHealth::kHealthy: return "healthy";
    case ClientHealth::kLaggard: return "laggard";
    case ClientHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

/// The state machine lives in ONE atomic word per slot: the state in the
/// low 8 bits and an ownership nonce above it. Every transition is a CAS on
/// the full word that bumps the nonce, so each incarnation of a slot is
/// unique and a stale party can never corrupt the machine: a client paused
/// mid-claim whose slot the daemon reclaimed (and someone else re-claimed)
/// fails its publish CAS instead of stomping the new owner; a daemon
/// activating a slot whose claimant just abandoned it fails its activation
/// CAS and rolls the admit back. Nonce wrap needs 2^56 transitions — never.
constexpr std::uint64_t pack_state(SlotState state, std::uint64_t nonce) {
  return (nonce << 8) | static_cast<std::uint64_t>(state);
}
constexpr SlotState state_of(std::uint64_t word) {
  return static_cast<SlotState>(word & 0xffu);
}
constexpr std::uint64_t nonce_of(std::uint64_t word) { return word >> 8; }
/// The word a successful transition out of `word` into `to` produces.
constexpr std::uint64_t next_word(std::uint64_t word, SlotState to) {
  return pack_state(to, nonce_of(word) + 1);
}

struct ClientSlot {
  /// Packed {nonce, SlotState}; see pack_state(). All transitions CAS this.
  std::atomic<std::uint64_t> state_word;

  // Client-written between kClaiming and kJoining. Scalars are atomics
  // (relaxed; the state_word CAS orders them) so a claimant racing a
  // reclaimed slot's new owner tears at most the name, never a scalar.
  std::atomic<std::uint32_t> pid;
  char name[kClientNameChars];
  /// Self-advertised arithmetic intensity (FLOPs/byte), 0 = unknown. Seeds
  /// the model-guided policy until live telemetry takes over.
  std::atomic<double> advertised_ai;
  /// Advertised NUMA-bad data home; agent::kMaxNodes = perfect/unknown.
  std::atomic<std::uint32_t> data_home;

  // Daemon-written before publishing kActive.
  std::atomic<std::uint64_t> generation;
  char channel_name[kShmNameChars];

  // Client-incremented while kActive; the daemon watches for *change*, so
  // no cross-process clock comparison is ever needed.
  std::atomic<std::uint64_t> heartbeat;

  // Compliance mirrors, daemon-written each tick while kActive so status
  // tools see the watchdog's view without touching the channel segments.
  std::atomic<std::uint32_t> health;            ///< ClientHealth
  std::atomic<std::uint64_t> commanded_epoch;   ///< newest epoch commanded
  std::atomic<std::uint64_t> enacted_epoch;     ///< newest epoch acked
  std::atomic<std::uint64_t> commands_dropped;  ///< channel drop counters
  std::atomic<std::uint64_t> telemetry_dropped;
  /// Scheduler-latency watchdog mirror (v5): commanded-online workers the
  /// client's OS is not scheduling (Telemetry::stalled_workers). Nonzero
  /// while the client is behind = "starved, not defiant".
  std::atomic<std::uint32_t> stalled_workers;

  // --- Degraded-mode proposal exchange (v6, docs/DAEMON.md "Failover").
  // When the daemon dies, survivors keep their mappings of this (now
  // orphaned) segment and use their own slots as the proposal bus for the
  // decentralized consensus arbitration. The proposal is published once per
  // degraded episode and then left stable, so every survivor eventually
  // reads the identical snapshot regardless of when it looks.
  /// Bumped (release) after proposal_desired is complete; 0 = no proposal.
  std::atomic<std::uint64_t> proposal_seq;
  /// Threads this survivor proposes for itself on each node, conservatively
  /// clamped so it never exceeds its last daemon-granted allocation.
  std::atomic<std::uint32_t> proposal_desired[agent::kMaxNodes];
  /// The arbiter generation (header word) the proposer last observed alive.
  /// Survivors only arbitrate proposals from the same dead incarnation, so
  /// a stale proposal from an earlier episode can never leak in.
  std::atomic<std::uint64_t> proposal_generation;
  /// Failover state mirror for status tooling: 0 attached, 1 suspect,
  /// 2 degraded, 3 rejoining (nsd::FailoverState).
  std::atomic<std::uint32_t> failover_state;

  SlotState state(std::memory_order order = std::memory_order_acquire) const {
    return state_of(state_word.load(order));
  }

  /// CAS from `expected` to state `to` with the nonce bumped. On success
  /// `expected` holds the slot's new word; on failure, the observed word.
  bool try_transition(std::uint64_t& expected, SlotState to) {
    const std::uint64_t target = next_word(expected, to);
    if (state_word.compare_exchange_strong(expected, target, std::memory_order_acq_rel)) {
      expected = target;
      return true;
    }
    return false;
  }
};

/// Foreign-workload mirror, daemon-written after each ForeignMonitor tick so
/// `daemon-status` shows the non-participants the model is pricing without
/// any extra IPC. Shares are scaled to millicores (×1000) to stay atomic
/// integers. pid == 0 marks an unused row. The name is plain chars like
/// ClientSlot::name — a reader racing a rewrite can tear it; status tooling
/// tolerates that (one garbled render, next read is fine).
struct ForeignSlot {
  std::atomic<std::int32_t> pid;
  char name[kForeignNameChars];
  std::atomic<std::uint32_t> fence;        ///< foreign::FenceState
  std::atomic<std::uint32_t> fence_node;   ///< agent::kMaxNodes = none
  std::atomic<std::uint64_t> busy_millicores;
  std::atomic<std::uint64_t> node_millicores[agent::kMaxNodes];
};

struct RegistryHeader {
  std::atomic<std::uint64_t> magic;
  std::uint32_t version;
  std::atomic<std::uint32_t> daemon_pid;
  /// Mirrors the agent's membership generation (bumps on join/leave/evict).
  std::atomic<std::uint64_t> generation;
  /// Daemon heartbeat (v6): stamped monotonically every service tick, the
  /// one daemon-liveness word (v8). Clients watch it *change* — never
  /// comparing clocks across processes — and declare the daemon dead after a
  /// bounded miss window instead of waiting for channel errors (see
  /// nsd::FailoverClient); a status reader that sees it stall with a dead
  /// daemon_pid knows the segment is stale.
  std::atomic<std::uint64_t> daemon_heartbeat;
  /// Daemon incarnation (v6): 1 for a fresh daemon, recovered-from-journal
  /// + 1 on every restart. Strictly monotone across incarnations of one
  /// registry name. Every outgoing Command is stamped with it, which is the
  /// fence that keeps pre-crash grants from ever being mistaken for fresh
  /// ones after failback.
  std::atomic<std::uint64_t> arbiter_generation;
  /// The arbitrated machine's shape, daemon-written at init. Clients build
  /// their runtime over the same shape so per-node thread commands line up
  /// (atomic: a client may open the registry before the daemon fills this).
  std::atomic<std::uint32_t> node_count;
  std::atomic<std::uint32_t> node_cores[agent::kMaxNodes];
  /// Per-shard attention bitmaps (v7): bit (i % kSlotsPerShard) of word
  /// (i / kSlotsPerShard) means "slot i needs daemon action". Clients and
  /// claimants raise a bit with one fetch_or (release) *after* publishing
  /// the state it advertises (kJoining, kLeaving, a proposal_seq bump); the
  /// daemon drains a whole shard with exchange(0) (acquire) and visits only
  /// the flagged slots, so tick cost tracks activity, not capacity. A bit
  /// can be lost when a raiser dies between the state CAS and the fetch_or;
  /// the periodic full sweep (DaemonOptions::full_sweep_every_ticks) is the
  /// safety net that still converges those slots.
  std::atomic<std::uint64_t> attention[kRegistryShards];
  ClientSlot slots[kMaxClients];
  /// Foreign shard (v4): rows [0, foreign_count) are meaningful.
  std::atomic<std::uint32_t> foreign_count;
  ForeignSlot foreign[kMaxForeign];
};

/// Flag slot `index` for daemon attention. Callers publish the state that
/// needs servicing first (release CAS / release store), then raise; the
/// daemon's acquire exchange on the word therefore observes the published
/// state whenever it observes the bit.
inline void raise_attention(RegistryHeader& header, std::uint32_t index) {
  header.attention[index / kSlotsPerShard].fetch_or(
      std::uint64_t{1} << (index % kSlotsPerShard), std::memory_order_release);
}

/// RAII mapping of the registry segment. The daemon create()s (exclusively)
/// and unlinks on destruction; clients and status tools open() an existing
/// one. All slot-protocol helpers live on the mapped header directly.
class Registry {
 public:
  /// A successfully claimed-and-published slot. `joining_word` is the
  /// {kJoining, nonce} word this claimant published; the daemon activates
  /// it by CASing exactly that word to its kActive successor, so the
  /// claimant can wait for next_word(joining_word, kActive) and *know* the
  /// activation is its own.
  struct Claim {
    std::uint32_t index = 0;
    std::uint64_t joining_word = 0;
  };

  static std::unique_ptr<Registry> create(const std::string& name, std::string* error = nullptr);
  static std::unique_ptr<Registry> open(const std::string& name, std::string* error = nullptr);

  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const std::string& name() const { return name_; }
  bool is_creator() const { return creator_; }

  RegistryHeader& header() { return *header_; }
  const RegistryHeader& header() const { return *header_; }
  ClientSlot& slot(std::uint32_t index) { return header_->slots[index]; }
  const ClientSlot& slot(std::uint32_t index) const { return header_->slots[index]; }

  /// Client side: claim a free slot, fill identity, publish kJoining.
  /// Returns nullopt when the registry is full (or every claimable slot was
  /// reclaimed under us, which only a fault plan can arrange).
  std::optional<Claim> claim_slot(const std::string& client_name, double advertised_ai,
                                  std::uint32_t data_home);

  /// True when the PID recorded as the daemon still exists.
  bool daemon_alive() const;

 private:
  Registry(std::string name, RegistryHeader* header, bool creator);

  std::string name_;
  RegistryHeader* header_ = nullptr;
  bool creator_ = false;
};

}  // namespace numashare::nsd
