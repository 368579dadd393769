// ns_daemon: the standalone arbitration service (paper Figure 1, deployed).
//
// The library Agent arbitrates a fixed set of apps wired up in one process.
// The Daemon turns that into a service: it owns the well-known registry
// segment where applications come and go at will, mints a dedicated
// ShmChannel per client, and drives the wrapped Agent so policies keep
// re-partitioning as membership changes.
//
// Robustness is the design center:
//  * per-client heartbeats — the daemon watches the slot counter *change*,
//    never comparing clocks across processes;
//  * crash detection — heartbeat silence plus kill(pid, 0);
//  * eviction — the dead client's app is deregistered, its channel
//    unlinked, its cores redistributed by the policy on the next tick;
//  * crash recovery — on startup the daemon removes the stale registry and
//    channel segments a previous incarnation left under its name (only
//    after checking no live daemon still owns the registry);
//  * observability — every membership event and reallocation goes to the
//    JSONL journal (journal.hpp), and `numashare_cli daemon-status` reads
//    live state straight out of the registry segment.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agent/agent.hpp"
#include "agent/shm_channel.hpp"
#include "daemon/journal.hpp"
#include "daemon/registry.hpp"
#include "foreign/monitor.hpp"

namespace numashare::nsd {

struct DaemonOptions {
  std::string registry_name = kDefaultRegistryName;
  /// Per-client channel segments are named <registry_name>-chan-<slot>-<gen>.
  /// Startup cleanup unlinks <registry_name> and <registry_name>-chan-*.
  std::string journal_path;  ///< empty = journaling disabled
  /// Evict a client whose heartbeat counter has not changed for this long.
  /// A slot stuck in kClaiming this long is reclaimed too: its claimant died
  /// (or stalled) between reserving the slot and publishing its identity.
  double heartbeat_timeout_s = 2.0;
  /// Background loop tick period.
  std::int64_t period_us = 10'000;
  /// Journal a full state snapshot every N ticks (0 = never).
  std::uint64_t snapshot_every_ticks = 100;
  /// Scan every slot (not just attention-flagged ones) every N ticks — the
  /// safety net that converges slots whose attention bit was lost (raiser
  /// killed between its state CAS and the fetch_or). 1 = full scan every
  /// tick (the pre-v7 behaviour, and the bench's baseline); 0 = never
  /// (bitmap-only, tests). See docs/DAEMON.md "Scaling the tick path".
  std::uint64_t full_sweep_every_ticks = 16;

  // --- Compliance watchdog (healthy -> laggard -> quarantined -> evicted).
  /// A client behind the commanded epoch for this long becomes a laggard:
  /// its unenacted cores are administratively reclaimed (thread cap at what
  /// it actually enacted) and redistributed by the policy. The rest of the
  /// ladder scales with it (daemon.cpp): a laggard still behind one more
  /// deadline is quarantined, and readmission probes back off from half a
  /// deadline up to eight.
  double enactment_deadline_s = 1.0;

  // --- Checkpointed journal.
  /// Write a full registry+health checkpoint record every N ticks
  /// (0 = never). Recovery loads the newest checkpoint and replays only the
  /// tail after it.
  std::uint64_t checkpoint_every_ticks = 1000;
  /// Rotate (compact) the journal once it exceeds this many lines
  /// (0 = never): the old file moves to <path>.1 and the new file starts
  /// with a fresh checkpoint.
  std::uint64_t compact_after_lines = 4096;
  /// Journal durability (docs/DAEMON.md). The default fsyncs checkpoints
  /// and rotations; every-write fsyncs each record; none only flushes.
  FsyncPolicy fsync_policy = FsyncPolicy::kCheckpoint;

  // --- Foreign-workload arbitration (src/foreign/, docs/FOREIGN.md).
  /// Run the ForeignMonitor: detect non-participant processes, feed their
  /// load to the policy, journal foreign-seen/gone/fence, mirror the
  /// tracked set into the registry's foreign shard.
  bool foreign_enabled = false;
  /// Monitor cadence: one scan every N daemon ticks (procfs reads are not
  /// free; foreign load moves on human timescales).
  std::uint64_t foreign_scan_every_ticks = 10;
  foreign::MonitorOptions foreign;
};

struct DaemonStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t reallocations = 0;  ///< ticks on which commands were issued
  /// Slots reclaimed from a claimant that died/stalled mid-claim.
  std::uint64_t claims_reclaimed = 0;
  /// Admits rolled back because the claimant abandoned during activation.
  std::uint64_t joins_abandoned = 0;
  std::size_t stale_segments_cleaned = 0;
  // Tick-path scaling counters (registry v7).
  std::uint64_t attention_visits = 0;  ///< slots serviced from the bitmaps
  std::uint64_t full_sweeps = 0;       ///< safety-net full scans run
  // Compliance watchdog counters.
  std::uint64_t laggards = 0;             ///< healthy -> laggard transitions
  std::uint64_t quarantines = 0;          ///< laggard -> quarantined transitions
  std::uint64_t readmission_probes = 0;   ///< probes started
  std::uint64_t readmissions = 0;         ///< returns to healthy
  std::uint64_t compliance_evictions = 0; ///< evicted for repeat offenses
  // Checkpointed journal counters.
  std::uint64_t checkpoints = 0;
  std::uint64_t compactions = 0;
  /// Startup recovery: entries replayed after the recovered checkpoint
  /// (0 when the journal was empty/absent).
  std::uint64_t recovered_tail_entries = 0;
  bool recovered_from_checkpoint = false;
  // Foreign-workload arbitration counters.
  std::uint64_t foreign_scans = 0;     ///< monitor ticks run
  std::uint64_t foreign_seen = 0;      ///< processes admitted
  std::uint64_t foreign_gone = 0;      ///< processes aged out
  std::uint64_t foreign_fences = 0;    ///< fences decided
  std::uint64_t foreign_releases = 0;  ///< fences released
};

/// What a client advertised when it claimed its slot.
struct Advertisement {
  double ai = 0.0;                            ///< 0 = none
  std::uint32_t data_home = agent::kMaxNodes;  ///< past the last node = NUMA-perfect
};

class Daemon {
 public:
  Daemon(topo::Machine machine, agent::PolicyPtr policy, DaemonOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Clean stale segments from a previous incarnation, create the registry,
  /// open the journal. Fails (false + error) when a live daemon already
  /// owns the registry name.
  bool init(std::string* error = nullptr);

  /// One service cycle at the given monotonic timestamp: admit joiners,
  /// process leavers, evict the dead, then run one agent decision step.
  /// Returns the number of commands the agent sent. Manual ticking (tests)
  /// and start()'s background loop are mutually exclusive.
  std::uint32_t tick(double now);

  /// Background service loop at options().period_us.
  void start();
  void stop();

  /// Orderly shutdown: stop the loop, retire every client, flush a final
  /// checkpoint and the `daemon-stop` record, fsync. Idempotent; the
  /// destructor calls it, and ns_daemon_main calls it on SIGTERM/SIGINT.
  void shutdown();

  agent::Agent& arbitration_agent() { return *agent_; }
  const DaemonOptions& options() const { return options_; }
  const DaemonStats& stats() const { return stats_; }
  /// This incarnation's generation: 1 fresh, the predecessor's + 1 after a restart.
  /// Published in the registry header and stamped into every command.
  std::uint64_t arbiter_generation() const { return arbiter_generation_; }
  std::size_t client_count() const;
  bool initialized() const { return registry_ != nullptr; }

  /// Compliance watchdog view of one client, for tests and tooling: the
  /// watchdog's own state plus the epochs and stall count it last mirrored
  /// into the client's registry slot.
  struct ComplianceView {
    ClientHealth health = ClientHealth::kHealthy;
    std::uint64_t commanded_epoch = 0;
    std::uint64_t enacted_epoch = 0;
    std::uint32_t offenses = 0;
    bool probing = false;
    double next_probe_s = -1.0;
    double backoff_s = 0.0;
    /// Watchdog-reported unscheduled workers (holds escalation when > 0).
    std::uint32_t stalled_workers = 0;
  };
  std::optional<ComplianceView> compliance_view(const std::string& app_name) const;

  /// The foreign monitor (nullptr unless options.foreign_enabled).
  foreign::ForeignMonitor* foreign_monitor() { return foreign_.get(); }

 private:
  struct Client {
    bool used = false;
    std::string app_name;   ///< unique name registered with the agent
    std::uint32_t pid = 0;
    double advertised_ai = 0.0;
    std::unique_ptr<agent::ShmChannel> channel;
    std::uint64_t last_heartbeat = 0;
    double last_heartbeat_change_s = 0.0;
    // Compliance watchdog state.
    ClientHealth health = ClientHealth::kHealthy;
    /// When the client was first observed behind the commanded epoch
    /// (< 0 = caught up). The enactment deadline counts from here.
    double behind_since_s = -1.0;
    std::uint32_t offenses = 0;
    double backoff_s = 0.0;        ///< current readmission backoff
    double next_probe_s = -1.0;    ///< when the next probe may start
    double probe_deadline_s = -1.0;
    bool probing = false;
    /// Epoch for which an "enactment-stalled" journal entry was last
    /// written, so a long stall journals once per commanded epoch.
    std::uint64_t stall_journaled_epoch = 0;
    /// Cached index of this client's agent view, valid while
    /// agent_index_generation matches Agent::generation(); refreshed lazily
    /// so the per-tick watchdog pass skips the name hash.
    std::size_t agent_index = 0;
    std::uint64_t agent_index_generation = ~std::uint64_t{0};
  };

  /// Service one slot's state machine (admit/retire/recycle/claim-timeout).
  /// Liveness and compliance for admitted clients run separately over
  /// used_bits_ — heartbeat silence is the *absence* of an event, which no
  /// client-raised attention bit can signal.
  void process_slot(std::uint32_t index, double now);
  void admit(std::uint32_t index, std::uint64_t joining_word, double now);
  void retire(std::uint32_t index, const char* reason, double now);
  void check_liveness(std::uint32_t index, double now);
  void check_compliance(std::uint32_t index, double now);
  void foreign_tick(double now);
  void journal_foreign_events(const std::vector<foreign::ForeignEvent>& events, double now);
  void mirror_foreign_shard();
  void journal_allocation(double now);
  void journal_snapshot(double now);
  void journal_checkpoint(double now);
  void maybe_checkpoint(double now);
  void recover_from_journal();

  topo::Machine machine_;
  DaemonOptions options_;
  std::unique_ptr<agent::Agent> agent_;
  std::unique_ptr<foreign::ForeignMonitor> foreign_;
  std::unique_ptr<Registry> registry_;
  JournalWriter journal_;
  // Per-slot bookkeeping, sized off the registry constant (kMaxClients
  // entries each) so a capacity bump can never silently truncate it.
  std::vector<Client> clients_;
  /// When each slot was first seen in kClaiming (< 0 = not claiming);
  /// drives the claim-timeout reclamation.
  std::vector<double> claim_first_seen_s_;
  /// Daemon-local occupancy bitmaps, one word per registry shard: bit set =
  /// clients_[i].used. Liveness, compliance and client_count() iterate set
  /// bits instead of scanning the full capacity.
  std::uint64_t used_bits_[kRegistryShards] = {};
  /// Slots observed in kClaiming whose timeout we are watching (their
  /// attention bit was consumed when first seen).
  std::uint64_t claiming_bits_[kRegistryShards] = {};
  /// Advertisements by app name, for AdvertisedAiPolicy's per-view lookup
  /// (a linear clients_ scan there is O(n^2) per decide).
  std::unordered_map<std::string, Advertisement> advertised_by_name_;
  /// Quiet-skip state for the watchdog pass: the pass is elided when the
  /// previous one left every client healthy and caught up AND none of its
  /// inputs (commands sent, telemetry ingested, membership) changed since.
  bool compliance_all_quiet_ = false;
  std::uint64_t compliance_pass_generation_ = ~std::uint64_t{0};
  std::uint64_t compliance_pass_telemetry_ = ~std::uint64_t{0};
  /// Timestamp of the last liveness pass, which runs at most once per
  /// heartbeat_timeout_s / 8 (kLivenessCheckFraction in daemon.cpp). Starts
  /// at -inf so the first tick always checks.
  double last_liveness_pass_s_ = -1e300;
  DaemonStats stats_;
  /// Monotonic join counter; makes channel names and app names unique
  /// across slot reuse.
  std::uint64_t join_seq_ = 0;
  /// Daemon incarnation; init() bumps it past a dead predecessor's
  /// registry header and recover_from_journal() past the journaled value,
  /// so it is strictly monotone across restarts, journal or not.
  std::uint64_t arbiter_generation_ = 1;
  /// shutdown() ran (destructor then skips the final flush).
  bool shut_down_ = false;

  std::atomic<bool> running_{false};
  std::thread loop_thread_;
};

/// Substitutes the registry-advertised arithmetic intensity and data home
/// into views whose telemetry has not (yet) carried an AI, then delegates.
/// This is what lets the model-guided policy act on a freshly joined client,
/// NUMA-bad where it advertised a home, before its RuntimeAdapter publishes
/// the first derived-AI sample.
class AdvertisedAiPolicy final : public agent::Policy {
 public:
  /// `advertised` returns the advertisement for an app name.
  using AiLookup = std::function<Advertisement(const std::string&)>;
  /// Cheap "could any lookup succeed?" predicate; when it returns false the
  /// per-view lookups are skipped wholesale (one call instead of N). Absent
  /// = always assume yes.
  using AnyAdvertised = std::function<bool()>;

  AdvertisedAiPolicy(agent::PolicyPtr inner, AiLookup advertised,
                     AnyAdvertised any_advertised = {})
      : inner_(std::move(inner)),
        advertised_(std::move(advertised)),
        any_advertised_(std::move(any_advertised)) {}

  const char* name() const override { return inner_->name(); }
  std::vector<agent::Directive> decide(const topo::Machine& machine,
                                       const std::vector<agent::AppView>& views) override;
  void on_membership_change() override { inner_->on_membership_change(); }
  void on_foreign_load(const model::ForeignLoad& load) override {
    inner_->on_foreign_load(load);
  }

  agent::Policy& inner() { return *inner_; }

 private:
  agent::PolicyPtr inner_;
  AiLookup advertised_;
  AnyAdvertised any_advertised_;
};

}  // namespace numashare::nsd
