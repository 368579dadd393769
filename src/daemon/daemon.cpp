#include "daemon/daemon.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "agent/policies.hpp"
#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/threading.hpp"
#include "inject/fault.hpp"

namespace numashare::nsd {

namespace {

/// How often (in ticks) the per-client channel drop counters are mirrored
/// into the registry slots for daemon-status.
constexpr std::uint64_t kDropMirrorEveryTicks = 16;

/// Liveness pass cadence as a fraction of DaemonOptions::heartbeat_timeout_s:
/// the pass runs when at least timeout * fraction seconds passed since the
/// last one. Detection latency is bounded by timeout * (1 + fraction).
constexpr double kLivenessCheckFraction = 0.125;

// Compliance ladder (docs/DAEMON.md "Compliance watchdog"). Its windows are
// multiples of DaemonOptions::enactment_deadline_s: a laggard still behind
// one more deadline is quarantined, and readmission probes back off from
// half a deadline, doubling per failed probe, up to eight deadlines.
constexpr double kQuarantineAfterDeadlines = 2.0;
constexpr double kReadmitBackoffDeadlines = 0.5;
constexpr double kReadmitBackoffMaxDeadlines = 8.0;
/// Total threads a quarantined client keeps (its floor allocation).
constexpr std::uint32_t kQuarantineFloorThreads = 1;
/// Evict ("compliance-evict") after this many offenses (quarantine entries
/// plus failed probes).
constexpr std::uint32_t kMaxComplianceOffenses = 4;

bool pid_is_dead(std::uint32_t pid) {
  if (pid == 0) return true;
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

/// Store `value` into a daemon-written slot mirror unless it already holds it.
template <typename T>
void store_if_changed(std::atomic<T>& mirror, T value) {
  if (mirror.load(std::memory_order_relaxed) != value) {
    mirror.store(value, std::memory_order_relaxed);
  }
}

std::string slot_client_name(const ClientSlot& slot) {
  return std::string(slot.name, strnlen(slot.name, sizeof(slot.name)));
}

}  // namespace

std::vector<agent::Directive> AdvertisedAiPolicy::decide(
    const topo::Machine& machine, const std::vector<agent::AppView>& views) {
  // Zero-copy fast path: only copy the view vector when some view actually
  // needs its AI substituted. At 1000+ clients the wholesale copy would
  // dominate an otherwise idle tick; when no client advertises at all, even
  // the per-view lookups are skipped.
  if (any_advertised_ && !any_advertised_()) return inner_->decide(machine, views);
  bool needs_patch = false;
  for (const auto& view : views) {
    if (view.has_telemetry && view.latest.ai_estimate > 0.0) continue;
    if (advertised_(view.name).ai > 0.0) {
      needs_patch = true;
      break;
    }
  }
  if (!needs_patch) return inner_->decide(machine, views);
  std::vector<agent::AppView> patched = views;
  for (auto& view : patched) {
    if (view.has_telemetry && view.latest.ai_estimate > 0.0) continue;
    const auto advertised = advertised_(view.name);
    if (advertised.ai <= 0.0) continue;
    view.latest.ai_estimate = advertised.ai;
    if (!view.has_telemetry) view.latest.data_home_node = advertised.data_home;
    view.has_telemetry = true;
  }
  return inner_->decide(machine, patched);
}

Daemon::Daemon(topo::Machine machine, agent::PolicyPtr policy, DaemonOptions options)
    : machine_(std::move(machine)),
      options_(std::move(options)),
      clients_(kMaxClients),
      claim_first_seen_s_(kMaxClients, -1.0) {
  NS_REQUIRE(policy != nullptr, "daemon needs a policy");
  auto lookup = [this](const std::string& app_name) -> Advertisement {
    const auto it = advertised_by_name_.find(app_name);
    return it == advertised_by_name_.end() ? Advertisement{} : it->second;
  };
  auto wrapped = std::make_unique<AdvertisedAiPolicy>(
      std::move(policy), std::move(lookup),
      [this] { return !advertised_by_name_.empty(); });
  // The daemon drives Agent::step from its own tick and never starts the
  // agent's loop, so the agent's options are never read.
  agent_ = std::make_unique<agent::Agent>(machine_, std::move(wrapped));
  if (options_.foreign_enabled) {
    foreign_ = std::make_unique<foreign::ForeignMonitor>(machine_, options_.foreign);
  }
}

Daemon::~Daemon() { shutdown(); }

void Daemon::shutdown() {
  stop();
  if (shut_down_) return;
  shut_down_ = true;
  if (registry_ == nullptr) return;
  const double now = monotonic_seconds();
  if (foreign_ != nullptr) {
    // Leave no foreign process pinned by a daemon that no longer arbitrates.
    journal_foreign_events(foreign_->release_all(), now);
  }
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    if (clients_[i].used) retire(i, "daemon-shutdown", now);
  }
  if (journal_.ok()) {
    // Final checkpoint first: a restart recovers the (now empty) registry
    // state from it without replaying history, then sees daemon-stop and
    // knows the shutdown was orderly.
    journal_checkpoint(now);
    journal_.record(now, "daemon-stop",
                    {{"ticks", jnum(stats_.ticks)},
                     {"joins", jnum(stats_.joins)},
                     {"evictions", jnum(stats_.evictions)},
                     {"checkpoints", jnum(stats_.checkpoints)}});
    journal_.sync(/*force=*/true);
  }
}

bool Daemon::init(std::string* error) {
  NS_REQUIRE(registry_ == nullptr, "daemon already initialized");
  // Chaos-harness knob: stretch the window between a daemon death and its
  // successor coming up (`daemon.restart.delay@ms=N` in the restarted
  // process), so degraded-mode behavior is observable for a bounded-but-
  // controllable interval.
  inject::fire_pause("daemon.restart.delay", "init");
  // A previous incarnation that crashed leaves its registry (and channel
  // segments) behind. Reclaim them — but never rip the registry out from
  // under a daemon that is still alive.
  if (auto existing = Registry::open(options_.registry_name)) {
    if (existing->daemon_alive()) {
      if (error) {
        *error = ns_format("registry '{}' is owned by live daemon pid {}",
                           options_.registry_name,
                           existing->header().daemon_pid.load(std::memory_order_relaxed));
      }
      return false;
    }
    // This incarnation succeeds the dead one even without a journal:
    // degraded survivors fail back only onto a strictly newer generation.
    arbiter_generation_ = std::max<std::uint64_t>(
        arbiter_generation_,
        existing->header().arbiter_generation.load(std::memory_order_acquire) + 1);
  }
  stats_.stale_segments_cleaned = agent::cleanup_stale_segments(options_.registry_name);
  if (stats_.stale_segments_cleaned > 0) {
    NS_LOG_INFO("daemon", "startup cleanup removed {} stale shm segment(s)",
                stats_.stale_segments_cleaned);
  }
  registry_ = Registry::create(options_.registry_name, error);
  if (registry_ == nullptr) return false;
  // Publish the arbitrated machine's shape so clients can build their
  // runtime over the same node layout as the per-node commands.
  auto& header = registry_->header();
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    header.node_cores[n].store(machine_.cores_in_node(n), std::memory_order_relaxed);
  }
  header.node_count.store(machine_.node_count(), std::memory_order_release);
  if (!options_.journal_path.empty() && !journal_.open(options_.journal_path)) {
    if (error) *error = ns_format("cannot open journal '{}'", options_.journal_path);
    registry_.reset();
    return false;
  }
  journal_.set_fsync_policy(options_.fsync_policy);
  // Recover from the previous incarnation's checkpoint + tail before this
  // incarnation writes anything (the append-mode open left the file intact).
  recover_from_journal();
  // Publish this incarnation: clients that survived the previous daemon in
  // degraded mode watch for a *higher* generation under this registry name
  // as their failback signal, and every command the agent sends from now on
  // carries it as the staleness fence.
  header.arbiter_generation.store(arbiter_generation_, std::memory_order_release);
  header.daemon_heartbeat.store(1, std::memory_order_release);
  agent_->set_arbiter_generation(arbiter_generation_);
  journal_.record(monotonic_seconds(), "daemon-start",
                  {{"registry", jstr(options_.registry_name)},
                   {"pid", jnum(static_cast<std::uint64_t>(::getpid()))},
                   {"machine", jstr(machine_.name())},
                   {"nodes", jnum(machine_.node_count())},
                   {"cores", jnum(machine_.core_count())},
                   {"policy", jstr(agent_->policy().name())},
                   {"arbiter_gen", jnum(arbiter_generation_)},
                   {"cleaned_segments", jnum(static_cast<std::uint64_t>(
                                            stats_.stale_segments_cleaned))}});
  return true;
}

void Daemon::admit(std::uint32_t index, std::uint64_t joining_word, double now) {
  auto& slot = registry_->slot(index);
  std::uint64_t word = joining_word;
  const auto pid = slot.pid.load(std::memory_order_relaxed);
  if (pid_is_dead(pid)) {
    // The client crashed between claiming and our tick; recycle silently
    // (CAS: the dying claimant's abandon path may race us).
    slot.try_transition(word, SlotState::kFree);
    return;
  }
  const std::uint64_t join_seq = ++join_seq_;
  const std::string channel_name =
      ns_format("{}-chan-{}-{}", options_.registry_name, index, join_seq);
  std::string error;
  auto channel = agent::ShmChannel::create(channel_name, &error);
  if (channel == nullptr) {
    NS_LOG_ERROR("daemon", "cannot create channel '{}': {}", channel_name, error);
    journal_.record(now, "join-failed",
                    {{"slot", jnum(index)}, {"error", jstr(error)}});
    slot.try_transition(word, SlotState::kFree);
    return;
  }
  const std::string base = slot_client_name(slot);
  const std::string app_name = ns_format("{}#{}.{}", base.empty() ? "app" : base, index, join_seq);
  const std::size_t agent_index = agent_->add_app(app_name, *channel);

  auto& client = clients_[index];
  client.agent_index = agent_index;
  client.agent_index_generation = agent_->generation();
  client.used = true;
  client.app_name = app_name;
  client.pid = pid;
  // Sanitize the hint: a torn/hostile advertisement must never poison the
  // policy (NaN propagates through the whole roofline solve).
  const double ai = slot.advertised_ai.load(std::memory_order_relaxed);
  client.advertised_ai = (ai >= 0.0 && ai <= 1e9) ? ai : 0.0;
  client.channel = std::move(channel);
  client.last_heartbeat = slot.heartbeat.load(std::memory_order_relaxed);
  client.last_heartbeat_change_s = now;

  slot.generation.store(agent_->generation(), std::memory_order_relaxed);
  std::memset(slot.channel_name, 0, sizeof(slot.channel_name));
  std::strncpy(slot.channel_name, channel_name.c_str(), sizeof(slot.channel_name) - 1);
  // Fresh compliance mirrors: the slot may be reused and still carry the
  // previous occupant's watchdog state.
  slot.health.store(static_cast<std::uint32_t>(ClientHealth::kHealthy),
                    std::memory_order_relaxed);
  slot.commanded_epoch.store(0, std::memory_order_relaxed);
  slot.enacted_epoch.store(0, std::memory_order_relaxed);
  slot.commands_dropped.store(0, std::memory_order_relaxed);
  slot.telemetry_dropped.store(0, std::memory_order_relaxed);
  slot.stalled_workers.store(0, std::memory_order_relaxed);

  // Write-ahead: journal the join, then activate. A crash between the two
  // leaves a journaled join with no active slot — recovery semantics the
  // replay invariant (and the daemon.die fault site) pin down.
  journal_.record(now, "join",
                  {{"client", jstr(app_name)},
                   {"pid", jnum(static_cast<std::uint64_t>(client.pid))},
                   {"slot", jnum(index)},
                   {"ai", jnum(client.advertised_ai)},
                   {"channel", jstr(channel_name)},
                   {"generation", jnum(agent_->generation())}});
  inject::fire_die("daemon.die", "post_journal_join", 48);
  inject::fire_pause("daemon.pause", "admit_pre_activate");

  // Activation is a CAS on the exact word the client published: if the
  // client abandoned the claim while we were admitting (activation
  // timeout), the CAS fails and the whole join rolls back — the old code's
  // blind store would have resurrected the abandoned slot and stomped any
  // newer claimant that had already re-claimed it.
  if (!slot.try_transition(word, SlotState::kActive)) {
    agent_->remove_app(app_name);
    client.channel.reset();
    client = Client{};
    ++stats_.joins_abandoned;
    NS_LOG_WARN("daemon", "join rolled back: '{}' abandoned slot {} during activation",
                app_name, index);
    journal_.record(now, "join-abandoned",
                    {{"client", jstr(app_name)},
                     {"slot", jnum(index)},
                     {"generation", jnum(agent_->generation())}});
    return;
  }
  registry_->header().generation.store(agent_->generation(), std::memory_order_relaxed);
  used_bits_[index / kSlotsPerShard] |= std::uint64_t{1} << (index % kSlotsPerShard);
  // Sparse map: only advertisements the policy could actually substitute,
  // so in the steady state it is empty and the wrapper skips every lookup.
  if (client.advertised_ai > 0.0) {
    advertised_by_name_[app_name] = {client.advertised_ai,
                                     slot.data_home.load(std::memory_order_relaxed)};
  }

  ++stats_.joins;
  NS_LOG_INFO("daemon", "join: '{}' pid {} slot {} (ai={})", app_name, client.pid, index,
              client.advertised_ai);
}

void Daemon::retire(std::uint32_t index, const char* reason, double now) {
  auto& client = clients_[index];
  agent_->remove_app(client.app_name);
  const bool eviction = std::strcmp(reason, "leave") != 0;
  if (eviction) ++stats_.evictions;
  else ++stats_.leaves;
  // Compliance evictions get their own event type so the journal makes the
  // watchdog's terminal verdict greppable without parsing reasons.
  const char* event = !eviction                                  ? "leave"
                      : std::strcmp(reason, "compliance-evict") == 0 ? "compliance-evict"
                                                                    : "evict";
  NS_LOG_INFO("daemon", "{}: '{}' pid {} slot {} ({})", eviction ? "evict" : "leave",
              client.app_name, client.pid, index, reason);
  journal_.record(now, event,
                  {{"client", jstr(client.app_name)},
                   {"pid", jnum(static_cast<std::uint64_t>(client.pid))},
                   {"slot", jnum(index)},
                   {"reason", jstr(reason)},
                   {"generation", jnum(agent_->generation())}});
  client.channel.reset();  // creator side: unlinks the segment
  advertised_by_name_.erase(client.app_name);
  client = Client{};
  used_bits_[index / kSlotsPerShard] &= ~(std::uint64_t{1} << (index % kSlotsPerShard));
  auto& slot = registry_->slot(index);
  registry_->header().generation.store(agent_->generation(), std::memory_order_relaxed);
  // CAS-loop to kFree: the nonce bump invalidates the departing client's
  // active word, so a late heartbeat/disconnect cannot resurrect the slot.
  std::uint64_t word = slot.state_word.load(std::memory_order_acquire);
  while (state_of(word) != SlotState::kFree && !slot.try_transition(word, SlotState::kFree)) {
  }
}

void Daemon::check_liveness(std::uint32_t index, double now) {
  auto& slot = registry_->slot(index);
  auto& client = clients_[index];
  const std::uint64_t beat = slot.heartbeat.load(std::memory_order_relaxed);
  if (beat != client.last_heartbeat) {
    client.last_heartbeat = beat;
    client.last_heartbeat_change_s = now;
    return;
  }
  if (pid_is_dead(client.pid)) {
    retire(index, "dead-pid", now);
    return;
  }
  if (now - client.last_heartbeat_change_s > options_.heartbeat_timeout_s) {
    retire(index, "heartbeat-timeout", now);
  }
}

void Daemon::process_slot(std::uint32_t index, double now) {
  auto& slot = registry_->slot(index);
  std::uint64_t word = slot.state_word.load(std::memory_order_acquire);
  const SlotState state = state_of(word);
  const std::uint64_t bit = std::uint64_t{1} << (index % kSlotsPerShard);
  if (state != SlotState::kClaiming) {
    claim_first_seen_s_[index] = -1.0;
    claiming_bits_[index / kSlotsPerShard] &= ~bit;
  }
  switch (state) {
    case SlotState::kJoining:
      admit(index, word, now);
      break;
    case SlotState::kLeaving:
      if (clients_[index].used) {
        retire(index, "leave", now);
      } else {
        slot.try_transition(word, SlotState::kFree);
      }
      break;
    case SlotState::kActive:
      if (!clients_[index].used) {
        // Active slot we know nothing about: impossible after a clean
        // startup (cleanup removed the old registry); recycle defensively.
        // Admitted clients are handled by the liveness pass over used_bits_.
        slot.try_transition(word, SlotState::kFree);
      }
      break;
    case SlotState::kClaiming:
      // A claimant that dies (or stalls) here leaks the slot forever: no
      // other claimant can take it and the daemon never sees kJoining.
      // Bound the window: reclaim after the heartbeat timeout, the same
      // silence that evicts an admitted client. The nonce bump makes a late
      // publish by a merely-stalled claimant fail its CAS.
      // claiming_bits_ keeps the slot on this tick-by-tick watch after its
      // attention bit (consumed on first sight) is gone.
      if (claim_first_seen_s_[index] < 0.0) {
        claim_first_seen_s_[index] = now;
        claiming_bits_[index / kSlotsPerShard] |= bit;
      } else if (now - claim_first_seen_s_[index] > options_.heartbeat_timeout_s) {
        if (slot.try_transition(word, SlotState::kFree)) {
          ++stats_.claims_reclaimed;
          NS_LOG_WARN("daemon", "reclaimed slot {} stuck in claiming past {}s", index,
                      options_.heartbeat_timeout_s);
          journal_.record(now, "claim-reclaimed", {{"slot", jnum(index)}});
        }
        claim_first_seen_s_[index] = -1.0;
        claiming_bits_[index / kSlotsPerShard] &= ~bit;
      }
      break;
    case SlotState::kFree:
      break;
  }
}

std::uint32_t Daemon::tick(double now) {
  NS_REQUIRE(registry_ != nullptr, "Daemon::init() must succeed before tick()");
  if (inject::fire("daemon.tick.skip")) return 0;
  // SIGKILL stand-in for the kill/restart chaos harness: `daemon.die@
  // site=tick,after=N` murders the daemon mid-service on the N+1-th tick.
  inject::fire_die("daemon.die", "tick", 52);

  // 1. Attention-driven servicing: one exchange drains a whole shard's
  // bitmap, then only flagged slots are visited — tick cost is proportional
  // to activity, not to the 1024-slot capacity.
  auto& header = registry_->header();
  for (std::uint32_t shard = 0; shard < kRegistryShards; ++shard) {
    // Cheap load first: an idle shard costs a read, not an atomic RMW. A
    // bit raised between the load and the next tick's load is simply seen
    // then — no different from one raised just after an unconditional
    // exchange.
    if (header.attention[shard].load(std::memory_order_relaxed) == 0) continue;
    std::uint64_t bits = header.attention[shard].exchange(0, std::memory_order_acquire);
    for (; bits != 0; bits &= bits - 1) {
      ++stats_.attention_visits;
      process_slot(shard * kSlotsPerShard +
                       static_cast<std::uint32_t>(std::countr_zero(bits)),
                   now);
    }
  }
  // 2. Claim-timeout watch: slots seen claiming keep getting re-checked
  // every tick (their attention bit was consumed when first seen).
  for (std::uint32_t shard = 0; shard < kRegistryShards; ++shard) {
    std::uint64_t bits = claiming_bits_[shard];
    for (; bits != 0; bits &= bits - 1) {
      process_slot(shard * kSlotsPerShard +
                       static_cast<std::uint32_t>(std::countr_zero(bits)),
                   now);
    }
  }
  // 3. Safety-net full sweep: converges slots whose attention bit was lost
  // (raiser killed between its state CAS and the fetch_or). Runs on the
  // first tick, so startup state is serviced immediately.
  if (options_.full_sweep_every_ticks > 0 &&
      stats_.ticks % options_.full_sweep_every_ticks == 0) {
    ++stats_.full_sweeps;
    for (std::uint32_t i = 0; i < kMaxClients; ++i) process_slot(i, now);
  }
  // 4. Liveness over admitted clients, O(active): heartbeat silence is the
  // *absence* of an event — no client-raised bit can signal it, so the
  // daemon polls its own occupancy bitmap instead of the registry. The pass
  // is time-gated: timeouts are seconds while ticks are sub-millisecond, so
  // polling every heartbeat line every tick costs a cache miss per client
  // for detection latency nobody asked for. Gated at timeout/8, a death is
  // still caught within 9/8 of the configured timeout.
  if (now - last_liveness_pass_s_ >=
      options_.heartbeat_timeout_s * kLivenessCheckFraction) {
    last_liveness_pass_s_ = now;
    for (std::uint32_t shard = 0; shard < kRegistryShards; ++shard) {
      std::uint64_t bits = used_bits_[shard];
      for (; bits != 0; bits &= bits - 1) {
        const std::uint32_t i =
            shard * kSlotsPerShard + static_cast<std::uint32_t>(std::countr_zero(bits));
        if (clients_[i].used) check_liveness(i, now);
      }
    }
  }

  // Foreign arbitration runs before the agent step so the policy prices the
  // freshest opaque-consumer load into this tick's decision.
  if (foreign_ != nullptr && options_.foreign_scan_every_ticks > 0 &&
      stats_.ticks % options_.foreign_scan_every_ticks == 0) {
    foreign_tick(now);
  }

  const std::uint32_t sent = agent_->step(now);
  // The compliance watchdog runs on the views the step just refreshed.
  // Liveness eviction (above) already removed the dead, so everything left
  // is heartbeating — the watchdog's subject is the live-but-noncompliant.
  //
  // Quiet-skip: when nothing the watchdog consumes has changed since the
  // previous pass (no commands sent, no telemetry ingested, same
  // membership) and that pass left every client healthy and caught up, no
  // state machine can transition — every armed deadline requires a client
  // behind or in a degraded health state. Skipping the pass keeps the idle
  // tick free of the per-client walk.
  const bool quiet = sent == 0 && compliance_all_quiet_ &&
                     agent_->generation() == compliance_pass_generation_ &&
                     agent_->telemetry_received() == compliance_pass_telemetry_;
  if (!quiet) {
    compliance_all_quiet_ = true;
    for (std::uint32_t shard = 0; shard < kRegistryShards; ++shard) {
      std::uint64_t bits = used_bits_[shard];
      for (; bits != 0; bits &= bits - 1) {
        const std::uint32_t i =
            shard * kSlotsPerShard + static_cast<std::uint32_t>(std::countr_zero(bits));
        if (clients_[i].used) check_compliance(i, now);
      }
    }
    compliance_pass_generation_ = agent_->generation();
    compliance_pass_telemetry_ = agent_->telemetry_received();
  }
  ++stats_.ticks;
  // The daemon's liveness word: clients look for *change* within a miss
  // window, never comparing cross-process clocks.
  registry_->header().daemon_heartbeat.fetch_add(1, std::memory_order_release);
  if (sent > 0) {
    ++stats_.reallocations;
    journal_allocation(now);
  }
  if (options_.snapshot_every_ticks > 0 &&
      stats_.ticks % options_.snapshot_every_ticks == 0) {
    journal_snapshot(now);
  }
  maybe_checkpoint(now);
  return sent;
}

void Daemon::check_compliance(std::uint32_t index, double now) {
  auto& client = clients_[index];
  auto& slot = registry_->slot(index);
  // The agent's view is the one record of the client's epochs and stall
  // report. Its index is cached until a join or leave bumps the agent
  // generation (a compliance-evict mid-pass does), so the steady-state tick
  // does one vector read per client instead of a mutex and a name hash.
  if (client.agent_index_generation != agent_->generation()) {
    client.agent_index = agent_->find_app(client.app_name);
    client.agent_index_generation = agent_->generation();
  }
  NS_ASSERT(client.agent_index < agent_->views().size());
  const auto& view = agent_->views()[client.agent_index];
  // Copies: set_app_thread_cap and retire below touch the views.
  const std::uint64_t commanded = view.commanded_epoch;
  const std::uint64_t enacted = view.enacted_epoch;
  const std::uint32_t enacted_target = view.enacted_target;
  const std::uint32_t stalled = view.latest.stalled_workers;
  const ClientHealth health_before = client.health;
  const bool behind = commanded > enacted;
  // A client behind or in any degraded health state has armed deadlines:
  // the watchdog pass must keep running for it even on otherwise-quiet
  // ticks (health may still change below; checked again at the end).
  if (behind) compliance_all_quiet_ = false;
  if (!behind) {
    client.behind_since_s = -1.0;
  } else if (client.behind_since_s < 0.0) {
    client.behind_since_s = now;
  }

  // The client's own scheduler-latency watchdog distinguishes "app ignoring
  // commands" from "OS not scheduling the app": while it reports stalled
  // (commanded-online but unscheduled) workers, being behind is starvation,
  // not defiance — punishing it would only deepen the starvation. Hold the
  // escalation clock; it restarts the moment the stall clears.
  if (behind && stalled > 0 && client.health == ClientHealth::kHealthy) {
    client.behind_since_s = now;
    if (client.stall_journaled_epoch != commanded) {
      client.stall_journaled_epoch = commanded;
      NS_LOG_WARN("daemon",
                  "enactment-stalled: '{}' behind (commanded {} enacted {}) with {} "
                  "unscheduled workers; holding escalation",
                  client.app_name, commanded, enacted, stalled);
      journal_.record(now, "enactment-stalled",
                      {{"client", jstr(client.app_name)},
                       {"slot", jnum(index)},
                       {"commanded", jnum(commanded)},
                       {"enacted", jnum(enacted)},
                       {"stalled_workers", jnum(stalled)}});
    }
  }

  switch (client.health) {
    case ClientHealth::kHealthy:
      if (behind && now - client.behind_since_s >= options_.enactment_deadline_s) {
        // Laggard: administratively reclaim the unenacted cores by capping
        // the client at what it has provably enacted (never below the
        // floor); the policy redistributes the difference on the next step.
        const std::uint32_t cap =
            enacted_target == agent::kUnconstrained
                ? kQuarantineFloorThreads
                : std::max(kQuarantineFloorThreads, enacted_target);
        agent_->set_app_thread_cap(client.app_name, cap);
        client.health = ClientHealth::kLaggard;
        ++stats_.laggards;
        NS_LOG_WARN("daemon", "laggard: '{}' behind (commanded {} enacted {}), capped at {}",
                    client.app_name, commanded, enacted, cap);
        journal_.record(now, "laggard",
                        {{"client", jstr(client.app_name)},
                         {"slot", jnum(index)},
                         {"commanded", jnum(commanded)},
                         {"enacted", jnum(enacted)},
                         {"cap", jnum(cap)}});
      }
      break;

    case ClientHealth::kLaggard:
      if (!behind) {
        // Enacted everything commanded (including the capped command):
        // cooperative after all. Full readmission.
        agent_->set_app_thread_cap(client.app_name, 0xffffffffu);
        client.health = ClientHealth::kHealthy;
        ++stats_.readmissions;
        journal_.record(now, "readmit",
                        {{"client", jstr(client.app_name)},
                         {"slot", jnum(index)},
                         {"from", jstr("laggard")}});
      } else if (now - client.behind_since_s >=
                 kQuarantineAfterDeadlines * options_.enactment_deadline_s) {
        ++client.offenses;
        if (client.offenses >= kMaxComplianceOffenses) {
          ++stats_.compliance_evictions;
          retire(index, "compliance-evict", now);
          return;
        }
        agent_->set_app_thread_cap(client.app_name, kQuarantineFloorThreads);
        client.health = ClientHealth::kQuarantined;
        client.backoff_s = kReadmitBackoffDeadlines * options_.enactment_deadline_s;
        client.next_probe_s = now + client.backoff_s;
        client.probing = false;
        ++stats_.quarantines;
        NS_LOG_WARN("daemon", "quarantine: '{}' (offense {}, next probe in {}s)",
                    client.app_name, client.offenses, client.backoff_s);
        journal_.record(now, "quarantine",
                        {{"client", jstr(client.app_name)},
                         {"slot", jnum(index)},
                         {"offenses", jnum(client.offenses)},
                         {"floor", jnum(kQuarantineFloorThreads)},
                         {"backoff_s", jnum(client.backoff_s)}});
      }
      break;

    case ClientHealth::kQuarantined:
      if (client.probing) {
        if (!behind) {
          // Probe survived: the client enacted a full-share command within
          // the deadline. Readmit; offenses stay on record for the repeat-
          // offender eviction, but the backoff resets.
          client.health = ClientHealth::kHealthy;
          client.probing = false;
          client.probe_deadline_s = -1.0;
          client.backoff_s = 0.0;
          client.next_probe_s = -1.0;
          ++stats_.readmissions;
          journal_.record(now, "readmit",
                          {{"client", jstr(client.app_name)},
                           {"slot", jnum(index)},
                           {"from", jstr("quarantined")},
                           {"offenses", jnum(client.offenses)}});
        } else if (now >= client.probe_deadline_s) {
          ++client.offenses;
          client.probing = false;
          client.probe_deadline_s = -1.0;
          if (client.offenses >= kMaxComplianceOffenses) {
            ++stats_.compliance_evictions;
            retire(index, "compliance-evict", now);
            return;
          }
          // Back to the floor; exponential backoff before the next probe.
          agent_->set_app_thread_cap(client.app_name, kQuarantineFloorThreads);
          client.backoff_s = std::min(client.backoff_s * 2.0,
                                      kReadmitBackoffMaxDeadlines * options_.enactment_deadline_s);
          client.next_probe_s = now + client.backoff_s;
          journal_.record(now, "probe-failed",
                          {{"client", jstr(client.app_name)},
                           {"slot", jnum(index)},
                           {"offenses", jnum(client.offenses)},
                           {"backoff_s", jnum(client.backoff_s)}});
        }
      } else if (now >= client.next_probe_s) {
        // Readmission probe: lift the cap so the policy re-grants a full
        // share; the client must enact it before the probe deadline.
        agent_->set_app_thread_cap(client.app_name, 0xffffffffu);
        client.probing = true;
        client.probe_deadline_s = now + options_.enactment_deadline_s;
        client.behind_since_s = -1.0;
        ++stats_.readmission_probes;
        journal_.record(now, "readmission-probe",
                        {{"client", jstr(client.app_name)},
                         {"slot", jnum(index)},
                         {"offenses", jnum(client.offenses)}});
      }
      break;
  }

  if (client.health != ClientHealth::kHealthy) compliance_all_quiet_ = false;

  // Mirror the watchdog's view into the registry slot for daemon-status.
  // The daemon is the slot mirrors' only writer, so each store is gated on
  // the mirror itself, keeping the quiescent-client tick free of
  // shared-memory writes.
  if (client.health != health_before) {
    slot.health.store(static_cast<std::uint32_t>(client.health), std::memory_order_relaxed);
  }
  store_if_changed(slot.commanded_epoch, commanded);
  store_if_changed(slot.enacted_epoch, enacted);
  store_if_changed(slot.stalled_workers, stalled);
  // Drop counters feed daemon-status only; refreshing them means two
  // ring-header loads per client, so do it on a cadence rather than every
  // tick (second-scale staleness is fine for an observability mirror).
  if (client.channel != nullptr && stats_.ticks % kDropMirrorEveryTicks == 0) {
    store_if_changed(slot.commands_dropped, client.channel->commands_dropped());
    store_if_changed(slot.telemetry_dropped, client.channel->telemetry_dropped());
  }
}

void Daemon::foreign_tick(double now) {
  // Our own pid and every client's: their CPU time is cooperating load the
  // model already accounts for, never foreign.
  std::unordered_set<std::int32_t> participants;
  participants.insert(static_cast<std::int32_t>(::getpid()));
  for (const auto& client : clients_) {
    if (client.used) participants.insert(static_cast<std::int32_t>(client.pid));
  }
  foreign_->set_participants(participants);
  const auto events = foreign_->tick(now);
  ++stats_.foreign_scans;
  journal_foreign_events(events, now);
  agent_->policy().on_foreign_load(foreign_->load());
  mirror_foreign_shard();
}

void Daemon::journal_foreign_events(const std::vector<foreign::ForeignEvent>& events,
                                    double now) {
  for (const auto& event : events) {
    switch (event.kind) {
      case foreign::ForeignEvent::Kind::kSeen:
        ++stats_.foreign_seen;
        NS_LOG_INFO("daemon", "foreign-seen: '{}' pid {} ({} cores)", event.name,
                    event.pid, event.cpu_cores);
        journal_.record(now, "foreign-seen",
                        {{"pid", jnum(static_cast<std::uint64_t>(event.pid))},
                         {"name", jstr(event.name)},
                         {"cores", jnum(event.cpu_cores)}});
        break;
      case foreign::ForeignEvent::Kind::kGone:
        ++stats_.foreign_gone;
        NS_LOG_INFO("daemon", "foreign-gone: '{}' pid {}", event.name, event.pid);
        journal_.record(now, "foreign-gone",
                        {{"pid", jnum(static_cast<std::uint64_t>(event.pid))},
                         {"name", jstr(event.name)}});
        break;
      case foreign::ForeignEvent::Kind::kFence:
        ++stats_.foreign_fences;
        NS_LOG_INFO("daemon", "foreign-fence: '{}' pid {} -> node {} ({})", event.name,
                    event.pid, event.node, foreign::to_string(event.fence));
        journal_.record(now, "foreign-fence",
                        {{"pid", jnum(static_cast<std::uint64_t>(event.pid))},
                         {"name", jstr(event.name)},
                         {"node", jnum(event.node)},
                         {"state", jstr(foreign::to_string(event.fence))}});
        break;
      case foreign::ForeignEvent::Kind::kRelease:
        ++stats_.foreign_releases;
        NS_LOG_INFO("daemon", "foreign-fence released: '{}' pid {}", event.name, event.pid);
        journal_.record(now, "foreign-fence",
                        {{"pid", jnum(static_cast<std::uint64_t>(event.pid))},
                         {"name", jstr(event.name)},
                         {"state", jstr("released")}});
        break;
    }
  }
}

void Daemon::mirror_foreign_shard() {
  auto& header = registry_->header();
  const auto tracked = foreign_->tracked();
  const auto count =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(tracked.size()), kMaxForeign);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto& info = tracked[i];
    auto& row = header.foreign[i];
    std::memset(row.name, 0, sizeof(row.name));
    std::strncpy(row.name, info.name.c_str(), sizeof(row.name) - 1);
    row.fence.store(static_cast<std::uint32_t>(info.fence), std::memory_order_relaxed);
    row.fence_node.store(info.fence_node == topo::kInvalidNode ? agent::kMaxNodes
                                                               : info.fence_node,
                         std::memory_order_relaxed);
    row.busy_millicores.store(static_cast<std::uint64_t>(info.cpu_cores * 1000.0),
                              std::memory_order_relaxed);
    for (std::uint32_t n = 0; n < agent::kMaxNodes; ++n) {
      const double share = n < info.node_cores.size() ? info.node_cores[n] : 0.0;
      row.node_millicores[n].store(static_cast<std::uint64_t>(share * 1000.0),
                                   std::memory_order_relaxed);
    }
    // pid last: readers treat pid != 0 as "row valid".
    row.pid.store(info.pid, std::memory_order_release);
  }
  for (std::uint32_t i = count; i < kMaxForeign; ++i) {
    header.foreign[i].pid.store(0, std::memory_order_relaxed);
  }
  header.foreign_count.store(count, std::memory_order_release);
}

void Daemon::journal_allocation(double now) {
  if (!journal_.ok()) return;
  // When the (possibly wrapped) policy is model-guided, attach the actual
  // per-node allocation behind the directives and what the search behind it
  // cost; otherwise names only.
  agent::Policy* policy = &agent_->policy();
  if (auto* wrapper = dynamic_cast<AdvertisedAiPolicy*>(policy)) policy = &wrapper->inner();
  const model::Allocation* allocation = nullptr;
  const auto* model_guided = dynamic_cast<agent::ModelGuidedPolicy*>(policy);
  if (model_guided != nullptr && model_guided->last_allocation()) {
    allocation = &*model_guided->last_allocation();
  }
  const auto& views = agent_->views();
  std::string apps = "[";
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (a > 0) apps += ",";
    apps += "{\"name\":" + jstr(views[a].name);
    if (allocation != nullptr && a < allocation->app_count()) {
      apps += ",\"node_threads\":[";
      for (topo::NodeId n = 0; n < allocation->node_count(); ++n) {
        if (n > 0) apps += ",";
        apps += jnum(allocation->threads(static_cast<model::AppId>(a), n));
      }
      apps += "]";
    }
    apps += "}";
  }
  apps += "]";
  std::vector<std::pair<std::string_view, std::string>> fields{
      {"generation", jnum(agent_->generation())}, {"apps", std::move(apps)}};
  if (allocation != nullptr) {
    using Kind = agent::ModelGuidedPolicy::SearchKind;
    const auto& search = model_guided->last_search();
    fields.insert(fields.end(),
                  {{"search", jstr(search.kind == Kind::kRefine ? "refine" : "full")},
                   {"evaluated", jnum(search.evaluated)},
                   {"pruned", jnum(search.pruned)},
                   {"bound_solves", jnum(search.bound_solves)},
                   {"app_classes", jnum(search.app_classes)},
                   {"home_moves", jnum(search.home_moves)},
                   {"predicted_gflops", jnum(search.predicted_gflops)},
                   {"search_us", jnum(search.search_us)},
                   {"truncated", jbool(search.truncated)}});
  }
  journal_.record(now, "reallocate", fields);
}

void Daemon::journal_snapshot(double now) {
  if (!journal_.ok()) return;
  const auto& views = agent_->views();
  std::string apps = "[";
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (a > 0) apps += ",";
    const auto& view = views[a];
    apps += "{\"name\":" + jstr(view.name) + ",\"task_rate\":" + jnum(view.task_rate) +
            ",\"ai\":" + jnum(view.latest.ai_estimate) +
            ",\"running_threads\":" + jnum(view.latest.running_threads) +
            ",\"telemetry_dropped\":" + jnum(view.telemetry_dropped) + "}";
  }
  apps += "]";
  journal_.record(now, "snapshot",
                  {{"tick", jnum(stats_.ticks)},
                   {"generation", jnum(agent_->generation())},
                   {"clients", jnum(static_cast<std::uint64_t>(client_count()))},
                   {"commands_sent", jnum(agent_->commands_sent())},
                   {"telemetry_received", jnum(agent_->telemetry_received())},
                   {"apps", std::move(apps)}});
}

void Daemon::journal_checkpoint(double now) {
  if (!journal_.ok()) return;
  // Full registry + health snapshot: everything recovery needs to reseed
  // the daemon without replaying history before this line.
  std::string clients = "[";
  bool first = true;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& client = clients_[i];
    if (!client.used) continue;
    const auto& slot = registry_->slot(i);
    if (!first) clients += ",";
    first = false;
    clients += "{\"slot\":" + jnum(i) + ",\"client\":" + jstr(client.app_name) +
               ",\"pid\":" + jnum(static_cast<std::uint64_t>(client.pid)) +
               ",\"ai\":" + jnum(client.advertised_ai) +
               ",\"channel\":" + jstr(client.channel != nullptr ? client.channel->name() : "") +
               ",\"health\":" + jstr(to_string(client.health)) +
               ",\"commanded\":" + jnum(slot.commanded_epoch.load(std::memory_order_relaxed)) +
               ",\"enacted\":" + jnum(slot.enacted_epoch.load(std::memory_order_relaxed)) +
               ",\"offenses\":" + jnum(client.offenses) + "}";
  }
  clients += "]";
  // Checksummed: recovery refuses a bit-rotted snapshot and falls back to
  // the previous checkpoint rather than reseeding from corrupt state.
  journal_.record_checksummed(now, "checkpoint",
                              {{"tick", jnum(stats_.ticks)},
                               {"generation", jnum(agent_->generation())},
                               {"arbiter_gen", jnum(arbiter_generation_)},
                               {"join_seq", jnum(join_seq_)},
                               {"clients", std::move(clients)}});
  journal_.sync();
  ++stats_.checkpoints;
  inject::fire_die("daemon.checkpoint.die", "post_checkpoint", 50);
}

void Daemon::maybe_checkpoint(double now) {
  if (!journal_.ok()) return;
  const bool compact_due = options_.compact_after_lines > 0 &&
                           journal_.lines_written() >= options_.compact_after_lines;
  if (compact_due) {
    // Rotation truncates to the tail: the old file becomes the side-file
    // and the new one opens with a fresh checkpoint so it is self-contained
    // from line one.
    if (journal_.rotate()) {
      ++stats_.compactions;
      journal_checkpoint(now);
    }
    return;
  }
  if (options_.checkpoint_every_ticks > 0 &&
      stats_.ticks % options_.checkpoint_every_ticks == 0) {
    journal_checkpoint(now);
  }
}

void Daemon::recover_from_journal() {
  if (!journal_.ok()) return;
  const auto recovered = nsd::recover_journal(options_.journal_path);
  if (recovered.checkpoint.empty() && recovered.tail.empty()) return;
  std::uint64_t checkpoint_tick = 0;
  if (!recovered.checkpoint.empty()) {
    stats_.recovered_from_checkpoint = true;
    if (auto seq = journal_field(recovered.checkpoint, "join_seq")) {
      join_seq_ = std::strtoull(seq->c_str(), nullptr, 10);
    }
    if (auto tick = journal_field(recovered.checkpoint, "tick")) {
      checkpoint_tick = std::strtoull(tick->c_str(), nullptr, 10);
    }
    // Strictly monotone incarnations: whatever generation the dead daemon
    // checkpointed, this one is its successor. Clients fence on this.
    if (auto gen = journal_field(recovered.checkpoint, "arbiter_gen")) {
      arbiter_generation_ = std::max<std::uint64_t>(
          arbiter_generation_, std::strtoull(gen->c_str(), nullptr, 10) + 1);
    }
  }
  if (recovered.corrupt_checkpoints_skipped > 0) {
    NS_LOG_WARN("daemon", "recovery skipped {} corrupt checkpoint(s)",
                recovered.corrupt_checkpoints_skipped);
  }
  // An incarnation that died before its first checkpoint only left its
  // daemon-start record; its generation must still not be reused, or
  // degraded survivors would never see the failback signal.
  for (const auto& entry : recovered.tail) {
    if (entry.event != "daemon-start") continue;
    if (auto gen = journal_field(entry.raw, "arbiter_gen")) {
      arbiter_generation_ = std::max<std::uint64_t>(
          arbiter_generation_, std::strtoull(gen->c_str(), nullptr, 10) + 1);
    }
  }
  stats_.recovered_tail_entries = recovered.tail.size();
  // Replay only the tail: every join after the checkpoint consumed a join
  // sequence number, and join_seq_ must move past all of them so channel
  // and app names stay unique across incarnations. (Counting every tail
  // entry instead of just joins over-advances harmlessly.)
  join_seq_ += recovered.tail.size();
  NS_LOG_INFO("daemon",
              "recovered journal: checkpoint tick {}, {} tail entries, join_seq {}{}",
              checkpoint_tick, recovered.tail.size(), join_seq_,
              recovered.used_sidefile ? " (from rotation side-file)" : "");
  journal_.record(monotonic_seconds(), "daemon-recover",
                  {{"checkpoint_tick", jnum(checkpoint_tick)},
                   {"tail_entries", jnum(static_cast<std::uint64_t>(recovered.tail.size()))},
                   {"join_seq", jnum(join_seq_)},
                   {"arbiter_gen", jnum(arbiter_generation_)},
                   {"from_checkpoint", jbool(stats_.recovered_from_checkpoint)},
                   {"sidefile", jbool(recovered.used_sidefile)},
                   {"corrupt_checkpoints", jnum(static_cast<std::uint64_t>(
                                               recovered.corrupt_checkpoints_skipped))},
                   {"torn_tail", jbool(recovered.torn_tail)}});
}

std::optional<Daemon::ComplianceView> Daemon::compliance_view(
    const std::string& app_name) const {
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& client = clients_[i];
    if (!client.used || client.app_name != app_name) continue;
    const auto& slot = registry_->slot(i);
    ComplianceView view;
    view.health = client.health;
    view.commanded_epoch = slot.commanded_epoch.load(std::memory_order_relaxed);
    view.enacted_epoch = slot.enacted_epoch.load(std::memory_order_relaxed);
    view.offenses = client.offenses;
    view.probing = client.probing;
    view.next_probe_s = client.next_probe_s;
    view.backoff_s = client.backoff_s;
    view.stalled_workers = slot.stalled_workers.load(std::memory_order_relaxed);
    return view;
  }
  return std::nullopt;
}

void Daemon::start() {
  NS_REQUIRE(registry_ != nullptr, "Daemon::init() must succeed before start()");
  NS_REQUIRE(!running_.load(), "daemon already running");
  running_.store(true);
  loop_thread_ = std::thread([this] {
    set_current_thread_name("ns-daemon");
    while (running_.load(std::memory_order_acquire)) {
      tick(monotonic_seconds());
      std::this_thread::sleep_for(std::chrono::microseconds(options_.period_us));
    }
  });
}

void Daemon::stop() {
  if (!running_.exchange(false)) return;
  if (loop_thread_.joinable()) loop_thread_.join();
}

std::size_t Daemon::client_count() const {
  std::size_t used = 0;
  for (const auto bits : used_bits_) used += static_cast<std::size_t>(std::popcount(bits));
  return used;
}

}  // namespace numashare::nsd
