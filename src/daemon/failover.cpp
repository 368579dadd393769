#include "daemon/failover.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "inject/fault.hpp"

namespace numashare::nsd {

namespace {

// Failover windows, in seconds of the caller's clock. daemon_app polls every
// 10 ms, so it turns suspect after 5 silent polls, degrades under a wedged
// (pid alive) daemon after 50, and probes for a new incarnation every 4th
// poll while degraded. A dead pid degrades at once.
constexpr double kSuspectAfterS = 0.05;
constexpr double kDegradedAfterS = 0.5;
constexpr double kRejoinProbeEveryS = 0.04;

bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

}  // namespace

const char* to_string(FailoverState state) {
  switch (state) {
    case FailoverState::kAttached: return "attached";
    case FailoverState::kSuspect: return "suspect";
    case FailoverState::kDegraded: return "degraded";
    case FailoverState::kRejoining: return "rejoining";
  }
  return "?";
}

FailoverClient::FailoverClient(std::string app_name, ClientConnectOptions options)
    : app_name_(std::move(app_name)), options_(std::move(options)) {}

FailoverClient::~FailoverClient() { leave(); }

bool FailoverClient::try_join_once(std::string* error) {
  if (inject::fire("client.connect.fail")) {
    if (error) *error = "injected connect failure";
    return false;
  }
  registry_ = Registry::open(options_.registry_name, error);
  if (registry_ == nullptr) return false;
  if (!registry_->daemon_alive()) {
    if (error) *error = "registry exists but its daemon is dead";
    registry_.reset();
    return false;
  }
  const auto claimed = registry_->claim_slot(app_name_, options_.advertised_ai,
                                             options_.data_home);
  if (!claimed) {
    if (error) *error = "registry full";
    registry_.reset();
    return false;
  }
  const std::uint32_t index = claimed->index;
  auto& slot = registry_->slot(index);
  inject::fire_die("client.die", "post_claim", 45);

  // Wait for the daemon to mint our channel. The daemon activates exactly
  // our published word, so the one word we must see is its successor; any
  // OTHER word means the claim was reclaimed/recycled and the slot is no
  // longer ours to touch.
  std::uint64_t word = claimed->joining_word;
  const std::uint64_t activated = next_word(word, SlotState::kActive);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(options_.activation_timeout_s * 1e6));
  for (;;) {
    const std::uint64_t seen = slot.state_word.load(std::memory_order_acquire);
    if (seen == activated) break;
    if (seen != word) {
      if (error) *error = "lost the claimed slot before activation";
      registry_.reset();
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // Abandon the claim — unless the daemon activates concurrently, in
      // which case the CAS fails and we re-check (attach proceeds above).
      if (slot.try_transition(word, SlotState::kFree)) {
        if (error) *error = "daemon did not activate the slot in time";
        registry_.reset();
        return false;
      }
      continue;  // the state changed under us; re-evaluate
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  inject::fire_die("client.die", "pre_attach", 46);

  const std::string channel_name(slot.channel_name,
                                 strnlen(slot.channel_name, sizeof(slot.channel_name)));
  channel_ = agent::ShmChannel::attach(channel_name, error);
  if (channel_ == nullptr) {
    registry_.reset();
    return false;
  }
  inject::fire_die("client.die", "post_attach", 47);
  slot_index_ = index;
  active_word_ = activated;
  connected_.store(true, std::memory_order_release);
  NS_LOG_INFO("failover", "'{}' joined: slot {} channel '{}'", app_name_, index, channel_name);
  return true;
}

bool FailoverClient::join(std::string* error) {
  // Decorrelated jitter (sleep = uniform[initial, 3 * previous], clamped):
  // survivors of a daemon restart all reconnect at once, and identical
  // backoff schedules would have their claim CASes collide round after
  // round. Each client drawing its own schedule spreads the herd.
  Xoshiro256 rng(options_.backoff_seed != 0
                     ? options_.backoff_seed
                     : (static_cast<std::uint64_t>(::getpid()) << 32) ^
                           static_cast<std::uint64_t>(
                               std::chrono::steady_clock::now().time_since_epoch().count()));
  std::int64_t backoff_us = options_.initial_backoff_us;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (try_join_once(&last_error)) return true;
    NS_LOG_DEBUG("failover", "'{}' connect attempt {} failed: {} (backoff {} us)", app_name_,
                 attempt + 1, last_error, backoff_us);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    const std::int64_t lo = std::max<std::int64_t>(1, options_.initial_backoff_us);
    const std::int64_t hi =
        std::min<std::int64_t>(std::max(backoff_us * 3, lo), options_.max_backoff_us);
    backoff_us =
        lo + static_cast<std::int64_t>(rng.uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
  }
  if (error) {
    *error = ns_format("gave up after {} attempts: {}", options_.max_attempts, last_error);
  }
  return false;
}

void FailoverClient::drop_connection() {
  connected_.store(false, std::memory_order_release);
  channel_.reset();
  registry_.reset();
  slot_index_ = kMaxClients;
  active_word_ = 0;
}

void FailoverClient::leave() {
  if (!connected()) return;
  // Only our exact incarnation may be flipped to kLeaving; if the word
  // moved on (eviction, daemon restart) the CAS fails harmlessly.
  std::uint64_t expected = active_word_;
  if (registry_->slot(slot_index_).try_transition(expected, SlotState::kLeaving)) {
    raise_attention(registry_->header(), slot_index_);
  }
  drop_connection();
}

bool FailoverClient::connect(std::string* error) {
  if (!join(error)) return false;
  refresh_from_registry();
  state_ = FailoverState::kAttached;
  mirror_state();
  return true;
}

void FailoverClient::disconnect() {
  leave();
  state_ = FailoverState::kAttached;
  degraded_allocation_.reset();
  dead_generation_ = 0;
}

void FailoverClient::heartbeat() {
  if (inject::fire("client.heartbeat.suppress")) return;
  if (!connected()) return;
  registry_->slot(slot_index_).heartbeat.fetch_add(1, std::memory_order_relaxed);
}

topo::Machine FailoverClient::arbitration_machine() const {
  NS_REQUIRE(registry_ != nullptr, "arbitration_machine() requires a connection");
  const auto& header = registry_->header();
  const auto nodes = header.node_count.load(std::memory_order_acquire);
  NS_REQUIRE(nodes >= 1 && nodes <= agent::kMaxNodes, "registry carries no machine shape");
  topo::Machine machine;
  machine.set_name("arbitrated");
  for (std::uint32_t n = 0; n < nodes; ++n) {
    machine.add_node(header.node_cores[n].load(std::memory_order_relaxed),
                     /*core_peak_gflops=*/1.0, /*node_bandwidth=*/10.0);
  }
  return machine;
}

void FailoverClient::refresh_from_registry() {
  machine_ = arbitration_machine();
  const auto& header = registry_->header();
  known_generation_ =
      std::max(known_generation_, header.arbiter_generation.load(std::memory_order_acquire));
  last_heartbeat_seen_ = header.daemon_heartbeat.load(std::memory_order_acquire);
  heartbeat_moved_at_.reset();
}

void FailoverClient::mirror_state() {
  if (!connected()) return;
  registry_->slot(slot_index_)
      .failover_state.store(static_cast<std::uint32_t>(state_), std::memory_order_relaxed);
}

FailoverState FailoverClient::poll(double now, const std::vector<std::uint32_t>& last_grant) {
  switch (state_) {
    case FailoverState::kAttached:
    case FailoverState::kSuspect: {
      // One acquire load answers "still our incarnation?": the slot word
      // moves on (nonce bump) the moment anyone evicts, frees, or re-claims
      // the slot.
      if (!connected() || registry_->slot(slot_index_).state_word.load(
                              std::memory_order_acquire) != active_word_) {
        // Evicted (or the slot was recycled under a restart we missed):
        // nothing to hold on to. Rejoin on the next poll, so a caller that
        // ticks the daemon itself sees the loss before the blocking join.
        NS_LOG_WARN("failover", "'{}' lost its slot (evicted or daemon restarted)", app_name_);
        drop_connection();
        state_ = FailoverState::kRejoining;
        degraded_allocation_.reset();
        break;
      }
      if (!registry_->daemon_alive()) {
        // The arbiter died but nobody evicted us: hold every mapping — the
        // orphaned registry is the degraded-mode proposal bus — and skip
        // the stall windows, the pid is gone.
        enter_degraded(now, last_grant);
        break;
      }
      const auto& header = registry_->header();
      const auto hb = header.daemon_heartbeat.load(std::memory_order_acquire);
      if (hb != last_heartbeat_seen_ || !heartbeat_moved_at_) {
        last_heartbeat_seen_ = hb;
        heartbeat_moved_at_ = now;
        known_generation_ = std::max(
            known_generation_, header.arbiter_generation.load(std::memory_order_acquire));
        if (state_ == FailoverState::kSuspect) {
          state_ = FailoverState::kAttached;
          mirror_state();
        }
        break;
      }
      const double stalled_s = now - *heartbeat_moved_at_;
      if (state_ == FailoverState::kAttached && stalled_s >= kSuspectAfterS) {
        NS_LOG_WARN("failover", "'{}' daemon heartbeat stalled ({} s); suspect", app_name_,
                    stalled_s);
        state_ = FailoverState::kSuspect;
        mirror_state();
      }
      if (stalled_s >= kDegradedAfterS) enter_degraded(now, last_grant);  // wedged
      break;
    }
    case FailoverState::kDegraded: {
      // A wedged-but-alive daemon may resume ticking; that incarnation is
      // still the authority, so fold back in without a failback.
      if (registry_->header().daemon_heartbeat.load(std::memory_order_acquire) !=
          last_heartbeat_seen_) {
        exit_degraded_resumed();
        break;
      }
      gather_and_arbitrate();
      if (now - last_probe_at_ >= kRejoinProbeEveryS) {
        last_probe_at_ = now;
        try_failback();
      }
      break;
    }
    case FailoverState::kRejoining:
      try_failback();
      break;
  }
  return state_;
}

void FailoverClient::enter_degraded(double now, const std::vector<std::uint32_t>& last_grant) {
  if (state_ == FailoverState::kDegraded) return;
  state_ = FailoverState::kDegraded;
  ++stats_.degraded_entries;
  dead_generation_ = known_generation_;
  // Resuming means the heartbeat moves after this point: a dead daemon's
  // may have moved since the last poll, but never will again.
  last_heartbeat_seen_ = registry_->header().daemon_heartbeat.load(std::memory_order_acquire);
  last_probe_at_ = now;
  degraded_allocation_.reset();
  NS_LOG_WARN("failover", "'{}' entering degraded mode (dead incarnation {})", app_name_,
              dead_generation_);
  publish_proposal(last_grant);
  mirror_state();
  gather_and_arbitrate();
}

void FailoverClient::exit_degraded_resumed() {
  NS_LOG_INFO("failover", "'{}' daemon heartbeat resumed; leaving degraded mode", app_name_);
  state_ = FailoverState::kAttached;
  degraded_allocation_.reset();
  heartbeat_moved_at_.reset();
  // The stale proposal stays harmlessly in the slot: it is tagged with this
  // (live) incarnation's generation, but nothing arbitrates outside degraded
  // mode, and the next episode re-publishes before gathering.
  mirror_state();
}

void FailoverClient::publish_proposal(const std::vector<std::uint32_t>& last_grant) {
  // Count the survivors sharing the orphaned segment — every kActive slot
  // with a live pid still wants its share — and this one's rank among them,
  // which picks its row of the fair share.
  std::uint32_t survivors = 0;
  std::uint32_t rank = 0;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& other = registry_->slot(i);
    if (state_of(other.state_word.load(std::memory_order_acquire)) != SlotState::kActive) continue;
    if (i != slot_index_ && !pid_alive(other.pid.load(std::memory_order_relaxed))) continue;
    if (i < slot_index_) ++rank;
    ++survivors;
  }
  // Our own slot may already read other than kActive; it still proposes.
  survivors = std::max(survivors, rank + 1);
  const auto desired = agent::conservative_desired(machine_, survivors, rank, last_grant);
  auto& slot = registry_->slot(slot_index_);
  for (std::uint32_t n = 0; n < agent::kMaxNodes; ++n) {
    slot.proposal_desired[n].store(n < desired.size() ? desired[n] : 0,
                                   std::memory_order_relaxed);
  }
  slot.proposal_generation.store(dead_generation_, std::memory_order_relaxed);
  // Release-publish: a gatherer that observes the new seq sees the complete
  // desired vector and its generation tag.
  slot.proposal_seq.fetch_add(1, std::memory_order_release);
  // Proposals arbitrate peer-to-peer while the daemon is dead, but a
  // restarted daemon that fails back mid-episode learns of the slot's
  // activity from the bitmap instead of waiting for its full sweep.
  raise_attention(registry_->header(), slot_index_);
}

void FailoverClient::gather_and_arbitrate() {
  std::vector<agent::SlotProposal> proposals;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& slot = registry_->slot(i);
    if (state_of(slot.state_word.load(std::memory_order_acquire)) != SlotState::kActive) continue;
    if (slot.proposal_seq.load(std::memory_order_acquire) == 0) continue;
    // Only this episode's proposals: a leftover from an earlier incarnation
    // (or a survivor that has not noticed the death yet) must not mix in.
    if (slot.proposal_generation.load(std::memory_order_relaxed) != dead_generation_) continue;
    // A survivor that died mid-episode leaves a kActive slot forever (there
    // is no daemon to evict it); drop it from the set once its pid is gone.
    // Survivors converge on the same filtered set as soon as each has seen
    // the death — transient disagreement, stable agreement.
    if (i != slot_index_ && !pid_alive(slot.pid.load(std::memory_order_relaxed))) continue;
    agent::SlotProposal p;
    p.slot = i;
    p.desired_per_node.resize(machine_.node_count());
    for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
      p.desired_per_node[n] = slot.proposal_desired[n].load(std::memory_order_relaxed);
    }
    proposals.push_back(std::move(p));
  }
  if (proposals.empty()) return;
  degraded_allocation_ = agent::arbitrate_slots(machine_, std::move(proposals));
}

bool FailoverClient::try_failback() {
  // Probe the well-known name. While the daemon is down this opens the same
  // orphaned segment we already map (daemon_alive() false); after a restart
  // it opens the *new* segment the fresh incarnation created there.
  auto probe = Registry::open(options_.registry_name);
  if (probe == nullptr || !probe->daemon_alive()) return false;
  const auto generation = probe->header().arbiter_generation.load(std::memory_order_acquire);
  if (generation <= dead_generation_) return false;  // still the old corpse
  probe.reset();
  if (state_ != FailoverState::kRejoining) {
    state_ = FailoverState::kRejoining;
    mirror_state();  // visible in the orphan segment until we let go of it
  }
  NS_LOG_INFO("failover", "'{}' observed incarnation {}; rejoining", app_name_, generation);
  leave();
  std::string error;
  if (!connect(&error)) {
    NS_LOG_WARN("failover", "'{}' rejoin failed (will retry): {}", app_name_, error);
    return false;  // stay kRejoining; next poll probes again
  }
  // Attached to the new incarnation, on a fresh channel: the degraded
  // grants die with the old generation.
  dead_generation_ = 0;
  degraded_allocation_.reset();
  ++stats_.rejoins;
  NS_LOG_INFO("failover", "'{}' failback complete (incarnation {})", app_name_,
              known_generation_);
  return true;
}

std::vector<std::uint32_t> FailoverClient::degraded_threads() const {
  if (!degraded_allocation_ || !connected()) return {};
  return degraded_allocation_->threads_for(slot_index_);
}

}  // namespace numashare::nsd
