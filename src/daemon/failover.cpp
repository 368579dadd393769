#include "daemon/failover.hpp"

#include <signal.h>

#include <algorithm>
#include <cerrno>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace numashare::nsd {

namespace {

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

FailoverClient::FailoverClient(std::string app_name, ClientConnectOptions connect_options,
                               FailoverOptions options)
    : app_name_(std::move(app_name)),
      options_(options),
      client_(app_name_, [&connect_options] {
        // Degraded mode runs over the orphaned segment; the wrapped client
        // must never drop its mappings just because the daemon died.
        connect_options.hold_slot_on_daemon_loss = true;
        return connect_options;
      }()) {}

bool FailoverClient::connect(std::string* error) {
  if (!client_.connect(error)) return false;
  refresh_from_registry();
  state_ = FailoverState::kAttached;
  mirror_state();
  return true;
}

void FailoverClient::disconnect() {
  client_.disconnect();
  state_ = FailoverState::kAttached;
  degraded_allocation_.reset();
  dead_generation_ = 0;
  misses_ = 0;
}

void FailoverClient::refresh_from_registry() {
  machine_ = client_.arbitration_machine();
  const auto& header = client_.registry()->header();
  known_generation_ =
      std::max(known_generation_, header.arbiter_generation.load(std::memory_order_acquire));
  last_heartbeat_seen_ = header.daemon_heartbeat.load(std::memory_order_acquire);
  misses_ = 0;
}

void FailoverClient::mirror_state() {
  if (!client_.connected() || client_.registry() == nullptr) return;
  client_.registry()
      ->slot(client_.slot_index())
      .failover_state.store(static_cast<std::uint32_t>(state_), std::memory_order_relaxed);
}

FailoverState FailoverClient::poll(const std::vector<std::uint32_t>& last_grant) {
  switch (state_) {
    case FailoverState::kAttached:
    case FailoverState::kSuspect: {
      if (!client_.check_connection()) {
        // Evicted (or the slot was recycled under a restart we missed):
        // nothing to hold on to — go straight to the rejoin path.
        state_ = FailoverState::kRejoining;
        degraded_allocation_.reset();
        try_failback();
        break;
      }
      if (client_.daemon_lost()) {
        // The pid is gone; no point sitting out the miss window.
        enter_degraded(last_grant);
        break;
      }
      const auto& header = client_.registry()->header();
      const auto hb = header.daemon_heartbeat.load(std::memory_order_acquire);
      if (hb != last_heartbeat_seen_) {
        last_heartbeat_seen_ = hb;
        misses_ = 0;
        known_generation_ = std::max(
            known_generation_, header.arbiter_generation.load(std::memory_order_acquire));
        if (state_ == FailoverState::kSuspect) {
          state_ = FailoverState::kAttached;
          mirror_state();
        }
        break;
      }
      ++misses_;
      if (state_ == FailoverState::kAttached && misses_ >= options_.suspect_after_misses) {
        NS_LOG_WARN("failover", "'{}' daemon heartbeat stalled ({} polls); suspect", app_name_,
                    misses_);
        state_ = FailoverState::kSuspect;
        mirror_state();
      }
      if (misses_ >= options_.degraded_after_misses) enter_degraded(last_grant);  // wedged
      break;
    }
    case FailoverState::kDegraded: {
      // A wedged-but-alive daemon may resume ticking; that incarnation is
      // still the authority, so fold back in without a failback.
      if (client_.connected() && !client_.daemon_lost()) {
        const auto hb =
            client_.registry()->header().daemon_heartbeat.load(std::memory_order_acquire);
        if (hb != last_heartbeat_seen_) {
          exit_degraded_resumed();
          break;
        }
      }
      gather_and_arbitrate();
      if (options_.rejoin_probe_every_polls == 0 ||
          (++degraded_polls_ % options_.rejoin_probe_every_polls) == 0) {
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

void FailoverClient::enter_degraded(const std::vector<std::uint32_t>& last_grant) {
  if (state_ == FailoverState::kDegraded) return;
  state_ = FailoverState::kDegraded;
  ++stats_.degraded_entries;
  dead_generation_ = known_generation_;
  degraded_polls_ = 0;
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
  misses_ = 0;
  // The stale proposal stays harmlessly in the slot: it is tagged with this
  // (live) incarnation's generation, but nothing arbitrates outside degraded
  // mode, and the next episode re-publishes before gathering.
  mirror_state();
}

void FailoverClient::publish_proposal(const std::vector<std::uint32_t>& last_grant) {
  auto* registry = client_.registry();
  if (registry == nullptr || client_.slot_index() >= kMaxClients) return;
  // Count the survivors sharing the orphaned segment — every kActive slot
  // with a live pid still wants its share — and this one's rank among them,
  // which picks its row of the fair share.
  std::uint32_t survivors = 0;
  std::uint32_t rank = 0;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& other = registry->slot(i);
    if (state_of(other.state_word.load(std::memory_order_acquire)) != SlotState::kActive) continue;
    if (i != client_.slot_index() &&
        !pid_alive(other.pid.load(std::memory_order_relaxed))) {
      continue;
    }
    if (i < client_.slot_index()) ++rank;
    ++survivors;
  }
  // Our own slot may already read other than kActive; it still proposes.
  survivors = std::max(survivors, rank + 1);
  const auto desired = agent::conservative_desired(machine_, survivors, rank, last_grant);
  auto& slot = registry->slot(client_.slot_index());
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
  raise_attention(registry->header(), client_.slot_index());
}

void FailoverClient::gather_and_arbitrate() {
  auto* registry = client_.registry();
  if (registry == nullptr) return;
  std::vector<agent::SlotProposal> proposals;
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    const auto& slot = registry->slot(i);
    if (state_of(slot.state_word.load(std::memory_order_acquire)) != SlotState::kActive) continue;
    if (slot.proposal_seq.load(std::memory_order_acquire) == 0) continue;
    // Only this episode's proposals: a leftover from an earlier incarnation
    // (or a survivor that has not noticed the death yet) must not mix in.
    if (slot.proposal_generation.load(std::memory_order_relaxed) != dead_generation_) continue;
    // A survivor that died mid-episode leaves a kActive slot forever (there
    // is no daemon to evict it); drop it from the set once its pid is gone.
    // Survivors converge on the same filtered set as soon as each has seen
    // the death — transient disagreement, stable agreement.
    if (i != client_.slot_index() && !pid_alive(slot.pid.load(std::memory_order_relaxed))) {
      continue;
    }
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
  auto probe = Registry::open(client_.options().registry_name);
  if (probe == nullptr || !probe->daemon_alive()) return false;
  const auto generation = probe->header().arbiter_generation.load(std::memory_order_acquire);
  if (generation <= dead_generation_) return false;  // still the old corpse
  probe.reset();
  if (state_ != FailoverState::kRejoining) {
    state_ = FailoverState::kRejoining;
    mirror_state();  // visible in the orphan segment until we let go of it
  }
  NS_LOG_INFO("failover", "'{}' observed incarnation {}; rejoining", app_name_, generation);
  std::string error;
  if (!client_.reconnect(&error)) {
    NS_LOG_WARN("failover", "'{}' rejoin failed (will retry): {}", app_name_, error);
    return false;  // stay kRejoining; next poll probes again
  }
  // Attached to the new incarnation, on a fresh channel: the degraded
  // grants die with the old generation.
  refresh_from_registry();
  dead_generation_ = 0;
  degraded_allocation_.reset();
  state_ = FailoverState::kAttached;
  ++stats_.rejoins;
  mirror_state();
  NS_LOG_INFO("failover", "'{}' failback complete (incarnation {})", app_name_,
              known_generation_);
  return true;
}

std::vector<std::uint32_t> FailoverClient::degraded_threads() const {
  if (!degraded_allocation_ || !client_.connected()) return {};
  return degraded_allocation_->threads_for(client_.slot_index());
}

}  // namespace numashare::nsd
