#include "daemon/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "inject/fault.hpp"

namespace numashare::nsd {

DaemonClient::DaemonClient(std::string app_name, ClientConnectOptions options)
    : app_name_(std::move(app_name)), options_(std::move(options)) {}

DaemonClient::~DaemonClient() { disconnect(); }

bool DaemonClient::try_join_once(std::string* error) {
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
  generation_ = slot.generation.load(std::memory_order_relaxed);
  active_word_ = activated;
  daemon_lost_.store(false, std::memory_order_release);
  connected_.store(true, std::memory_order_release);
  NS_LOG_INFO("daemon-client", "'{}' joined: slot {} channel '{}' generation {}", app_name_,
              index, channel_name, generation_);
  return true;
}

bool DaemonClient::connect(std::string* error) {
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
    ++connect_attempts_;
    if (try_join_once(&last_error)) return true;
    NS_LOG_DEBUG("daemon-client", "'{}' connect attempt {} failed: {} (backoff {} us)",
                 app_name_, attempt + 1, last_error, backoff_us);
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

topo::Machine DaemonClient::arbitration_machine() const {
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

void DaemonClient::heartbeat() {
  if (inject::fire("client.heartbeat.suppress")) return;
  if (registry_ == nullptr || slot_index_ >= kMaxClients) return;
  registry_->slot(slot_index_).heartbeat.fetch_add(1, std::memory_order_relaxed);
}

bool DaemonClient::check_connection() {
  if (!connected()) return false;
  // One acquire load answers "still our incarnation?": the slot word moves
  // on (nonce bump) the moment anyone evicts, frees, or re-claims the slot.
  const bool still_ours =
      registry_->slot(slot_index_).state_word.load(std::memory_order_acquire) == active_word_;
  if (still_ours && registry_->daemon_alive()) {
    daemon_lost_.store(false, std::memory_order_release);
    return true;
  }
  if (still_ours && options_.hold_slot_on_daemon_loss) {
    // The arbiter died but nobody evicted us: the slot word is untouched.
    // Hold every mapping — the orphaned registry is about to become the
    // degraded-mode proposal bus — and surface the loss as a flag.
    if (!daemon_lost_.exchange(true, std::memory_order_acq_rel)) {
      NS_LOG_WARN("daemon-client", "'{}' daemon died; holding slot {} for degraded mode",
                  app_name_, slot_index_);
    }
    return true;
  }
  NS_LOG_WARN("daemon-client", "'{}' lost its slot (evicted or daemon restarted)", app_name_);
  drop_connection();
  return false;
}

void DaemonClient::drop_connection() {
  connected_.store(false, std::memory_order_release);
  daemon_lost_.store(false, std::memory_order_release);
  channel_.reset();
  registry_.reset();
  slot_index_ = kMaxClients;
  generation_ = 0;
  active_word_ = 0;
}

void DaemonClient::disconnect() {
  if (!connected()) return;
  // Only our exact incarnation may be flipped to kLeaving; if the word
  // moved on (eviction, daemon restart) the CAS fails harmlessly.
  std::uint64_t expected = active_word_;
  if (registry_->slot(slot_index_).try_transition(expected, SlotState::kLeaving)) {
    raise_attention(registry_->header(), slot_index_);
  }
  drop_connection();
}

bool DaemonClient::reconnect(std::string* error) {
  disconnect();
  return connect(error);
}

}  // namespace numashare::nsd
