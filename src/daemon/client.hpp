// Client-side connector: how an application joins a running ns_daemon.
//
// A DaemonClient hides the whole registry dance — open the registry, claim
// a slot, publish identity, wait for the daemon to mint a ShmChannel, and
// attach to it. connect() retries each stage with bounded exponential
// backoff, so an app started moments before the daemon (or across a daemon
// restart) still gets in. While connected, the app's duties are: pump its
// RuntimeAdapter on the channel and heartbeat(), both from its progress
// loop.
//
// Eviction and daemon restart are visible through check_connection():
// the slot no longer carries our PID/generation (the daemon recycled it)
// or the registry vanished. reconnect() then re-runs the join dance.
// Applications drive all of this through FailoverClient (failover.hpp),
// which wraps this client and also survives the daemon's death.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

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

  /// Bounded backoff with decorrelated jitter for connect()/reconnect():
  /// sleep initial_backoff_us, then after each failed attempt a uniform draw
  /// from [initial, 3 * previous_sleep] clamped at max_backoff_us; give up
  /// after max_attempts attempts. A restarted daemon then sees the
  /// survivors' re-join CAS attempts spread out instead of a thundering herd
  /// hitting the fresh registry in lockstep.
  std::uint32_t max_attempts = 12;
  std::int64_t initial_backoff_us = 2'000;
  std::int64_t max_backoff_us = 500'000;
  /// Jitter RNG seed; 0 derives one from pid + monotonic clock.
  std::uint64_t backoff_seed = 0;
  /// Keep the slot, registry, and channel mappings when the daemon dies
  /// while the slot word is still ours (nobody evicted us — the arbiter is
  /// simply gone). check_connection() then keeps returning true with
  /// daemon_lost() raised, which is what degraded mode (FailoverClient)
  /// runs on. Off = the classic behavior: daemon death drops the
  /// connection immediately.
  bool hold_slot_on_daemon_loss = false;
  /// How long one attempt waits for the daemon to activate a claimed slot.
  double activation_timeout_s = 2.0;
};

class DaemonClient {
 public:
  explicit DaemonClient(std::string app_name, ClientConnectOptions options = {});
  /// Leaves gracefully (kLeaving) when still connected.
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Join the daemon: registry open + slot claim + activation wait +
  /// channel attach, with bounded exponential backoff across attempts.
  bool connect(std::string* error = nullptr);

  /// True after a successful connect() and before disconnect()/eviction.
  /// Safe to poll from any thread while connect() runs on another.
  bool connected() const { return connected_.load(std::memory_order_acquire); }

  /// Bump the registry heartbeat (call from the app's progress loop).
  void heartbeat();

  /// Still the owner of our slot? False after eviction, slot recycling, or
  /// daemon restart. Cheap; safe to call every pump. With
  /// hold_slot_on_daemon_loss, daemon death keeps this true (the slot is
  /// still ours) and raises daemon_lost() instead.
  bool check_connection();

  /// The daemon died while we held our slot (only ever true under
  /// hold_slot_on_daemon_loss). Cleared by a successful (re)connect.
  bool daemon_lost() const { return daemon_lost_.load(std::memory_order_acquire); }

  /// The mapped registry segment (null before connect()). In degraded mode
  /// this is the *orphaned* segment every survivor still maps — the
  /// proposal bus for consensus arbitration.
  Registry* registry() { return registry_.get(); }
  const Registry* registry() const { return registry_.get(); }

  /// Graceful goodbye: publish kLeaving and drop the channel.
  void disconnect();

  /// Tear down whatever connection state remains and connect() again.
  bool reconnect(std::string* error = nullptr);

  /// The app side of the pair's channel (attach RuntimeAdapter here).
  /// Null before connect().
  agent::ShmChannel* channel() { return channel_.get(); }

  /// The arbitrated machine's node layout, as published in the registry —
  /// build the local runtime over this shape so the daemon's per-node
  /// thread commands line up with the runtime's pools. Speeds are
  /// placeholders (the client side never evaluates the model). Requires a
  /// live connection.
  topo::Machine arbitration_machine() const;

  const ClientConnectOptions& options() const { return options_; }
  std::uint32_t slot_index() const { return slot_index_; }
  /// Agent generation at our activation (identifies this incarnation).
  std::uint64_t generation() const { return generation_; }
  std::uint32_t connect_attempts() const { return connect_attempts_; }

 private:
  bool try_join_once(std::string* error);
  void drop_connection();

  std::string app_name_;
  ClientConnectOptions options_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<agent::ShmChannel> channel_;
  std::uint32_t slot_index_ = kMaxClients;
  std::uint64_t generation_ = 0;
  /// The slot's exact {kActive, nonce} word for our incarnation. Ownership
  /// test is a single word compare — no torn pid/generation reads.
  std::uint64_t active_word_ = 0;
  std::atomic<bool> connected_{false};
  std::atomic<bool> daemon_lost_{false};
  std::uint32_t connect_attempts_ = 0;
};

}  // namespace numashare::nsd
