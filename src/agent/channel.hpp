// The runtime-side end of the agent link.
//
// RuntimeAdapter is the runtime's endpoint of one agent::ShmChannel
// (shm_channel.hpp): it applies arriving commands to the Runtime's control
// surface and publishes periodic telemetry snapshots, either pumped by the
// caller (daemon_app, the benches, tests) or from its own background thread.
// The channel is a named segment when the agent is another process (the
// daemon) and a private mapping when it shares this one; the adapter cannot
// tell them apart.
//
// The adapter has no switches of its own. It advertises what the
// constructor declares (or the AI it derives), the data home the app sets,
// and the runtime's own counters; whether data follows a reallocation is
// the runtime's call (RuntimeOptions::migration_budget_bytes, 0 = never).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "agent/protocol.hpp"
#include "agent/shm_channel.hpp"
#include "common/stats.hpp"
#include "runtime/runtime.hpp"

namespace numashare::agent {

class RuntimeAdapter {
 public:
  /// `app_ai` / `data_home` seed the optional self-description fields in
  /// telemetry. An app that knows its arithmetic intensity passes it; with
  /// app_ai = 0 the adapter *derives* the AI from the runtime's
  /// report_work() counters (EWMA of delta-GFLOP / delta-GB per pump) —
  /// §III.A's access-pattern detection.
  RuntimeAdapter(rt::Runtime& runtime, ShmChannel& channel, double app_ai = 0.0,
                 std::uint32_t data_home_node = kMaxNodes);
  ~RuntimeAdapter();

  RuntimeAdapter(const RuntimeAdapter&) = delete;
  RuntimeAdapter& operator=(const RuntimeAdapter&) = delete;

  /// Apply all pending commands and publish one telemetry sample.
  /// Returns the number of commands applied. The adapter is the channel's
  /// only command consumer: it drops (and counts in stale_commands()) a
  /// command from an older daemon incarnation than the newest it has seen.
  /// A command that does not fit this runtime (a kSetNodeThreads for
  /// another node count) is dropped and logged, not applied: it arrived
  /// from another process, so it must not abort this one. Its epoch then
  /// stays unacked and the sender's compliance watchdog deals with it.
  std::uint32_t pump();

  /// Start/stop a background pump at the given period.
  void start(std::int64_t period_us = 1000);
  void stop();

  /// Compliance ack state: the newest command epoch whose thread target the
  /// runtime has fully enacted (surplus threads actually blocked), and that
  /// target (kUnconstrained = no active constraint). Published in telemetry.
  std::uint64_t enacted_epoch() const { return enacted_epoch_pub_.load(std::memory_order_relaxed); }
  std::uint32_t enacted_target() const {
    return enacted_target_pub_.load(std::memory_order_relaxed);
  }

  /// Commands the generation fence dropped.
  std::uint64_t stale_commands() const {
    return stale_commands_.load(std::memory_order_relaxed);
  }
  /// Per-node threads the agent last granted (empty = unconstrained): a
  /// kSetNodeThreads' targets, a kSetTotalThreads total spread round-robin
  /// (capped per node), cleared by kClearControls. The degraded-mode clamp
  /// FailoverClient::poll() takes; read it from the pumping thread.
  const std::vector<std::uint32_t>& last_grant() const { return last_grant_; }

  /// Application hook for kSuggestDataHome: the app decides whether to
  /// migrate (e.g. Datablock::move_to at a phase boundary) and then calls
  /// set_data_home() so subsequent telemetry advertises the new placement.
  /// Invoked from the pump thread.
  void set_data_home_handler(std::function<void(topo::NodeId)> handler) {
    home_handler_ = std::move(handler);
  }
  void set_data_home(std::uint32_t node) {
    data_home_node_.store(node, std::memory_order_relaxed);
  }
  std::uint32_t data_home() const { return data_home_node_.load(std::memory_order_relaxed); }

 private:
  /// False when the command was dropped as malformed (see pump()).
  bool apply(const Command& command);

  rt::Runtime& runtime_;
  ShmChannel& channel_;
  /// Advertised AI: the declared app_ai, or the derived estimate when
  /// app_ai was 0 (pump-thread only, like the derivation state below).
  double ai_estimate_;
  bool auto_ai_ = false;
  double prev_gflop_ = 0.0;
  double prev_gbytes_ = 0.0;
  Ewma ai_ewma_{0.3};
  std::atomic<std::uint32_t> data_home_node_;
  std::function<void(topo::NodeId)> home_handler_;
  /// Last per-node targets applied (pump-thread only). A kSetNodeThreads
  /// command that *changes* them nudges the hottest datablocks toward the
  /// new placement (Runtime::migrate_datablocks_toward, bounded by
  /// RuntimeOptions::migration_budget_bytes; a budget of 0 turns it off), so
  /// a policy that re-asserts the same allocation every tick never churns
  /// data.
  std::vector<std::uint32_t> last_node_targets_;
  /// See last_grant(). Kept apart from last_node_targets_ so a total-thread
  /// grant never moves the migration gate.
  std::vector<std::uint32_t> last_grant_;
  /// Newest Command::arbiter_generation seen (pump-thread only).
  std::uint64_t known_generation_ = 0;
  std::atomic<std::uint64_t> stale_commands_{0};
  /// Enactment tracking (pump-thread only): the newest thread-target epoch
  /// applied to the runtime and its total-thread target. The epoch is
  /// "enacted" once the runtime's running thread count is at or under the
  /// target — growth enacts immediately, a shrink only once the surplus
  /// workers have genuinely parked.
  std::uint64_t pending_epoch_ = 0;
  std::uint32_t pending_target_ = kUnconstrained;
  /// Issue stamp of the pending epoch (Command::issued_ns, or our receipt
  /// time when the sender did not stamp); consumed into the runtime's
  /// enactment-lag histogram when the epoch is promoted to enacted.
  std::uint64_t pending_issue_ns_ = 0;
  std::uint64_t enacted_epoch_ = 0;
  std::uint32_t enacted_target_ = kUnconstrained;
  /// Mirrors of the enacted pair for cross-thread accessors.
  std::atomic<std::uint64_t> enacted_epoch_pub_{0};
  std::atomic<std::uint32_t> enacted_target_pub_{kUnconstrained};
  std::uint64_t telemetry_seq_ = 0;
  std::atomic<bool> running_{false};
  std::thread pump_thread_;
};

}  // namespace numashare::agent
