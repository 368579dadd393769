// The runtime-side end of the agent link.
//
// RuntimeAdapter is the runtime's endpoint of one agent::ShmChannel
// (shm_channel.hpp): it applies arriving commands to the Runtime's control
// surface and publishes periodic telemetry snapshots, either pumped manually
// (tests) or from a background thread (examples, benches). The channel is a
// named segment when the agent is another process (the daemon) and a private
// mapping when it shares this one; the adapter cannot tell them apart.
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
  /// Returns the number of commands applied.
  std::uint32_t pump();

  /// Start/stop a background pump at the given period.
  void start(std::int64_t period_us = 1000);
  void stop();

  std::uint64_t commands_applied() const {
    return commands_applied_.load(std::memory_order_relaxed);
  }
  std::uint64_t last_command_seq() const {
    return last_seq_.load(std::memory_order_relaxed);
  }

  /// Compliance ack state: the newest command epoch whose thread target the
  /// runtime has fully enacted (surplus threads actually blocked), and that
  /// target (kUnconstrained = no active constraint). Published in telemetry.
  std::uint64_t enacted_epoch() const { return enacted_epoch_pub_.load(std::memory_order_relaxed); }
  std::uint32_t enacted_target() const {
    return enacted_target_pub_.load(std::memory_order_relaxed);
  }

  void set_ai_estimate(double ai) { ai_estimate_.store(ai, std::memory_order_relaxed); }

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

  /// Derive the advertised data home from the datablock registry's per-node
  /// residency each pump (model::dominant_residency) instead of a static
  /// declaration — §III.A's access-pattern detection applied to placement.
  /// An app that calls set_data_home() later overrides the derivation until
  /// re-enabled.
  void enable_auto_data_home(double min_fraction = 0.5) {
    auto_home_min_fraction_ = min_fraction;
    auto_data_home_.store(true, std::memory_order_relaxed);
  }
  void disable_auto_data_home() { auto_data_home_.store(false, std::memory_order_relaxed); }

  /// Reallocation-tick migration (on by default): when a kSetNodeThreads
  /// command *changes* the per-node targets, nudge the hottest datablocks
  /// toward the new placement (Runtime::migrate_datablocks_toward, bounded
  /// by RuntimeOptions::migration_budget_bytes). Off = threads move, data
  /// stays — the paper's baseline behaviour.
  void set_migrate_on_realloc(bool enabled) {
    migrate_on_realloc_.store(enabled, std::memory_order_relaxed);
  }
  bool migrate_on_realloc() const {
    return migrate_on_realloc_.load(std::memory_order_relaxed);
  }

 private:
  void apply(const Command& command);

  rt::Runtime& runtime_;
  ShmChannel& channel_;
  std::atomic<double> ai_estimate_;
  /// Auto-derivation state (pump-thread only).
  bool auto_ai_ = false;
  double prev_gflop_ = 0.0;
  double prev_gbytes_ = 0.0;
  Ewma ai_ewma_{0.3};
  std::atomic<std::uint32_t> data_home_node_;
  std::function<void(topo::NodeId)> home_handler_;
  std::atomic<bool> auto_data_home_{false};
  double auto_home_min_fraction_ = 0.5;
  std::atomic<bool> migrate_on_realloc_{true};
  /// Last per-node targets applied (pump-thread only); migration fires only
  /// when a kSetNodeThreads command actually *changes* them, so a policy
  /// that re-asserts the same allocation every tick never churns data.
  std::vector<std::uint32_t> last_node_targets_;
  std::atomic<std::uint64_t> commands_applied_{0};
  std::atomic<std::uint64_t> last_seq_{0};
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
