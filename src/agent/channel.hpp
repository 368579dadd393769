// Transport between the agent and one runtime, plus the runtime-side pump.
//
// A Channel is a pair of ShmRings (commands in, telemetry out) — the
// in-process stand-in for the shared-memory link a separate agent process
// uses (agent::ShmChannel puts the very same ring pair in a POSIX shm
// segment). RuntimeAdapter is the runtime-side endpoint: it applies
// arriving commands to the Runtime's control surface and publishes periodic
// telemetry snapshots, either pumped manually (tests) or from a background
// thread (examples, benches).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>

#include "agent/protocol.hpp"
#include "common/stats.hpp"
#include "runtime/runtime.hpp"

namespace numashare::agent {

/// Fixed-capacity POD SPSC ring suitable for shared memory: no pointers, no
/// heap, only address-free atomics and trivially-copyable slots.
template <typename T, std::size_t N>
class ShmRing {
  static_assert((N & (N - 1)) == 0 && N >= 2, "capacity must be a power of two");
  static_assert(std::is_trivially_copyable_v<T>, "slots must be trivially copyable");

 public:
  void init() {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  bool try_push(const T& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= N) return false;
    slots_[head & (N - 1)] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    T value = slots_[tail & (N - 1)];
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  std::uint64_t size() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }
  static constexpr std::size_t capacity() { return N; }

  /// Consumer-side batch drain in O(1): copy the NEWEST committed slot into
  /// `out` and advance the cursor past everything queued, returning how many
  /// entries were consumed (0 = empty, `out` untouched). Safe against a
  /// concurrent producer: slot head-1 is committed (its release store of
  /// head happens-before our acquire load), and the producer cannot reuse
  /// that cell until position head-1+N becomes writable, which needs the
  /// tail — which only we advance — to move past head-1 first.
  std::uint64_t drain_to_newest(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return 0;
    out = slots_[(head - 1) & (N - 1)];
    tail_.store(head, std::memory_order_release);
    return head - tail;
  }

 private:
  alignas(64) std::atomic<std::uint64_t> head_;
  alignas(64) std::atomic<std::uint64_t> tail_;
  T slots_[N];
};

/// Transport abstraction: the agent pushes commands / pops telemetry, the
/// runtime adapter does the reverse. Two implementations: the in-process
/// Channel below and agent::ShmChannel (shm_channel.hpp), which carries the
/// same POD messages through a POSIX shared-memory segment between real
/// processes — the paper's actual deployment shape.
class ChannelBase {
 public:
  virtual ~ChannelBase() = default;
  // Agent side.
  virtual bool push_command(const Command& command) = 0;
  virtual std::optional<Telemetry> pop_telemetry() = 0;
  // Runtime side.
  virtual std::optional<Command> pop_command() = 0;
  virtual bool push_telemetry(const Telemetry& telemetry) = 0;
  /// Agent-side batched ingest: consume every queued telemetry sample,
  /// leaving the newest in `out` and returning how many were consumed
  /// (0 = nothing queued, `out` untouched). The agent only needs the newest
  /// sample per tick — rates come from deltas against its own previous
  /// newest — so transports skip the intermediate copies with an O(1)
  /// cursor advance (ShmRing::drain_to_newest).
  virtual std::uint64_t drain_newest(Telemetry& out) = 0;
  // Drop accounting: cumulative try_push failures on full rings, visible
  // from both ends so the agent can tell "quiet app" from "losing samples".
  virtual std::uint64_t commands_dropped() const { return 0; }
  virtual std::uint64_t telemetry_dropped() const { return 0; }
};

struct Channel final : ChannelBase {
  ShmRing<Command, 64> commands;      // agent -> runtime
  ShmRing<Telemetry, 256> telemetry;  // runtime -> agent

  Channel() {
    commands.init();
    telemetry.init();
  }

  bool push_command(const Command& command) override {
    if (commands.try_push(command)) return true;
    commands_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::optional<Command> pop_command() override { return commands.try_pop(); }
  bool push_telemetry(const Telemetry& t) override {
    if (telemetry.try_push(t)) return true;
    telemetry_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::optional<Telemetry> pop_telemetry() override { return telemetry.try_pop(); }
  std::uint64_t drain_newest(Telemetry& out) override {
    return telemetry.drain_to_newest(out);
  }
  std::uint64_t commands_dropped() const override {
    return commands_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t telemetry_dropped() const override {
    return telemetry_dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> commands_dropped_{0};
  std::atomic<std::uint64_t> telemetry_dropped_{0};
};

class RuntimeAdapter {
 public:
  /// `app_ai` / `data_home` seed the optional self-description fields in
  /// telemetry. An app that knows its arithmetic intensity passes it; with
  /// app_ai = 0 the adapter *derives* the AI from the runtime's
  /// report_work() counters (EWMA of delta-GFLOP / delta-GB per pump) —
  /// §III.A's access-pattern detection.
  RuntimeAdapter(rt::Runtime& runtime, ChannelBase& channel, double app_ai = 0.0,
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
  ChannelBase& channel_;
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
