#include "agent/channel.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/threading.hpp"
#include "obs/histogram.hpp"

namespace numashare::agent {

RuntimeAdapter::RuntimeAdapter(rt::Runtime& runtime, ShmChannel& channel, double app_ai,
                               std::uint32_t data_home_node)
    : runtime_(runtime), channel_(channel), ai_estimate_(app_ai),
      auto_ai_(app_ai <= 0.0), data_home_node_(data_home_node) {
  NS_REQUIRE(runtime_.machine().node_count() <= kMaxNodes,
             "machine exceeds protocol node capacity");
}

RuntimeAdapter::~RuntimeAdapter() { stop(); }

namespace {

/// A node-blind thread total spread round-robin over the nodes, at most
/// each node's cores (the rest of an oversized total is dropped).
std::vector<std::uint32_t> spread_total(const topo::Machine& machine, std::uint32_t total) {
  std::vector<std::uint32_t> per_node(machine.node_count(), 0);
  total = std::min(total, machine.core_count());
  for (topo::NodeId n = 0; total > 0; n = (n + 1) % machine.node_count()) {
    if (per_node[n] < machine.cores_in_node(n)) {
      ++per_node[n];
      --total;
    }
  }
  return per_node;
}

}  // namespace

bool RuntimeAdapter::apply(const Command& command) {
  const std::uint32_t nodes = runtime_.machine().node_count();
  if (command.type == CommandType::kSetNodeThreads && command.node_count != nodes) {
    // Dropped before it records a pending epoch: the epoch stays unacked.
    NS_LOG_WARN("adapter", "dropping command seq {} epoch {}: {} node targets for {} nodes",
                command.seq, command.epoch, command.node_count, nodes);
    return false;
  }
  // Record the compliance target before touching the runtime, keyed on the
  // epoch so a reordered (delayed/duplicated) older command never regresses
  // the pending ack. kUnconstrained means "no running-thread ceiling".
  if (command.epoch > pending_epoch_) {
    std::uint32_t target = kUnconstrained;
    switch (command.type) {
      case CommandType::kSetTotalThreads:
        target = command.total_threads;
        break;
      case CommandType::kSetNodeThreads: {
        target = 0;
        for (std::uint32_t n = 0; n < nodes; ++n) target += command.node_threads[n];
        break;
      }
      default:  // kClearControls lifts the ceiling
        break;
    }
    pending_epoch_ = command.epoch;
    pending_target_ = target;
    pending_issue_ns_ = command.issued_ns != 0 ? command.issued_ns : obs::now_ns();
  }
  switch (command.type) {
    case CommandType::kSetTotalThreads:
      runtime_.set_total_thread_target(command.total_threads);
      last_grant_ = spread_total(runtime_.machine(), command.total_threads);
      break;
    case CommandType::kSetNodeThreads: {
      std::vector<std::uint32_t> targets(command.node_threads, command.node_threads + nodes);
      runtime_.set_node_thread_targets(targets);
      // Reallocation tick: the agent moved this app's compute; chase it with
      // the hottest datablocks, but only when the placement actually changed
      // (a re-asserted identical allocation must not churn data).
      if (targets != last_node_targets_) runtime_.migrate_datablocks_toward(targets);
      last_grant_.assign(targets.begin(), targets.end());
      last_node_targets_ = std::move(targets);
      break;
    }
    case CommandType::kClearControls:
      runtime_.clear_thread_controls();
      last_grant_.clear();
      break;
    case CommandType::kSuggestDataHome:
      // Advisory only: the app's handler decides. No handler = ignored.
      if (home_handler_ && command.suggested_home < nodes) home_handler_(command.suggested_home);
      break;
  }
  return true;
}

std::uint32_t RuntimeAdapter::pump() {
  std::uint32_t applied = 0;
  while (auto command = channel_.pop_command()) {
    if (command_is_stale(*command, known_generation_)) {
      stale_commands_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    known_generation_ = std::max(known_generation_, command->arbiter_generation);
    if (apply(*command)) ++applied;
  }

  const auto stats = runtime_.stats();
  // Promote the pending epoch to enacted once the runtime has genuinely
  // complied: growth and clears count immediately, a shrink only when the
  // surplus workers have actually parked (running at or under the target).
  if (pending_epoch_ > enacted_epoch_ &&
      (pending_target_ == kUnconstrained || stats.running_threads <= pending_target_)) {
    enacted_epoch_ = pending_epoch_;
    enacted_target_ = pending_target_;
    enacted_epoch_pub_.store(enacted_epoch_, std::memory_order_relaxed);
    enacted_target_pub_.store(enacted_target_, std::memory_order_relaxed);
    // The epoch's full issue -> enactment-ack interval, daemon clock to
    // here: the command-enactment-lag histogram the bench gates on.
    if (pending_issue_ns_ != 0) {
      const std::uint64_t now = obs::now_ns();
      runtime_.record_enactment_lag(now > pending_issue_ns_ ? now - pending_issue_ns_
                                                            : 0);
      pending_issue_ns_ = 0;
    }
  }
  if (auto_ai_) {
    // Derive the arithmetic intensity from the application's accounted
    // work/traffic since the previous pump, smoothed; capped so a
    // traffic-free (pure compute) app reads as "very compute-bound" rather
    // than infinite.
    const double delta_gflop = stats.gflop_done - prev_gflop_;
    const double delta_gbytes = stats.gbytes_moved - prev_gbytes_;
    prev_gflop_ = stats.gflop_done;
    prev_gbytes_ = stats.gbytes_moved;
    if (delta_gflop > 0.0) {
      constexpr double kAiCap = 1024.0;
      const double ai =
          delta_gbytes > 1e-12 ? std::min(delta_gflop / delta_gbytes, kAiCap) : kAiCap;
      ai_ewma_.add(ai);
      ai_estimate_ = ai_ewma_.value();
    }
  }
  Telemetry t;
  t.seq = ++telemetry_seq_;
  t.timestamp = monotonic_seconds();
  t.tasks_executed = stats.tasks_executed;
  t.tasks_spawned = stats.tasks_spawned;
  t.progress = stats.progress;
  t.total_workers = stats.total_workers;
  t.running_threads = stats.running_threads;
  t.blocked_threads = stats.blocked_threads;
  t.node_count = runtime_.machine().node_count();
  for (std::uint32_t n = 0; n < t.node_count; ++n) {
    t.running_per_node[n] = stats.running_per_node[n];
  }
  t.ready_queue_depth = stats.ready_queue_depth;
  t.outstanding_tasks = stats.outstanding_tasks;
  t.gflop_done = stats.gflop_done;
  t.gbytes_moved = stats.gbytes_moved;
  t.ai_estimate = ai_estimate_;
  t.data_home_node = data_home_node_.load(std::memory_order_relaxed);
  t.enacted_epoch = enacted_epoch_;
  t.enacted_target = enacted_target_;
  t.stalled_workers = stats.stalled_workers;
  t.blocks_migrated = stats.blocks_migrated;
  t.bytes_migrated = stats.bytes_migrated;
  // Telemetry is lossy by design: a full ring means the agent is behind and
  // stale samples are better dropped than blocking the runtime.
  channel_.push_telemetry(t);
  return applied;
}

void RuntimeAdapter::start(std::int64_t period_us) {
  NS_REQUIRE(!running_.load(), "adapter already running");
  running_.store(true);
  pump_thread_ = std::thread([this, period_us] {
    set_current_thread_name("ns-adapter");
    while (running_.load(std::memory_order_acquire)) {
      pump();
      std::this_thread::sleep_for(std::chrono::microseconds(period_us));
    }
  });
}

void RuntimeAdapter::stop() {
  if (!running_.exchange(false)) return;
  if (pump_thread_.joinable()) pump_thread_.join();
}

}  // namespace numashare::agent
