// Runtime telemetry counters.
//
// These are the numbers the paper's Figure 1 shows flowing from each runtime
// to the agent ("number of tasks executed, number of running threads,
// etc."). Counters are relaxed atomics: the agent consumes snapshots, never
// exact cross-counter consistency.
//
// The counters are *sharded*: each worker owns a cache-line-aligned block of
// counters and increments only its own, so high-rate events (task retirement,
// steals, app-reported work) never bounce a shared line across sockets —
// Chasparis et al.'s requirement that dynamic pinning decisions ride on
// *cheap* high-rate measurements. One extra shard absorbs increments from
// threads the runtime does not own (external submitters).
// Aggregation happens lazily, on the telemetry consumer's clock, in
// Runtime::stats() — the only snapshot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace numashare::rt {

/// One worker's private counter block. alignas keeps neighbouring shards on
/// distinct cache lines; all increments are relaxed and owner-local.
struct alignas(64) MetricsShard {
  std::atomic<std::uint64_t> tasks_spawned{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> steals{0};
  /// Locality split of `steals`: victim on the thief's node vs a remote one.
  std::atomic<std::uint64_t> local_steals{0};
  std::atomic<std::uint64_t> remote_steals{0};
  /// Datablock bytes resident on another node than the acquiring worker at
  /// cross-node acquisition time (steal or foreign injection pop) — the
  /// traffic the locality-aware policy exists to avoid.
  std::atomic<std::uint64_t> bytes_pulled_remote{0};
  /// Cross-node acquisitions bounced home by the poach threshold.
  std::atomic<std::uint64_t> steal_vetoes{0};
  /// Reallocation-tick datablock migration activity (Runtime::
  /// migrate_datablocks_toward).
  std::atomic<std::uint64_t> blocks_migrated{0};
  std::atomic<std::uint64_t> bytes_migrated{0};
  std::atomic<std::uint64_t> failed_steal_rounds{0};
  std::atomic<std::uint64_t> idle_parks{0};
  std::atomic<std::uint64_t> blocks{0};    // policy-driven thread blocks
  std::atomic<std::uint64_t> unblocks{0};
  /// Application-reported progress (e.g. iterations completed); the unit is
  /// up to the application, the agent only compares rates.
  std::atomic<std::uint64_t> progress{0};
  /// Application-reported work and memory traffic, in micro-GFLOP /
  /// micro-GB (fixed-point so the counters stay lock-free). Ratio = the
  /// app's *measured* arithmetic intensity — §III.A's "figure out the
  /// access patterns" without the app having to know its own roofline.
  std::atomic<std::uint64_t> micro_gflop{0};
  std::atomic<std::uint64_t> micro_gbytes{0};
};

/// Point-in-time copy handed to the agent. Field-for-field identical to what
/// the pre-sharding Metrics produced: the agent/daemon telemetry path keys
/// on these names and widths.
struct MetricsSnapshot {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  std::uint64_t bytes_pulled_remote = 0;
  std::uint64_t steal_vetoes = 0;
  std::uint64_t blocks_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t failed_steal_rounds = 0;
  std::uint64_t idle_parks = 0;
  std::uint64_t blocks = 0;
  std::uint64_t unblocks = 0;
  std::uint64_t progress = 0;
  double gflop_done = 0.0;
  double gbytes_moved = 0.0;
  std::uint32_t total_workers = 0;
  std::uint32_t running_threads = 0;  // not policy-blocked
  std::uint32_t blocked_threads = 0;
  std::vector<std::uint32_t> running_per_node;
  std::uint64_t outstanding_tasks = 0;
  std::uint64_t ready_queue_depth = 0;  // approximate
  /// Commanded-online workers the scheduler-latency watchdog currently sees
  /// as silent past the deadline (obs::Watchdog); 0 when the watchdog is off.
  std::uint32_t stalled_workers = 0;
};

class Metrics {
 public:
  /// `shard_count` = worker count + 1; the last shard belongs to threads the
  /// runtime does not own.
  explicit Metrics(std::uint32_t shard_count) : shards_(shard_count) {}

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  MetricsShard& shard(std::uint32_t index) { return shards_[index]; }
  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }
  std::uint32_t external_shard() const { return shard_count() - 1; }

  /// Sum every shard into the snapshot's counter fields. Relaxed loads: the
  /// result is a consistent-enough sample, same contract as before sharding.
  void aggregate_into(MetricsSnapshot& s) const {
    std::uint64_t micro_gflop = 0;
    std::uint64_t micro_gbytes = 0;
    for (const MetricsShard& m : shards_) {
      s.tasks_spawned += m.tasks_spawned.load(std::memory_order_relaxed);
      s.tasks_executed += m.tasks_executed.load(std::memory_order_relaxed);
      s.steals += m.steals.load(std::memory_order_relaxed);
      s.local_steals += m.local_steals.load(std::memory_order_relaxed);
      s.remote_steals += m.remote_steals.load(std::memory_order_relaxed);
      s.bytes_pulled_remote += m.bytes_pulled_remote.load(std::memory_order_relaxed);
      s.steal_vetoes += m.steal_vetoes.load(std::memory_order_relaxed);
      s.blocks_migrated += m.blocks_migrated.load(std::memory_order_relaxed);
      s.bytes_migrated += m.bytes_migrated.load(std::memory_order_relaxed);
      s.failed_steal_rounds += m.failed_steal_rounds.load(std::memory_order_relaxed);
      s.idle_parks += m.idle_parks.load(std::memory_order_relaxed);
      s.blocks += m.blocks.load(std::memory_order_relaxed);
      s.unblocks += m.unblocks.load(std::memory_order_relaxed);
      s.progress += m.progress.load(std::memory_order_relaxed);
      micro_gflop += m.micro_gflop.load(std::memory_order_relaxed);
      micro_gbytes += m.micro_gbytes.load(std::memory_order_relaxed);
    }
    s.gflop_done = static_cast<double>(micro_gflop) * 1e-6;
    s.gbytes_moved = static_cast<double>(micro_gbytes) * 1e-6;
  }

 private:
  std::vector<MetricsShard> shards_;
};

}  // namespace numashare::rt
