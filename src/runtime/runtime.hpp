// The task-based runtime — an OCR-Vx-style engine built for dynamic CPU core
// allocation (paper §II).
//
// One worker thread per core of the (possibly virtual) machine description.
// Work distribution is NUMA-aware work stealing: each worker owns a
// Chase-Lev deque, each node owns an injection queue for affinity-hinted and
// external submissions, and steal victims are tried same-node first.
//
// The paper's three thread-blocking options are first-class controls:
//
//  * Option 1 — set_total_thread_target(k): workers block on *inactivity*
//    (at a task boundary or while idle) whenever more than k are running;
//    nothing preempts a running task. Raising the target unblocks randomly
//    chosen workers immediately.
//  * Option 2 — set_blocked_cores(set): the worker bound to each named core
//    parks as soon as its current task finishes (or at once if idle).
//  * Option 3 — set_node_thread_targets(counts): option 1 applied per NUMA
//    node, with workers bound to node-wide cpusets rather than single cores.
//
// All controls may be driven externally (the agent) while tasks are running.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mpmc_ring.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "obs/histogram.hpp"
#include "obs/watchdog.hpp"
#include "runtime/datablock.hpp"
#include "runtime/event.hpp"
#include "runtime/foreign.hpp"
#include "runtime/metrics.hpp"
#include "runtime/task.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/wsdeque.hpp"
#include "topology/affinity.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace numashare::rt {

/// How worker threads are pinned (paper §II option descriptions).
enum class BindMode {
  kNone,     // unbound; the OS places threads
  kPerCore,  // one worker hard-bound per core (option 2 style)
  kPerNode,  // workers bound to their node's cpuset (option 3 style)
};

/// Which blocking control is active.
enum class ControlMode : std::uint8_t {
  kNone,        // all workers run
  kTotalCount,  // option 1
  kCoreSet,     // option 2
  kPerNode,     // option 3
};

struct RuntimeOptions {
  std::string name = "app";
  BindMode bind_mode = BindMode::kNone;
  /// A worker only pulls work homed on *other* NUMA nodes after this many
  /// consecutive empty-handed rounds — locality hints stay sticky while the
  /// home node has runnable workers, yet starvation is impossible (blocked
  /// or overloaded nodes get helped within a few idle periods).
  std::uint32_t cross_node_reluctance = 2;
  /// Optional execution tracer (non-owning; must outlive the runtime).
  /// Records one span per task execution and per blocking episode, plus
  /// instants for control changes — lanes are worker ids.
  trace::Tracer* tracer = nullptr;
  /// Always-on latency histograms (handoff/steal/wake/enactment-lag); the
  /// record paths are wait-free and allocation-free, overhead is bounded by
  /// sampling (below) and gated in bench_spawn at < 2%.
  bool latency_histograms = true;
  /// Handoff latency samples one in 2^latency_sample_shift ready tasks (per
  /// submitting thread); steal/wake/enactment are rare enough to record
  /// unsampled. 0 stamps every task (tests).
  std::uint32_t latency_sample_shift = 6;
  /// Scheduler-latency watchdog deadline: a commanded-online worker whose
  /// heartbeat is silent this long is reported stalled (the OS isn't
  /// scheduling it). 0 (default) = watchdog off.
  std::int64_t watchdog_deadline_us = 0;
  /// Locality-aware stealing (docs/MEMORY.md): rank cross-node victims by
  /// the remote-datablock pull penalty and bounce footprint-heavy tasks back
  /// home once (poach threshold). Off = the locality-blind baseline the
  /// memory bench compares against.
  bool locality_aware_stealing = true;
  /// A cross-node thief bounces a task home (once) when at least this many
  /// of its datablock bytes are resident on another node — a task with
  /// 100 MB on node 0 must not move to node 3 for a microsecond queue win.
  /// 0 disables the veto.
  std::uint64_t poach_threshold_bytes = std::uint64_t{4} << 20;
  /// Per-reallocation-tick byte budget for datablock migration
  /// (migrate_datablocks_toward); bounds churn. 0 disables migration.
  std::uint64_t migration_budget_bytes = std::uint64_t{32} << 20;
  /// Physical placement backend for datablock arenas (non-owning; must
  /// outlive the runtime). Null = the process-wide SystemBackend.
  MemoryBackend* memory_backend = nullptr;
};

class Runtime {
 public:
  Runtime(topo::Machine machine, RuntimeOptions options = {});
  /// Stops workers after their current task; undrained tasks are reclaimed.
  /// Call wait_idle() first for graceful completion.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const topo::Machine& machine() const { return machine_; }
  const std::string& name() const { return options_.name; }
  std::uint32_t worker_count() const { return static_cast<std::uint32_t>(workers_.size()); }

  // --- task graph API -------------------------------------------------
  /// Create a task depending on `deps`; runs when all fire. Returns the
  /// task's completion event. `affinity` hints the execution node.
  EventPtr spawn(TaskFn fn, const std::vector<EventPtr>& deps = {},
                 topo::NodeId affinity = kAnyNode);

  /// Declared datablock access for spawn_with_data.
  struct DataAccess {
    DatablockPtr db;
    enum class Mode : std::uint8_t { kRead, kWrite } mode = Mode::kRead;
    static DataAccess read(DatablockPtr block) {
      return {std::move(block), Mode::kRead};
    }
    static DataAccess write(DatablockPtr block) {
      return {std::move(block), Mode::kWrite};
    }
  };

  /// OCR-style data-driven spawn: dependencies are *derived* from the
  /// declared accesses — a reader waits for the block's last writer;
  /// a writer additionally waits for every reader since (anti-dependency).
  /// Reads of the same block run concurrently. Unless `affinity` is given,
  /// the task is hinted to the first written (else first read) block's node.
  /// Extra event dependencies compose via `deps`.
  EventPtr spawn_with_data(TaskFn fn, const std::vector<DataAccess>& accesses,
                           const std::vector<EventPtr>& deps = {},
                           topo::NodeId affinity = kAnyNode);

  /// A latch firing after `count` count_down() calls.
  LatchEventPtr create_latch(std::uint32_t count);

  /// Block the external caller until every created task has finished.
  /// Only workers execute tasks: an external thread waits here or on the
  /// event it needs (Event::wait). A user-controlled once event (OCR "once
  /// event") is a plain std::make_shared<Event>().
  void wait_idle();

  // --- data API ---------------------------------------------------------
  DatablockPtr create_datablock(std::size_t bytes, topo::NodeId node = 0);
  DatablockRegistry& datablocks() { return datablocks_; }

  /// Reallocation-tick migration: move the hottest datablocks toward the
  /// residency distribution implied by the per-node thread targets, spending
  /// at most options().migration_budget_bytes of copy traffic. Called by the
  /// agent adapter when the policy shifts this app's node targets; safe
  /// while tasks run (Datablock::move_to is reader-safe).
  MigrationReport migrate_datablocks_toward(const std::vector<std::uint32_t>& node_weights);

  const RuntimeOptions& options() const { return options_; }

  // --- non-worker threads (paper §IV) -------------------------------------
  /// Registry for threads the runtime does not own (main/I-O/legacy compute
  /// threads); the agent can steer their NUMA binding through it.
  ForeignThreadRegistry& foreign_threads() { return foreign_; }

  // --- agent control surface (the paper's three options) -----------------
  void set_total_thread_target(std::uint32_t target);                // option 1
  void set_blocked_cores(const topo::CpuSet& cores);                 // option 2
  void set_node_thread_targets(const std::vector<std::uint32_t>& targets);  // option 3
  /// Back to "all threads run".
  void clear_thread_controls();

  ControlMode control_mode() const;
  std::uint32_t running_threads() const;  // workers not policy-blocked
  std::uint32_t blocked_threads() const;
  std::vector<std::uint32_t> running_per_node() const;

  // --- telemetry ----------------------------------------------------------
  Metrics& metrics() { return metrics_; }
  /// Application code calls this to expose domain progress (iterations).
  /// Increments the calling worker's own counter shard (no line bouncing).
  void report_progress(std::uint64_t amount = 1);
  /// Application code accounts its work and memory traffic here; the agent
  /// derives the app's arithmetic intensity from the running ratio (§III.A
  /// access-pattern detection). Negative values are a caller error.
  void report_work(double gflop, double gbytes);
  /// The one snapshot path: aggregates the per-worker counter shards and
  /// fills in pool/queue state.
  MetricsSnapshot stats() const;

  // --- latency observability (src/obs) -----------------------------------
  /// Aggregated latency distributions, one per obs::LatencyKind. Plain-value
  /// copies; safe to take while the runtime runs (relaxed-prefix contract).
  struct LatencySnapshot {
    obs::HistogramSnapshot handoff;
    obs::HistogramSnapshot steal;
    obs::HistogramSnapshot wake;
    obs::HistogramSnapshot enact;
  };
  LatencySnapshot latency_snapshot() const;
  /// Record one command-issue -> enactment-ack interval (called by the
  /// agent channel adapter when a pending epoch is promoted to enacted).
  void record_enactment_lag(std::uint64_t ns);
  /// Scheduler-latency watchdog view (null when watchdog_deadline_us == 0).
  const obs::Watchdog* watchdog() const { return watchdog_.get(); }

 private:
  struct Worker {
    std::uint32_t id = 0;
    topo::CoreId core = 0;
    topo::NodeId node = 0;
    WsDeque<TaskNode> deque;
    Parker parker;
    Xoshiro256 rng{0};
    /// Policy block flag; set under control_mutex_, cleared by the worker.
    std::atomic<bool> block_requested{false};
    std::atomic<bool> policy_blocked{false};
    /// True while published as idle; set/cleared only by the worker itself
    /// (publish_idle/retract_idle keep idle_count_ in step).
    std::atomic<bool> idle{false};
    /// Consecutive find_task failures; gates cross-node poaching.
    std::uint32_t dry_rounds = 0;
    /// Victim-order scratch for the cross-node steal path, sized to the
    /// machine at startup so ranking never allocates mid-steal (the memory
    /// bench gates the steal-path p99 against the locality-blind baseline).
    std::vector<std::pair<double, topo::NodeId>> victim_order;
    /// Bumped every worker_main loop pass (including idle park timeouts);
    /// the watchdog's proof the OS is scheduling this worker.
    std::atomic<std::uint64_t> heartbeat{0};
    /// Wake-latency stamp: a waker CASes obs::now_ns() in when it unparks
    /// this idle worker; the worker consumes (exchanges to 0) it on resume.
    /// 0 = no wake in flight.
    std::atomic<std::uint64_t> wake_ns{0};
    std::thread thread;
  };

  /// Per-node injection queue: a bounded lock-free MPMC ring for the common
  /// case, spilling to a mutex-guarded overflow list when full. Consumers
  /// drain the overflow first whenever it is non-empty (one relaxed load
  /// when it is not), so spilled tasks cannot be starved by ring traffic.
  struct NodeQueues {
    static constexpr std::size_t kRingCapacity = 2048;
    MpmcRing<TaskNode*> ring{kRingCapacity};
    std::atomic<std::uint32_t> overflow_size{0};
    std::mutex overflow_mutex;
    std::vector<TaskNode*> overflow;  // order is not a fairness promise
  };

  // Worker internals.
  void worker_main(Worker& w);
  TaskNode* find_task(Worker& w);
  /// spawn() with the data-residency footprint attached before the task can
  /// be published (spawn_with_data's path; plain spawn passes kAnyNode/0).
  EventPtr spawn_tagged(TaskFn fn, const std::vector<EventPtr>& deps,
                        topo::NodeId affinity, topo::NodeId footprint_node,
                        std::uint64_t footprint_bytes);
  void push_injection(topo::NodeId node, TaskNode* task);
  TaskNode* pop_injection(topo::NodeId node);
  void run_task(TaskNode* task, TaskContext& context, std::uint64_t& retired);
  /// Publish `retired` pending completions to outstanding_, signalling
  /// idle_cv_ only on the true 0-crossing.
  void flush_retired(std::uint64_t& retired);
  /// The calling thread's metrics/pool shard: its worker id on this
  /// runtime's workers, the shared external shard otherwise.
  std::uint32_t current_shard() const;
  void maybe_block(Worker& w);
  bool over_block_budget(const Worker& w) const;  // fast pre-check, racy
  void publish_idle(Worker& w);
  void retract_idle(Worker& w);
  void wake_one_idle(topo::NodeId preferred_node);
  void wake_all();

  // Dependency plumbing (called by Event).
  friend class Event;
  void on_dependency_satisfied(TaskNode* task);
  void enqueue_ready(TaskNode* task);

  // Control plumbing; control_mutex_ held.
  void rebalance_blocking_locked();

  topo::Machine machine_;
  RuntimeOptions options_;
  Metrics metrics_;
  /// Per-worker latency histogram shards (+1 external), same layout
  /// discipline as metrics_; constructed once, record paths never allocate.
  obs::LatencySet latency_{machine_.core_count() + 1};
  DatablockRegistry datablocks_;
  ForeignThreadRegistry foreign_{machine_};
  /// Scheduler-latency watchdog; constructed and started only when
  /// options_.watchdog_deadline_us > 0, stopped before workers join.
  std::unique_ptr<obs::Watchdog> watchdog_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<NodeQueues>> node_queues_;

  /// Ready-task datablock bytes homed per node (enqueue adds, execution
  /// subtracts): the numerator of the steal-penalty score — how much data a
  /// thief helping node n should expect to pull across the link.
  std::vector<std::atomic<std::uint64_t>> ready_footprint_;

  /// Workers currently published as idle; lets the submit path skip the
  /// wake scan entirely (one relaxed load of a zero) while the pool is
  /// saturated. Racy by design — a missed wake is bounded by the idle park
  /// timeout (kIdleParkUs in runtime.cpp), exactly like the pre-existing
  /// idle-flag race.
  std::atomic<std::uint32_t> idle_count_{0};

  // Owns every live task (see task_pool.hpp ownership protocol); its
  // destructor sweep reclaims undrained tasks after the workers join.
  TaskPool pool_;

  // Per-datablock access chains for spawn_with_data.
  struct DataChain {
    EventPtr last_write;
    std::vector<EventPtr> readers_since_write;
  };
  std::mutex data_chain_mutex_;
  std::unordered_map<std::uint64_t, DataChain> data_chains_;

  // Outstanding = created but not yet finished. Workers retire tasks in
  // batches of up to kRetireBatch: the counter is decremented per batch at a
  // task boundary, never mid-task, and always flushed before a worker goes
  // idle, parks, or policy-blocks — so wait_idle() can lag a busy worker by
  // at most one batch and can never miss the final 0-crossing.
  static constexpr std::uint64_t kRetireBatch = 64;
  /// Dry-spell yield rounds a worker spends before publishing idle and
  /// parking (see worker_main). Two rounds bridge the gaps of a sustained
  /// task stream (the throughput case) while keeping the spin phase short:
  /// a lone task handed to a mostly-idle pool is still picked up by a
  /// *woken* worker rather than waiting out everyone's spin rotation.
  static constexpr std::uint32_t kIdleSpinRounds = 2;
  std::atomic<std::uint64_t> outstanding_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  // Blocking controls.
  mutable std::mutex control_mutex_;
  /// Lock-free hot-path gate: false means mode_ == kNone and workers skip
  /// the control lock entirely at task boundaries.
  std::atomic<bool> controls_engaged_{false};
  ControlMode mode_ = ControlMode::kNone;
  std::uint32_t total_target_ = 0;
  std::vector<std::uint32_t> node_targets_;
  topo::CpuSet blocked_cores_;
  std::atomic<std::uint32_t> blocked_count_{0};
  std::vector<std::atomic<std::uint32_t>> blocked_per_node_;
  Xoshiro256 control_rng_{0xa9e47};

  std::atomic<bool> stop_{false};
};

const char* to_string(ControlMode mode);

}  // namespace numashare::rt
