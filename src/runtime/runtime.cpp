#include "runtime/runtime.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"

namespace numashare::rt {

namespace {
thread_local Runtime* tl_runtime = nullptr;
thread_local std::uint32_t tl_worker_id = kExternalWorker;

/// Park timeout for idle workers; bounds wakeup latency without busy-wait.
constexpr std::int64_t kIdleParkUs = 500;
/// Seeds the per-worker victim-selection RNGs and the control RNG.
constexpr std::uint64_t kStealSeed = 0x715e;
}  // namespace

const char* to_string(ControlMode mode) {
  switch (mode) {
    case ControlMode::kNone: return "none";
    case ControlMode::kTotalCount: return "total-count";
    case ControlMode::kCoreSet: return "core-set";
    case ControlMode::kPerNode: return "per-node";
  }
  return "?";
}

Runtime::Runtime(topo::Machine machine, RuntimeOptions options)
    : machine_(std::move(machine)),
      options_(std::move(options)),
      metrics_(machine_.core_count() + 1),
      datablocks_(machine_.node_count(), options_.memory_backend),
      ready_footprint_(machine_.node_count()),
      pool_(machine_.core_count()),
      blocked_per_node_(machine_.node_count()),
      control_rng_(kStealSeed ^ 0x3c6ef372fe94f82bull) {
  std::string error;
  NS_REQUIRE(machine_.validate(&error), error.c_str());
  for (auto& b : blocked_per_node_) b.store(0, std::memory_order_relaxed);
  for (auto& f : ready_footprint_) f.store(0, std::memory_order_relaxed);

  node_queues_.reserve(machine_.node_count());
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    node_queues_.push_back(std::make_unique<NodeQueues>());
  }

  total_target_ = machine_.core_count();
  node_targets_.resize(machine_.node_count());
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    node_targets_[n] = machine_.cores_in_node(n);
  }

  workers_.reserve(machine_.core_count());
  for (const auto& core : machine_.cores()) {
    auto w = std::make_unique<Worker>();
    w->id = static_cast<std::uint32_t>(workers_.size());
    w->core = core.id;
    w->node = core.node;
    w->rng = Xoshiro256(kStealSeed + 0x9e3779b9u * (w->id + 1));
    w->victim_order.reserve(machine_.node_count());
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
  }

  if (options_.watchdog_deadline_us > 0) {
    obs::WatchdogOptions wd;
    wd.deadline_us = options_.watchdog_deadline_us;
    wd.tracer = options_.tracer;
    watchdog_ = std::make_unique<obs::Watchdog>(
        worker_count(), wd, [this](std::vector<obs::WatchdogSample>& samples) {
          for (std::uint32_t i = 0; i < samples.size(); ++i) {
            Worker& w = *workers_[i];
            samples[i].heartbeat = w.heartbeat.load(std::memory_order_relaxed);
            // A policy-blocked worker is *supposed* to be silent: it is not
            // commanded online, so the watchdog must not accuse it. This is
            // the "app ignoring commands" vs "OS not scheduling" split.
            samples[i].commanded_online =
                !w.policy_blocked.load(std::memory_order_acquire);
          }
        });
    watchdog_->start();
  }
  NS_LOG_DEBUG("rt", "runtime '{}' started with {} workers on {} nodes", options_.name,
               workers_.size(), machine_.node_count());
}

Runtime::~Runtime() {
  // The watchdog samples workers_; stop it before any worker can be joined.
  watchdog_.reset();
  stop_.store(true, std::memory_order_release);
  wake_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Tasks whose dependencies never fired or that were still queued are
  // reclaimed by pool_'s destructor sweep (task_pool.hpp).
}

// --- task graph ------------------------------------------------------------

std::uint32_t Runtime::current_shard() const {
  return tl_runtime == this && tl_worker_id != kExternalWorker ? tl_worker_id
                                                              : pool_.external_shard();
}

EventPtr Runtime::spawn(TaskFn fn, const std::vector<EventPtr>& deps, topo::NodeId affinity) {
  return spawn_tagged(std::move(fn), deps, affinity, kAnyNode, 0);
}

EventPtr Runtime::spawn_tagged(TaskFn fn, const std::vector<EventPtr>& deps,
                               topo::NodeId affinity, topo::NodeId footprint_node,
                               std::uint64_t footprint_bytes) {
  NS_REQUIRE(fn != nullptr, "task function must be callable");
  NS_REQUIRE(affinity == kAnyNode || affinity < machine_.node_count(),
             "affinity node out of range");
  const std::uint32_t shard = current_shard();
  TaskNode* task =
      pool_.allocate(shard, std::move(fn), static_cast<std::uint32_t>(deps.size()),
                     affinity, footprint_node, footprint_bytes);
  EventPtr done = task->done;
  // Relaxed is enough: the increment is ordered before the task's retirement
  // decrement through the queue handoff (release push / acquire pop), and
  // same-variable coherence means no waiter can read past its own spawns.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  metrics_.shard(shard).tasks_spawned.fetch_add(1, std::memory_order_relaxed);
  if (deps.empty()) {
    enqueue_ready(task);
  } else {
    for (const auto& dep : deps) {
      NS_REQUIRE(dep != nullptr, "null dependency event");
      dep->add_waiter(this, task);
    }
  }
  return done;
}

EventPtr Runtime::spawn_with_data(TaskFn fn, const std::vector<DataAccess>& accesses,
                                  const std::vector<EventPtr>& deps,
                                  topo::NodeId affinity) {
  NS_REQUIRE(!accesses.empty(), "spawn_with_data needs at least one access");
  std::vector<EventPtr> all_deps = deps;

  for (const auto& access : accesses) {
    NS_REQUIRE(access.db != nullptr, "null datablock in access list");
  }
  // Derive the affinity hint from the data when the caller gave none: the
  // first written block wins (that is where the new bytes land), else the
  // first read block.
  topo::NodeId hint = affinity;
  if (hint == kAnyNode) {
    for (const auto& access : accesses) {
      if (access.mode == DataAccess::Mode::kWrite) {
        hint = access.db->node();
        break;
      }
    }
    if (hint == kAnyNode) hint = accesses.front().db->node();
  }

  // Residency footprint: sum the declared bytes per node and tag the task
  // with the dominant node + its resident bytes — what a cross-node thief
  // would pull over a link, and what the poach threshold compares against.
  // Touch counts feed the migrator's hotness ordering.
  topo::NodeId footprint_node = kAnyNode;
  std::uint64_t footprint_bytes = 0;
  {
    std::vector<std::uint64_t> per_node(machine_.node_count(), 0);
    for (const auto& access : accesses) {
      access.db->record_touch();
      const topo::NodeId n = access.db->node();
      if (n < per_node.size()) per_node[n] += access.db->size_bytes();
    }
    for (topo::NodeId n = 0; n < per_node.size(); ++n) {
      if (per_node[n] > footprint_bytes) {
        footprint_bytes = per_node[n];
        footprint_node = n;
      }
    }
  }

  // Collect derived dependencies under the chain lock, then spawn, then
  // publish the task's completion into the chains (still under the lock so
  // two spawns touching the same block serialize their chain updates).
  std::scoped_lock lock(data_chain_mutex_);
  for (const auto& access : accesses) {
    auto& chain = data_chains_[access.db->id()];
    if (access.mode == DataAccess::Mode::kRead) {
      if (chain.last_write) all_deps.push_back(chain.last_write);
    } else {
      if (chain.last_write) all_deps.push_back(chain.last_write);
      for (auto& reader : chain.readers_since_write) all_deps.push_back(reader);
    }
  }
  EventPtr done = spawn_tagged(std::move(fn), all_deps, hint, footprint_node, footprint_bytes);
  for (const auto& access : accesses) {
    auto& chain = data_chains_[access.db->id()];
    if (access.mode == DataAccess::Mode::kRead) {
      chain.readers_since_write.push_back(done);
    } else {
      chain.last_write = done;
      chain.readers_since_write.clear();
    }
  }
  return done;
}

LatchEventPtr Runtime::create_latch(std::uint32_t count) {
  NS_REQUIRE(count > 0, "latch needs a positive count");
  return std::make_shared<LatchEvent>(count);
}

void Runtime::on_dependency_satisfied(TaskNode* task) {
  if (task->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue_ready(task);
  }
}

void Runtime::enqueue_ready(TaskNode* task) {
  // Sampled handoff stamp: one in 2^latency_sample_shift ready tasks (per
  // submitting thread) carries its queue-entry time, so run_task can record
  // the ready->running interval without putting a clock read on every task.
  if (options_.latency_histograms) {
    thread_local std::uint64_t sample_tick = 0;
    const std::uint64_t mask = (1ull << options_.latency_sample_shift) - 1;
    if ((sample_tick++ & mask) == 0) task->submit_ns = obs::now_ns();
  }
  // Residency accounting for the steal-penalty score: these bytes are ready
  // to be pulled from footprint_node until the task actually runs
  // (run_task subtracts). Poach re-injections bypass this path on purpose —
  // the bytes never stopped being ready.
  if (task->footprint_bytes != 0 && task->footprint_node != kAnyNode) {
    ready_footprint_[task->footprint_node].fetch_add(task->footprint_bytes,
                                                     std::memory_order_relaxed);
  }
  // Same-runtime worker thread with compatible affinity: push locally.
  if (tl_runtime == this && tl_worker_id != kExternalWorker) {
    Worker& w = *workers_[tl_worker_id];
    if (task->affinity == kAnyNode || task->affinity == w.node) {
      w.deque.push(task);
      wake_one_idle(w.node);
      return;
    }
  }
  // Unpinned injected tasks round-robin across nodes in bursts of 64, not
  // one by one: consecutive submissions land in the same ring, so a draining
  // worker stays cache-hot and the wake target stays stable, while sustained
  // streams still spread over every node.
  static std::atomic<std::uint32_t> spread{0};
  const topo::NodeId node =
      task->affinity != kAnyNode
          ? task->affinity
          : (spread.fetch_add(1, std::memory_order_relaxed) / 64) % machine_.node_count();
  push_injection(node, task);
  wake_one_idle(node);
}

void Runtime::push_injection(topo::NodeId node, TaskNode* task) {
  auto& q = *node_queues_[node];
  if (q.ring.try_push(task)) return;
  // Ring full — the rare case; spill to the overflow list. A full ring means
  // producers are outrunning consumers, so also yield the producer's
  // timeslice: on an oversubscribed machine this is the backpressure that
  // lets workers drain instead of growing the overflow without bound.
  {
    std::scoped_lock lock(q.overflow_mutex);
    q.overflow.push_back(task);
    q.overflow_size.store(static_cast<std::uint32_t>(q.overflow.size()),
                          std::memory_order_release);
  }
  std::this_thread::yield();
}

TaskNode* Runtime::pop_injection(topo::NodeId node) {
  auto& q = *node_queues_[node];
  // Overflow first whenever it is non-empty, so spilled tasks cannot be
  // starved by a permanently busy ring; the usual cost is one relaxed load
  // of a zero.
  if (q.overflow_size.load(std::memory_order_acquire) != 0) {
    std::scoped_lock lock(q.overflow_mutex);
    if (!q.overflow.empty()) {
      TaskNode* task = q.overflow.back();
      q.overflow.pop_back();
      q.overflow_size.store(static_cast<std::uint32_t>(q.overflow.size()),
                            std::memory_order_release);
      return task;
    }
  }
  return q.ring.try_pop().value_or(nullptr);
}

TaskNode* Runtime::find_task(Worker& w) {
  if (TaskNode* task = w.deque.pop()) return task;
  if (TaskNode* task = pop_injection(w.node)) return task;

  // Empty-handed locally: everything below is a steal/poach. The clock read
  // sits off the throughput path (local pops above return before it), so
  // steal latency is recorded unsampled.
  const std::uint64_t steal_start_ns =
      options_.latency_histograms ? obs::now_ns() : 0;
  const auto record_steal = [&](TaskNode* task) -> TaskNode* {
    if (steal_start_ns != 0) {
      const std::uint64_t now = obs::now_ns();
      latency_.hist(w.id, obs::LatencyKind::kSteal)
          .record(now > steal_start_ns ? now - steal_start_ns : 0);
    }
    return task;
  };

  // Steal: same NUMA node first (locality), then the rest of the machine.
  const auto try_steal_range = [&](const std::vector<topo::CoreId>& victims) -> TaskNode* {
    if (victims.empty()) return nullptr;
    const auto start = static_cast<std::size_t>(w.rng.uniform_u64(victims.size()));
    for (std::size_t k = 0; k < victims.size(); ++k) {
      Worker& victim = *workers_[victims[(start + k) % victims.size()]];
      if (victim.id == w.id) continue;
      if (TaskNode* task = victim.deque.steal()) return task;
    }
    return nullptr;
  };

  if (TaskNode* task = try_steal_range(machine_.node(w.node).cores)) {
    MetricsShard& m = metrics_.shard(w.id);
    m.steals.fetch_add(1, std::memory_order_relaxed);
    m.local_steals.fetch_add(1, std::memory_order_relaxed);
    return record_steal(task);
  }

  // Poach veto: a cross-node acquisition of a task with a heavy resident
  // footprint elsewhere is bounced home — once (the poach_skipped flag keeps
  // liveness: the second acquisition always proceeds, so a policy-blocked
  // home node can still be helped). Returns true when the task was bounced.
  const auto veto_poach = [&](TaskNode* task) -> bool {
    if (!options_.locality_aware_stealing || options_.poach_threshold_bytes == 0) {
      return false;
    }
    if (task->poach_skipped || task->footprint_node == kAnyNode ||
        task->footprint_node == w.node ||
        task->footprint_bytes < options_.poach_threshold_bytes) {
      return false;
    }
    task->poach_skipped = true;
    metrics_.shard(w.id).steal_vetoes.fetch_add(1, std::memory_order_relaxed);
    // Once pushed, the task may run and its slot be recycled by another
    // thread: read the home before publishing.
    const topo::NodeId home = task->footprint_node;
    push_injection(home, task);
    wake_one_idle(home);
    return true;
  };
  // Metrics for a cross-node acquisition that stuck.
  const auto count_remote = [&](TaskNode* task, bool deque_steal) {
    MetricsShard& m = metrics_.shard(w.id);
    if (deque_steal) {
      m.steals.fetch_add(1, std::memory_order_relaxed);
      m.remote_steals.fetch_add(1, std::memory_order_relaxed);
    }
    if (task->footprint_node != kAnyNode && task->footprint_node != w.node &&
        task->footprint_bytes != 0) {
      m.bytes_pulled_remote.fetch_add(task->footprint_bytes, std::memory_order_relaxed);
    }
  };

  // Cross-node work is a last resort, and a *reluctant* one: respect other
  // nodes' affinity hints until this worker has come up dry a few times.
  if (w.dry_rounds >= options_.cross_node_reluctance) {
    // Victim-node order. Locality-aware: cheapest expected pull first — the
    // penalty for helping node n is the ready-task datablock footprint
    // resident there divided by the bandwidth of the link those bytes would
    // cross to reach this worker (docs/MEMORY.md). Blind: index order, the
    // pre-PR8 behavior and the bench's baseline.
    auto& order = w.victim_order;  // pre-reserved: no allocation mid-steal
    order.clear();
    for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
      if (n == w.node) continue;
      order.emplace_back(0.0, n);
    }
    // Ranking a single candidate is pure steal-path tax (the memory bench
    // gates this path's p99 on a two-node box), so penalties are only
    // computed when there is an order to decide.
    if (options_.locality_aware_stealing && order.size() > 1) {
      for (auto& [penalty, n] : order) {
        const auto resident = static_cast<double>(
            ready_footprint_[n].load(std::memory_order_relaxed));
        const double bw = machine_.link_bandwidth(n, w.node);
        penalty = bw > 0.0 ? resident / bw : resident;
      }
      std::stable_sort(order.begin(), order.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    // After a veto, move to the next victim node instead of re-popping the
    // same queue — the bounced task must get a chance to be picked up by a
    // home-node worker before this thief sees it again.
    for (const auto& [penalty, n] : order) {
      if (TaskNode* task = pop_injection(n)) {
        if (veto_poach(task)) continue;
        count_remote(task, false);
        return record_steal(task);
      }
    }
    for (const auto& [penalty, n] : order) {
      if (TaskNode* task = try_steal_range(machine_.node(n).cores)) {
        if (veto_poach(task)) continue;
        count_remote(task, true);
        return record_steal(task);
      }
    }
  }

  metrics_.shard(w.id).failed_steal_rounds.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void Runtime::run_task(TaskNode* task, TaskContext& context, std::uint64_t& retired) {
  if (task->footprint_bytes != 0 && task->footprint_node != kAnyNode) {
    ready_footprint_[task->footprint_node].fetch_sub(task->footprint_bytes,
                                                     std::memory_order_relaxed);
  }
  if (task->submit_ns != 0) {
    const std::uint64_t now = obs::now_ns();
    latency_.hist(current_shard(), obs::LatencyKind::kHandoff)
        .record(now > task->submit_ns ? now - task->submit_ns : 0);
  }
  {
    trace::Span span(options_.tracer, "task", "rt", context.worker_id);
    task->fn(context);
  }
  const std::uint32_t shard = current_shard();
  metrics_.shard(shard).tasks_executed.fetch_add(1, std::memory_order_relaxed);
  task->done->satisfy();
  pool_.release(shard, task);
  ++retired;
}

void Runtime::flush_retired(std::uint64_t& retired) {
  if (retired == 0) return;
  const std::uint64_t n = retired;
  retired = 0;
  if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    // True 0-crossing. Pairing lock: a waiter must not check-and-sleep
    // between our decrement and notify.
    { std::scoped_lock lock(idle_mutex_); }
    idle_cv_.notify_all();
  }
}

void Runtime::wait_idle() {
  NS_REQUIRE(tl_runtime != this || tl_worker_id == kExternalWorker,
             "wait_idle from a worker thread would deadlock the pool");
  {
    std::unique_lock lock(idle_mutex_);
    idle_cv_.wait(lock, [&] { return outstanding_.load(std::memory_order_acquire) == 0; });
  }
  // Free the buffers datablock moves retired (publish-then-retire). A task
  // can hold a retired buffer only if it loaded data() before the move
  // published the new one; such a task already counted in outstanding_ then
  // and keeps counting until it has finished. So read the retire sequence
  // first: if outstanding_ is zero after that read, every task that could
  // hold a buffer retired up to it has finished, and a task created later
  // loads the new pointer. A concurrent spawner that keeps outstanding_
  // above zero, or a move after the read, leaves its buffers to a later
  // wait_idle(). Nothing retired is the common case: one relaxed load.
  if (datablocks_.retired_bytes() == 0) return;
  const std::uint64_t sequence = datablocks_.retire_sequence();
  if (outstanding_.load(std::memory_order_acquire) == 0) datablocks_.reclaim_retired(sequence);
}

DatablockPtr Runtime::create_datablock(std::size_t bytes, topo::NodeId node) {
  return datablocks_.create(bytes, node);
}

MigrationReport Runtime::migrate_datablocks_toward(
    const std::vector<std::uint32_t>& node_weights) {
  if (options_.migration_budget_bytes == 0) return {};
  const MigrationReport report =
      datablocks_.migrate_toward(node_weights, options_.migration_budget_bytes);
  if (report.blocks_moved > 0) {
    MetricsShard& shard = metrics_.shard(current_shard());
    shard.blocks_migrated.fetch_add(report.blocks_moved, std::memory_order_relaxed);
    shard.bytes_migrated.fetch_add(report.bytes_moved, std::memory_order_relaxed);
    if (options_.tracer != nullptr) {
      options_.tracer->instant("datablock-migrate", "rt", worker_count() + 1);
    }
    NS_LOG_DEBUG("rt", "{} migrated {} datablocks / {} bytes toward new node targets",
                 options_.name, report.blocks_moved, report.bytes_moved);
  }
  return report;
}

// --- worker loop -------------------------------------------------------

void Runtime::worker_main(Worker& w) {
  tl_runtime = this;
  tl_worker_id = w.id;
  set_current_thread_name(ns_format("{}/w{}", options_.name.substr(0, 9), w.id));
  switch (options_.bind_mode) {
    case BindMode::kNone:
      break;
    case BindMode::kPerCore:
      topo::bind_current_thread(topo::CpuSet::single(w.core));
      break;
    case BindMode::kPerNode:
      topo::bind_current_thread(topo::CpuSet::whole_node(machine_, w.node));
      break;
  }

  std::uint64_t retired = 0;  // completions not yet published to outstanding_
  while (!stop_.load(std::memory_order_acquire)) {
    // Liveness proof for the watchdog: this line is reached on every pass —
    // busy, stealing, or bouncing off a 500us park timeout — so a heartbeat
    // that stops moving means the OS stopped scheduling this thread.
    w.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (controls_engaged_.load(std::memory_order_acquire)) {
      flush_retired(retired);  // never carry a batch into a blocking episode
      maybe_block(w);
      if (stop_.load(std::memory_order_acquire)) break;
    }

    TaskContext context{*this, w.id, w.node};
    if (TaskNode* task = find_task(w)) {
      w.dry_rounds = 0;
      run_task(task, context, retired);
      if (retired >= kRetireBatch) flush_retired(retired);
      continue;
    }
    ++w.dry_rounds;
    flush_retired(retired);  // about to go idle: publish completions now

    // Dry spell: yield-spin a few rounds before touching the parker. The
    // yields give producers (and siblings) the CPU to refill the queues, and
    // a worker that stays out of the idle set keeps the submit path on its
    // no-wake fast path — so short gaps in the task stream cost neither side
    // a futex round-trip nor a wakeup preemption. Only a genuinely dry
    // worker falls through to the park below. Skipped while blocking
    // controls are engaged: a yield under CPU load can stall for whole
    // timeslices, postponing this worker's next maybe_block() check, and the
    // paper's near-immediate control enactment outranks idle-path speed.
    TaskNode* spun = nullptr;
    if (!controls_engaged_.load(std::memory_order_acquire)) {
      for (std::uint32_t spin = 0; spin < kIdleSpinRounds && spun == nullptr; ++spin) {
        if (stop_.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
        ++w.dry_rounds;  // spin rounds count toward cross-node reluctance
        spun = find_task(w);
      }
    }
    if (spun != nullptr) {
      w.dry_rounds = 0;
      run_task(spun, context, retired);
      if (retired >= kRetireBatch) flush_retired(retired);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;

    // Nothing found: publish idleness, re-check (to close the submit/park
    // race), then park briefly.
    publish_idle(w);
    if (TaskNode* task = find_task(w)) {
      retract_idle(w);
      w.dry_rounds = 0;
      run_task(task, context, retired);
      continue;
    }
    metrics_.shard(w.id).idle_parks.fetch_add(1, std::memory_order_relaxed);
    w.parker.park_for_us(kIdleParkUs);
    retract_idle(w);
    // A waker stamped obs::now_ns() into wake_ns when it unparked us; the
    // interval to here is the park/unpark wake latency.
    if (const std::uint64_t t = w.wake_ns.exchange(0, std::memory_order_relaxed);
        t != 0) {
      const std::uint64_t now = obs::now_ns();
      latency_.hist(w.id, obs::LatencyKind::kWake).record(now > t ? now - t : 0);
    }
  }
  flush_retired(retired);
  tl_runtime = nullptr;
  tl_worker_id = kExternalWorker;
}

bool Runtime::over_block_budget(const Worker& w) const {
  switch (mode_) {
    case ControlMode::kNone:
      return false;
    case ControlMode::kTotalCount:
      return worker_count() - blocked_count_.load(std::memory_order_relaxed) > total_target_;
    case ControlMode::kCoreSet:
      return blocked_cores_.contains(w.core);
    case ControlMode::kPerNode:
      return machine_.cores_in_node(w.node) -
                 blocked_per_node_[w.node].load(std::memory_order_relaxed) >
             node_targets_[w.node];
  }
  return false;
}

void Runtime::maybe_block(Worker& w) {
  if (!controls_engaged_.load(std::memory_order_acquire)) return;
  {
    std::scoped_lock lock(control_mutex_);
    if (!over_block_budget(w)) return;
    w.block_requested.store(false, std::memory_order_relaxed);
    w.policy_blocked.store(true, std::memory_order_release);
    blocked_count_.fetch_add(1, std::memory_order_relaxed);
    blocked_per_node_[w.node].fetch_add(1, std::memory_order_relaxed);
    metrics_.shard(w.id).blocks.fetch_add(1, std::memory_order_relaxed);
  }
  NS_LOG_TRACE("rt", "{} worker {} blocked", options_.name, w.id);
  {
    trace::Span span(options_.tracer, "blocked", "rt", w.id);
    while (w.policy_blocked.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire)) {
      w.parker.park_for_us(10'000);
    }
  }
}

void Runtime::publish_idle(Worker& w) {
  // Drop any wake stamp left from a prior idle episode (the waker raced our
  // retract): only wakes aimed at *this* park should be measured.
  w.wake_ns.store(0, std::memory_order_relaxed);
  idle_count_.fetch_add(1, std::memory_order_relaxed);
  w.idle.store(true, std::memory_order_release);
}

void Runtime::retract_idle(Worker& w) {
  w.idle.store(false, std::memory_order_release);
  idle_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Runtime::wake_one_idle(topo::NodeId preferred_node) {
  // Saturated pool: nobody to wake, skip the scan (the common case on the
  // spawn hot path — one relaxed load of a zero).
  if (idle_count_.load(std::memory_order_relaxed) == 0) return;
  // Same-node idle workers first, then anyone. The idle flag is left for
  // the worker itself to retract: re-unparking an already-permitted parker
  // is cheap, and eager wakes double as producer backpressure when the
  // machine is oversubscribed.
  const auto stamp_and_unpark = [&](Worker& w) {
    // First waker of this idle episode stamps the request time (CAS from 0);
    // the worker measures request -> resume when it comes back. The relaxed
    // pre-check matters: CAS arguments evaluate unconditionally, and an
    // oversubscribed producer re-wakes the same not-yet-scheduled worker on
    // every spawn — without the check that is a clock read per spawn, which
    // alone blows the <2% recording-overhead budget. Losing a stamp to the
    // stale-read race just drops one wake sample, never corrupts one.
    if (options_.latency_histograms &&
        w.wake_ns.load(std::memory_order_relaxed) == 0) {
      std::uint64_t expected = 0;
      w.wake_ns.compare_exchange_strong(expected, obs::now_ns(),
                                        std::memory_order_relaxed);
    }
    w.parker.unpark();
  };
  for (auto core : machine_.node(preferred_node).cores) {
    Worker& w = *workers_[core];
    if (w.idle.load(std::memory_order_acquire)) {
      stamp_and_unpark(w);
      return;
    }
  }
  for (auto& w : workers_) {
    if (w->idle.load(std::memory_order_acquire)) {
      stamp_and_unpark(*w);
      return;
    }
  }
}

void Runtime::wake_all() {
  for (auto& w : workers_) {
    if (stop_.load(std::memory_order_acquire)) {
      w->policy_blocked.store(false, std::memory_order_release);
    }
    w->parker.unpark();
  }
}

// --- agent control surface ----------------------------------------------

void Runtime::set_total_thread_target(std::uint32_t target) {
  std::scoped_lock lock(control_mutex_);
  mode_ = ControlMode::kTotalCount;
  controls_engaged_.store(true, std::memory_order_release);
  total_target_ = std::min(target, worker_count());
  rebalance_blocking_locked();
}

void Runtime::set_blocked_cores(const topo::CpuSet& cores) {
  std::scoped_lock lock(control_mutex_);
  mode_ = ControlMode::kCoreSet;
  controls_engaged_.store(true, std::memory_order_release);
  blocked_cores_ = cores;
  rebalance_blocking_locked();
}

void Runtime::set_node_thread_targets(const std::vector<std::uint32_t>& targets) {
  NS_REQUIRE(targets.size() == machine_.node_count(), "one target per NUMA node");
  std::scoped_lock lock(control_mutex_);
  mode_ = ControlMode::kPerNode;
  controls_engaged_.store(true, std::memory_order_release);
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    node_targets_[n] = std::min(targets[n], machine_.cores_in_node(n));
  }
  rebalance_blocking_locked();
}

void Runtime::clear_thread_controls() {
  std::scoped_lock lock(control_mutex_);
  mode_ = ControlMode::kNone;
  controls_engaged_.store(false, std::memory_order_release);
  rebalance_blocking_locked();
}

void Runtime::rebalance_blocking_locked() {
  if (options_.tracer != nullptr) {
    options_.tracer->instant("control-change", "rt", worker_count() + 1);
  }
  // Unblock whatever the new policy no longer wants blocked. Blocking in the
  // other direction stays lazy (workers block at task boundaries; nothing is
  // preempted — the paper's option 1 semantics).
  std::vector<Worker*> blocked;
  for (auto& w : workers_) {
    if (w->policy_blocked.load(std::memory_order_acquire)) blocked.push_back(w.get());
  }

  const auto unblock = [&](Worker* w) {
    w->policy_blocked.store(false, std::memory_order_release);
    blocked_count_.fetch_sub(1, std::memory_order_relaxed);
    blocked_per_node_[w->node].fetch_sub(1, std::memory_order_relaxed);
    // Unblocks are granted by the control caller, not the woken worker:
    // account them on the caller's shard (totals are all that matter).
    metrics_.shard(current_shard()).unblocks.fetch_add(1, std::memory_order_relaxed);
    w->parker.unpark();
  };

  switch (mode_) {
    case ControlMode::kNone:
      for (auto* w : blocked) unblock(w);
      break;
    case ControlMode::kTotalCount: {
      // "These threads are selected randomly" — shuffle the blocked list and
      // release from the front until the running count reaches the target.
      for (std::size_t i = blocked.size(); i > 1; --i) {
        std::swap(blocked[i - 1], blocked[control_rng_.uniform_u64(i)]);
      }
      std::size_t k = 0;
      while (k < blocked.size() &&
             worker_count() - blocked_count_.load(std::memory_order_relaxed) < total_target_) {
        unblock(blocked[k++]);
      }
      break;
    }
    case ControlMode::kCoreSet:
      for (auto* w : blocked) {
        if (!blocked_cores_.contains(w->core)) unblock(w);
      }
      break;
    case ControlMode::kPerNode: {
      for (std::size_t i = blocked.size(); i > 1; --i) {
        std::swap(blocked[i - 1], blocked[control_rng_.uniform_u64(i)]);
      }
      for (auto* w : blocked) {
        const auto running = machine_.cores_in_node(w->node) -
                             blocked_per_node_[w->node].load(std::memory_order_relaxed);
        if (running < node_targets_[w->node]) unblock(w);
      }
      break;
    }
  }

  // Kick idle workers so newly-applicable blocks are noticed "almost
  // immediately" even on an idle pool.
  for (auto& w : workers_) {
    if (!w->policy_blocked.load(std::memory_order_acquire)) w->parker.unpark();
  }
}

ControlMode Runtime::control_mode() const {
  std::scoped_lock lock(control_mutex_);
  return mode_;
}

std::uint32_t Runtime::running_threads() const {
  return worker_count() - blocked_count_.load(std::memory_order_acquire);
}

std::uint32_t Runtime::blocked_threads() const {
  return blocked_count_.load(std::memory_order_acquire);
}

std::vector<std::uint32_t> Runtime::running_per_node() const {
  std::vector<std::uint32_t> out(machine_.node_count());
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    out[n] =
        machine_.cores_in_node(n) - blocked_per_node_[n].load(std::memory_order_acquire);
  }
  return out;
}

void Runtime::report_progress(std::uint64_t amount) {
  metrics_.shard(current_shard()).progress.fetch_add(amount, std::memory_order_relaxed);
}

void Runtime::report_work(double gflop, double gbytes) {
  MetricsShard& shard = metrics_.shard(current_shard());
  if (gflop > 0.0) {
    shard.micro_gflop.fetch_add(static_cast<std::uint64_t>(gflop * 1e6),
                                std::memory_order_relaxed);
  }
  if (gbytes > 0.0) {
    shard.micro_gbytes.fetch_add(static_cast<std::uint64_t>(gbytes * 1e6),
                                 std::memory_order_relaxed);
  }
}

Runtime::LatencySnapshot Runtime::latency_snapshot() const {
  LatencySnapshot s;
  latency_.aggregate_into(obs::LatencyKind::kHandoff, s.handoff);
  latency_.aggregate_into(obs::LatencyKind::kSteal, s.steal);
  latency_.aggregate_into(obs::LatencyKind::kWake, s.wake);
  latency_.aggregate_into(obs::LatencyKind::kEnact, s.enact);
  return s;
}

void Runtime::record_enactment_lag(std::uint64_t ns) {
  latency_.hist(current_shard(), obs::LatencyKind::kEnact).record(ns);
}

MetricsSnapshot Runtime::stats() const {
  MetricsSnapshot s;
  metrics_.aggregate_into(s);
  if (watchdog_) s.stalled_workers = watchdog_->stalled_count();
  s.total_workers = worker_count();
  s.running_threads = running_threads();
  s.blocked_threads = blocked_threads();
  s.running_per_node = running_per_node();
  s.outstanding_tasks = outstanding_.load(std::memory_order_acquire);
  std::uint64_t depth = 0;
  for (const auto& w : workers_) depth += w->deque.size_approx();
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    depth += node_queues_[n]->ring.size_approx();
    depth += node_queues_[n]->overflow_size.load(std::memory_order_acquire);
  }
  s.ready_queue_depth = depth;
  return s;
}

}  // namespace numashare::rt
