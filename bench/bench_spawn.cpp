// E16 — task lifecycle microbenchmarks: the cost of creating, dispatching and
// retiring a task, swept over worker counts.
//
// The paper's premise (§II) is that a runtime absorbs thread-target changes
// cheaply *while running fine-grained task graphs*; that only holds if the
// spawn/retire path itself scales. This bench records the trajectory:
//
//   * spawn_retire_external — an external thread pumps empty tasks through
//     the injection path, workers drain them (tasks/s);
//   * spawn_retire_nested  — tasks spawn their successors from inside the
//     pool, the worker-local fast path (tasks/s);
//   * steal_drain          — raw WsDeque::steal cost on a populated deque;
//   * handoff_latency      — submit-to-execution latency for a single task
//     crossing from an external thread into the pool (median);
//   * wait_idle_latency    — full spawn → retire → wait_idle() wake cycle
//     for one task: the idle-detection/notify path (median).
//
// Unlike the paper-reproduction benches this one has no published number to
// compare against; instead it emits a numashare-bench/1 document
// (bench_support.hpp) to BENCH_runtime.json, or to NS_BENCH_OUT, so
// successive changes carry a measured perf trajectory. Its two gates (the
// obs overhead ratio and the w1 handoff p99) are timing gates enforced on
// full documents. NS_BENCH_QUICK=1 shrinks iteration counts for CI smoke
// runs; sanitizer builds shrink automatically.
#include "bench_support.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "agent/channel.hpp"
#include "agent/protocol.hpp"
#include "obs/histogram.hpp"
#include "runtime/runtime.hpp"
#include "runtime/wsdeque.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;
using Clock = std::chrono::steady_clock;

/// Iteration scale: full by default, /32 for CI smoke, /8 under sanitizers.
std::uint64_t scaled(std::uint64_t full) {
  if (bench::quick_mode()) return std::max<std::uint64_t>(full / 32, 64);
  if (bench::kSanitized) return std::max<std::uint64_t>(full / 8, 64);
  return full;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

bench::Report g_report(
    "bench_spawn", "BENCH_runtime.json",
    "throughput/median rows: best of 3 runs; latency rows: full obs-histogram "
    "distributions (handoff/wake from a dedicated single-task phase, steal from burst "
    "churn, enact_lag through ShmChannel+RuntimeAdapter); obs_overhead: best-of-5 "
    "interleaved off/on at production 1/64 sampling; single shared-CPU container, so all "
    "multi-worker points are oversubscribed and tails include scheduler preemption; rows "
    "with scenario eb74b81_wN are the pre-lifecycle-rework baseline (commit eb74b81, same "
    "machine, same bench source, runtime before the slab-pool/MPMC/sharded-metrics "
    "lifecycle rework)");

/// "w4", or "eb74b81_w4" for a baseline row.
std::string scenario(std::uint32_t workers, const char* prefix = "") {
  std::string s = prefix;
  s += 'w';
  s += std::to_string(workers);
  return s;
}

void record(const std::string& name, std::uint32_t workers, const std::string& unit,
            double value) {
  g_report.add(name, scenario(workers), unit, value);
  std::printf("  %-28s w=%-3u %14.1f %s\n", name.c_str(), workers, value, unit.c_str());
}

/// One latency distribution row: full-percentile view of a runtime-internal
/// latency, from the obs histograms.
void record_latency(const std::string& name, std::uint32_t workers,
                    const obs::HistogramSnapshot& snap) {
  if (snap.count == 0) return;  // nothing observed (e.g. no steals at w=1)
  g_report.add_distribution(name, scenario(workers), snap);
  std::printf("  %-16s w=%-3u n=%-8llu p50=%10.0f p99=%10.0f p999=%10.0f max=%10.0f ns\n",
              name.c_str(), workers, static_cast<unsigned long long>(snap.count),
              snap.percentile(50.0), snap.percentile(99.0), snap.percentile(99.9),
              static_cast<double>(snap.max_ns));
}

/// Gate: histogram recording may cost at most 2% spawn throughput.
constexpr double kObsOverheadLimitX = 1.02;
/// p99 of the dedicated single-task handoff distribution (w=1). Measured
/// ~2.2 us on the reference container (p50 ~0.6 us; the p999 ~15 us tail is
/// scheduler preemption on the shared CPU). The limit sits ~10x over the
/// measured p99 and above the observed p999, so container noise can't trip
/// it, while a lost-wake regression — which drives p99 toward the park
/// timeout, hundreds of microseconds — lands far past it.
constexpr double kHandoffP99LimitNs = 25'000.0;

/// Worker-count sweep points and the virtual machines providing them.
topo::Machine machine_for(std::uint32_t workers) {
  switch (workers) {
    case 1: return topo::Machine::symmetric(1, 1, 1.0, 10.0);
    case 4: return topo::Machine::symmetric(2, 2, 1.0, 10.0);
    case 8: return topo::Machine::symmetric(2, 4, 1.0, 10.0);
    default: return topo::Machine::symmetric(4, 4, 1.0, 10.0);
  }
}

void bench_spawn_retire_external(std::uint32_t workers) {
  rt::Runtime runtime(machine_for(workers), {.name = "bspawn"});
  const std::uint64_t tasks = scaled(100'000);
  // Warm the pool (thread creation, first parks) before timing.
  for (int i = 0; i < 256; ++i) runtime.spawn([](rt::TaskContext&) {});
  runtime.wait_idle();

  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < tasks; ++i) {
    runtime.spawn([](rt::TaskContext&) {});
  }
  runtime.wait_idle();
  const double elapsed = seconds_since(start);
  record("spawn_retire_external", workers, "tasks_per_sec",
         static_cast<double>(tasks) / elapsed);
}

void bench_spawn_retire_nested(std::uint32_t workers) {
  rt::Runtime runtime(machine_for(workers), {.name = "bspawn"});
  const std::int64_t tasks = static_cast<std::int64_t>(scaled(100'000));
  // Signed: concurrent chains may race the counter a few steps below zero,
  // which must read as "stop", not wrap to a huge count.
  std::atomic<std::int64_t> remaining{tasks};

  // Each task claims one unit and respawns itself until the budget is gone:
  // allocation, dispatch and retirement all happen on worker threads.
  std::function<void(rt::TaskContext&)> body = [&](rt::TaskContext& ctx) {
    if (remaining.fetch_sub(1, std::memory_order_relaxed) > 1) {
      ctx.runtime.spawn(body);
    }
  };

  const auto start = Clock::now();
  const std::int64_t seeds = std::min<std::int64_t>(workers, tasks);
  for (std::int64_t i = 0; i < seeds; ++i) {
    runtime.spawn(body);
  }
  runtime.wait_idle();
  const double elapsed = seconds_since(start);
  const auto stats = runtime.stats();
  record("spawn_retire_nested", workers, "tasks_per_sec",
         static_cast<double>(stats.tasks_executed) / elapsed);
}

void bench_steal_drain() {
  // Raw deque steal cost, no runtime involved: populate, then drain through
  // the thief-side entry point.
  const std::uint64_t n = scaled(200'000);
  rt::WsDeque<int> deque(1024);
  int item = 7;
  std::uint64_t stolen = 0;
  const auto start = Clock::now();
  std::uint64_t queued = 0;
  while (stolen < n) {
    while (queued < 512 && stolen + queued < n) {
      deque.push(&item);
      ++queued;
    }
    while (deque.steal() != nullptr) {
      ++stolen;
      --queued;
    }
  }
  const double elapsed = seconds_since(start);
  record("steal_drain", 1, "ns_per_steal", elapsed / static_cast<double>(n) * 1e9);
}

void bench_handoff_latency(std::uint32_t workers) {
  rt::Runtime runtime(machine_for(workers), {.name = "bspawn"});
  const std::uint64_t reps = scaled(2'000);
  for (int i = 0; i < 64; ++i) runtime.spawn([](rt::TaskContext&) {});
  runtime.wait_idle();

  std::vector<double> samples;
  samples.reserve(reps);
  for (std::uint64_t i = 0; i < reps; ++i) {
    std::atomic<bool> ran{false};
    const auto start = Clock::now();
    runtime.spawn([&](rt::TaskContext&) { ran.store(true, std::memory_order_release); });
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    samples.push_back(seconds_since(start) * 1e9);
    runtime.wait_idle();
  }
  record("handoff_latency", workers, "ns_median", median(samples));
}

void bench_wait_idle_latency(std::uint32_t workers) {
  rt::Runtime runtime(machine_for(workers), {.name = "bspawn"});
  const std::uint64_t reps = scaled(2'000);
  for (int i = 0; i < 64; ++i) runtime.spawn([](rt::TaskContext&) {});
  runtime.wait_idle();

  std::vector<double> samples;
  samples.reserve(reps);
  for (std::uint64_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    runtime.spawn([](rt::TaskContext&) {});
    runtime.wait_idle();
    samples.push_back(seconds_since(start) * 1e9);
  }
  record("wait_idle_latency", workers, "ns_median", median(samples));
}

void bench_latency_percentiles(std::uint32_t workers) {
  rt::RuntimeOptions options;
  options.name = "bspawn";
  options.latency_sample_shift = 0;  // stamp every handoff for the full tail

  // Phase 1 — single-task handoffs with park/wake cycles between reps: the
  // same shape as handoff_latency, now captured as a full distribution
  // (each rep also exercises the wake path when the pool re-parks). This
  // phase gets its own runtime so the handoff row is a pure ready->running
  // distribution; mixing in the burst phase below would swamp these ~20k
  // samples with ~130k queue-depth-dominated ones and turn the p99 gate
  // into a burst-size measurement.
  {
    rt::Runtime runtime(machine_for(workers), options);
    const std::uint64_t reps = scaled(20'000);
    // Warm up with the same single-task shape so warmup samples match.
    for (int i = 0; i < 64; ++i) {
      runtime.spawn([](rt::TaskContext&) {});
      runtime.wait_idle();
    }
    for (std::uint64_t i = 0; i < reps; ++i) {
      std::atomic<bool> ran{false};
      runtime.spawn([&](rt::TaskContext&) { ran.store(true, std::memory_order_release); });
      while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
      runtime.wait_idle();
    }
    const auto lat = runtime.latency_snapshot();
    record_latency("handoff", workers, lat.handoff);
    record_latency("wake", workers, lat.wake);
  }

  // Phase 2 — burst churn in a fresh runtime: multi-worker pools drain
  // shared bursts, which is what populates the steal distribution
  // (same-node deque steals).
  {
    rt::Runtime runtime(machine_for(workers), options);
    const std::uint64_t bursts = scaled(512);
    for (std::uint64_t b = 0; b < bursts; ++b) {
      for (int i = 0; i < 256; ++i) runtime.spawn([](rt::TaskContext&) {});
      runtime.wait_idle();
    }
    record_latency("steal", workers, runtime.latency_snapshot().steal);
  }
}

void bench_enactment_lag() {
  // Issue alternating thread-target epochs through the real agent plumbing
  // (ShmChannel -> RuntimeAdapter) with issued_ns stamped like agent::send()
  // does, pumping until each epoch is enacted — the enact_lag histogram then
  // holds the full issue -> enactment-ack distribution, including shrink
  // epochs that wait for surplus workers to genuinely park.
  rt::RuntimeOptions options;
  options.name = "bspawn";
  rt::Runtime runtime(machine_for(4), options);
  agent::ShmChannel channel;
  agent::RuntimeAdapter adapter(runtime, channel);

  const std::uint64_t reps = scaled(2'000);
  agent::Command command;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    command.type = agent::CommandType::kSetTotalThreads;
    command.total_threads = rep % 2 == 0 ? 2 : 4;
    command.seq = rep + 1;
    command.epoch = rep + 1;
    command.issued_ns = obs::now_ns();
    channel.push_command(command);
    while (adapter.enacted_epoch() < command.epoch) {
      adapter.pump();
      std::this_thread::yield();
    }
  }
  runtime.clear_thread_controls();
  record_latency("enact_lag", 4, runtime.latency_snapshot().enact);
}

double spawn_throughput_once(bool histograms) {
  rt::RuntimeOptions options;
  options.name = "bspawn";
  options.latency_histograms = histograms;  // default sampling (1/64)
  rt::Runtime runtime(machine_for(4), options);
  const std::uint64_t tasks = scaled(100'000);
  for (int i = 0; i < 256; ++i) runtime.spawn([](rt::TaskContext&) {});
  runtime.wait_idle();

  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < tasks; ++i) {
    runtime.spawn([](rt::TaskContext&) {});
  }
  runtime.wait_idle();
  return static_cast<double>(tasks) / seconds_since(start);
}

void bench_obs_overhead() {
  // Histogram recording cost on the hottest path, as a throughput ratio:
  // best-of-5 interleaved off/on runs of the external spawn+retire loop at
  // production sampling (1 in 64 handoffs stamped). Best-of over interleaved
  // rounds because the reference container is a single shared CPU: the
  // best run of each arm is the least-perturbed one, and interleaving keeps
  // slow ambient phases from landing entirely on one arm. The gate demands
  // the ratio stay under kObsOverheadLimitX (< 2% cost) on full runs.
  double best_off = 0.0;
  double best_on = 0.0;
  for (int round = 0; round < 5; ++round) {
    best_off = std::max(best_off, spawn_throughput_once(false));
    best_on = std::max(best_on, spawn_throughput_once(true));
  }
  record("obs_overhead", 4, "x", best_off / best_on);
  std::printf("  (histograms off %.0f tasks/s, on %.0f tasks/s, limit %.2fx)\n",
              best_off, best_on, kObsOverheadLimitX);
}

/// The pre-lifecycle-rework numbers (commit eb74b81, same machine, same
/// bench source) the lifecycle rework's speedup claims were measured
/// against, carried as ordinary rows so the artifact holds its own
/// before/after context.
struct BaselineRow {
  const char* name;
  std::uint32_t workers;
  const char* unit;
  double value;
};
constexpr BaselineRow kBaselineEb74b81[] = {
    {"spawn_retire_external", 1, "tasks_per_sec", 2153624.264},
    {"spawn_retire_external", 4, "tasks_per_sec", 1288099.952},
    {"spawn_retire_external", 8, "tasks_per_sec", 1710397.775},
    {"spawn_retire_external", 16, "tasks_per_sec", 1229898.569},
    {"spawn_retire_nested", 1, "tasks_per_sec", 6776643.917},
    {"spawn_retire_nested", 4, "tasks_per_sec", 6781273.992},
    {"spawn_retire_nested", 8, "tasks_per_sec", 6578669.526},
    {"spawn_retire_nested", 16, "tasks_per_sec", 6769592.815},
    {"steal_drain", 1, "ns_per_steal", 16.049},
    {"handoff_latency", 1, "ns_median", 2175.0},
    {"handoff_latency", 4, "ns_median", 2078.0},
    {"wait_idle_latency", 1, "ns_median", 2222.0},
    {"wait_idle_latency", 4, "ns_median", 2122.0},
};

void emit_report() {
  for (const BaselineRow& b : kBaselineEb74b81) {
    g_report.add(b.name, scenario(b.workers, "eb74b81_"), b.unit, b.value);
  }
  g_report.gate({.metric = "obs_overhead@w4",
                 .op = "<=",
                 .limit = kObsOverheadLimitX,
                 .enforce = bench::Enforce::kFull});
  g_report.gate({.metric = "handoff@w1.p99",
                 .op = "<=",
                 .limit = kHandoffP99LimitNs,
                 .enforce = bench::Enforce::kFull});
  g_report.emit();
}

void reproduce() {
  bench::print_header("E16", "task lifecycle scalability (spawn / dispatch / retire)");

  bench::print_section("spawn+retire throughput (external producer)");
  for (std::uint32_t w : {1u, 4u, 8u, 16u}) bench_spawn_retire_external(w);

  bench::print_section("spawn+retire throughput (nested, worker-local)");
  for (std::uint32_t w : {1u, 4u, 8u, 16u}) bench_spawn_retire_nested(w);

  bench::print_section("steal + latency paths");
  bench_steal_drain();
  for (std::uint32_t w : {1u, 4u}) bench_handoff_latency(w);
  for (std::uint32_t w : {1u, 4u}) bench_wait_idle_latency(w);

  bench::print_section("latency distributions (obs histograms, p50/p99/p999/max)");
  for (std::uint32_t w : {1u, 4u}) bench_latency_percentiles(w);
  bench_enactment_lag();

  bench::print_section("observability overhead (histograms off vs on)");
  bench_obs_overhead();

  emit_report();
}

// --- google-benchmark timings (smoke-run friendly) -------------------------

void BM_SpawnRetireBatch(benchmark::State& state) {
  rt::Runtime runtime(topo::Machine::symmetric(1, 1, 1.0, 10.0), {.name = "bm"});
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) runtime.spawn([](rt::TaskContext&) {});
    runtime.wait_idle();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpawnRetireBatch);

void BM_WsDequePushPop(benchmark::State& state) {
  rt::WsDeque<int> deque(1024);
  int item = 1;
  for (auto _ : state) {
    deque.push(&item);
    benchmark::DoNotOptimize(deque.pop());
  }
}
BENCHMARK(BM_WsDequePushPop);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
