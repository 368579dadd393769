// E21 — memory-side control: locality-aware vs locality-blind stealing,
// priced by the SimulatedBackend.
//
// PR 8 gives the runtime a memory side (docs/MEMORY.md): node-affine
// datablock arenas, a steal path that ranks cross-node victims by the
// remote-pull penalty, and reallocation-tick migration. This bench
// quantifies what that is worth, two ways:
//
//  1. Placement quality (the committed gate): a deterministic virtual-time
//     scheduler replays the same drain — pre-queued streaming tasks, one
//     FIFO per home node, thieves helping when local work runs dry — under
//     the two victim policies. Every task's execution is priced by
//     SimulatedBackend::remote_access_penalty (bytes / local bandwidth x
//     penalty(home -> executing)), so the numbers are pure model
//     arithmetic: deterministic, sanitizer-independent, identical in quick
//     runs. The gate requires aware >= 1.3x blind throughput on the
//     bw_skew scenario (a thin 1 GB/s link next to a fat 12 GB/s one: the
//     blind thief's round-robin victim pick drags 32 MB blocks across the
//     thin link; the aware thief's footprint/bandwidth ranking never does).
//
//  2. Steal-path cost (the regression gate): the ranking runs inside
//     find_task, so it must not tax the real steal path. Interleaved A/B
//     rounds on a live 4-worker runtime record the unsampled steal-latency
//     histograms with locality_aware_stealing on and off; the merged aware
//     p99 must stay within 1.05x of blind (plus a 1 us clock/bucket noise
//     floor). Timing, so enforced only on full unsanitized runs.
//
// Emits a numashare-bench/1 document (bench_support.hpp) to
// BENCH_memory.json, or to NS_BENCH_OUT; scripts/check_bench_json.py
// validates it in CI. The advantage gate is enforced `always`: a run that
// misses it exits non-zero.
#include "bench_support.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "runtime/numa_arena.hpp"
#include "runtime/runtime.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;

constexpr double kRequiredAdvantage = 1.3;
constexpr const char* kGateScenario = "bw_skew";
constexpr double kStealP99LimitX = 1.05;
/// Bucket resolution is 3.125% and steal latencies sit in single-digit
/// microseconds: below this absolute slack a p99 delta is clock noise,
/// not a regression.
constexpr double kStealP99FloorNs = 1000.0;

// ---------------------------------------------------------------------------
// Part 1: the virtual-time drain, priced by the SimulatedBackend.

/// One pre-queued streaming task: reads `bytes` resident on `home` once.
struct SimTask {
  std::uint64_t bytes = 0;
  topo::NodeId home = 0;
};

struct Scenario {
  std::string name;
  std::string blurb;
  topo::Machine machine;
  std::vector<SimTask> tasks;
  std::uint64_t poach_threshold = std::uint64_t{4} << 20;
};

/// The gate machine: three single-core 12 GB/s nodes, but the interconnect
/// is skewed — node 0 reaches the idle node 2 over a 1 GB/s link, node 1
/// over a full-width 12 GB/s one. Node 2's core was just granted to the
/// app (a reallocation tick); whether its help is worth anything depends
/// entirely on *whose* blocks it pulls.
topo::Machine skewed_machine() {
  topo::Machine machine;
  machine.add_node(1, 3.0, 12.0);
  machine.add_node(1, 3.0, 12.0);
  machine.add_node(1, 3.0, 12.0);
  machine.set_link_bandwidth(0, 1, 5.0);
  machine.set_link_bandwidth(1, 0, 5.0);
  machine.set_link_bandwidth(0, 2, 1.0);
  machine.set_link_bandwidth(2, 0, 1.0);
  machine.set_link_bandwidth(1, 2, 12.0);
  machine.set_link_bandwidth(2, 1, 12.0);
  return machine;
}

std::vector<Scenario> make_scenarios() {
  constexpr std::uint64_t kBlock = std::uint64_t{32} << 20;
  std::vector<Scenario> scenarios;
  {
    // The gate scenario. Both producers hold 32 MB blocks; node 1 holds
    // more of them. The blind thief's first victim is node 0 — one 32 MB
    // pull across the 1 GB/s link prices at ~19x local and pins the thief
    // for the whole drain. The aware ranking (footprint / link bandwidth,
    // docs/MEMORY.md) sends every pull across the fat link instead. The
    // poach threshold is lifted above the block size so the gate isolates
    // victim *ranking*; the veto has its own unit tests.
    Scenario s{kGateScenario,
               "32 MB blocks behind a 1 GB/s vs a 12 GB/s link to the helper",
               skewed_machine(),
               {},
               std::uint64_t{64} << 20};
    for (int i = 0; i < 6; ++i) s.tasks.push_back({kBlock, 0});
    for (int i = 0; i < 16; ++i) s.tasks.push_back({kBlock, 1});
    scenarios.push_back(std::move(s));
  }
  {
    // The no-win case: symmetric full-width links, data spread evenly.
    // Every victim prices the same, so ranking cannot help — this row
    // documents that aware does not *lose* either. The poach threshold is
    // lifted here as well: with every block over the threshold on a
    // symmetric machine the one-shot veto is pure bounce overhead, a
    // trade-off the locality_steal_test unit suite covers.
    Scenario s{"spread_even",
               "symmetric 12 GB/s links, 8 MB blocks spread over both producers",
               topo::Machine::symmetric(3, 1, 3.0, 12.0, 12.0),
               {},
               std::uint64_t{64} << 20};
    for (int i = 0; i < 8; ++i) s.tasks.push_back({std::uint64_t{8} << 20, 0});
    for (int i = 0; i < 8; ++i) s.tasks.push_back({std::uint64_t{8} << 20, 1});
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

struct SimResult {
  double makespan_s = 0.0;
  double gbps = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t remote_bytes = 0;
};

/// Deterministic list scheduler: earliest-free worker first (ties by
/// index), owners pop their home FIFO from the front, thieves take from
/// the back (the deque discipline). Execution is priced by the simulated
/// backend; an empty-handed round parks the worker for the runtime's idle
/// park timeout. The only difference between the two runs is the victim
/// policy — blind round-robin vs penalty-ranked with the one-shot poach
/// veto — exactly the switch RuntimeOptions::locality_aware_stealing flips.
SimResult simulate(const Scenario& s, bool aware) {
  const rt::SimulatedBackend backend(s.machine);
  const auto& nodes = s.machine.nodes();
  const std::size_t node_count = nodes.size();
  std::vector<std::deque<std::size_t>> queue(node_count);
  std::vector<double> pending_bytes(node_count, 0.0);
  double total_bytes = 0.0;
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    queue[s.tasks[i].home].push_back(i);
    pending_bytes[s.tasks[i].home] += static_cast<double>(s.tasks[i].bytes);
    total_bytes += static_cast<double>(s.tasks[i].bytes);
  }
  std::vector<char> bounced(s.tasks.size(), 0);

  struct SimWorker {
    double free_at = 0.0;
    topo::NodeId node = 0;
    std::uint32_t rr = 0;  // blind round-robin cursor
    bool done = false;
  };
  std::vector<SimWorker> workers;
  for (const auto& n : nodes) {
    for (std::size_t c = 0; c < n.cores.size(); ++c) {
      workers.push_back({0.0, n.id, static_cast<std::uint32_t>(n.id + 1), false});
    }
  }

  constexpr double kParkSeconds = 500e-6;  // the runtime's idle park timeout
  constexpr std::size_t kNone = ~std::size_t{0};
  SimResult result;
  while (true) {
    SimWorker* w = nullptr;
    for (auto& candidate : workers) {
      if (candidate.done) continue;
      if (w == nullptr || candidate.free_at < w->free_at) w = &candidate;
    }
    if (w == nullptr) break;

    std::size_t picked = kNone;
    bool stolen = false;
    if (!queue[w->node].empty()) {
      picked = queue[w->node].front();
      queue[w->node].pop_front();
    } else if (aware) {
      std::vector<std::pair<double, topo::NodeId>> order;
      for (topo::NodeId n = 0; n < node_count; ++n) {
        if (n == w->node || queue[n].empty()) continue;
        const double bw = s.machine.link_bandwidth(n, w->node);
        order.emplace_back(bw > 0.0 ? pending_bytes[n] / bw : pending_bytes[n], n);
      }
      std::stable_sort(order.begin(), order.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [penalty, n] : order) {
        const std::size_t candidate = queue[n].back();
        if (s.tasks[candidate].bytes >= s.poach_threshold && !bounced[candidate]) {
          bounced[candidate] = 1;  // one-shot veto: bounce, move to next victim
          continue;
        }
        picked = candidate;
        queue[n].pop_back();
        stolen = true;
        break;
      }
    } else {
      for (std::size_t k = 0; k < node_count; ++k) {
        const auto n = static_cast<topo::NodeId>((w->rr + k) % node_count);
        if (n == w->node || queue[n].empty()) continue;
        picked = queue[n].back();
        queue[n].pop_back();
        w->rr = static_cast<std::uint32_t>(n + 1);
        stolen = true;
        break;
      }
    }

    if (picked == kNone) {
      bool anything_left = false;
      for (const auto& q : queue) anything_left = anything_left || !q.empty();
      if (!anything_left) {
        w->done = true;
        continue;
      }
      w->free_at += kParkSeconds;  // all candidates vetoed: park and retry
      continue;
    }

    const SimTask& task = s.tasks[picked];
    pending_bytes[task.home] -= static_cast<double>(task.bytes);
    const double seconds = static_cast<double>(task.bytes) / 1e9 /
                           nodes[w->node].memory_bandwidth *
                           backend.remote_access_penalty(task.home, w->node);
    if (stolen) {
      ++result.steals;
      if (task.home != w->node) result.remote_bytes += task.bytes;
    }
    w->free_at += seconds;
    result.makespan_s = std::max(result.makespan_s, w->free_at);
  }
  result.gbps = result.makespan_s > 0.0 ? total_bytes / 1e9 / result.makespan_s : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Rows + gates.

bench::Report g_report(
    "bench_datablock", "BENCH_memory.json",
    "placement rows replay the same virtual-time drain under blind vs penalty-ranked victim "
    "policies, priced by SimulatedBackend::remote_access_penalty — deterministic model "
    "arithmetic, so the advantage gate holds in quick and sanitized runs too; the steal gate "
    "merges interleaved A/B rounds of the real runtime's unsampled steal-latency histograms "
    "and allows a 1 us absolute noise floor on the p99 ratio, enforced on full unsanitized "
    "runs");

void record(const std::string& name, const std::string& scenario, const std::string& unit,
            double value) {
  g_report.add(name, scenario, unit, value);
}

void run_scenario(const Scenario& s) {
  const SimResult blind = simulate(s, /*aware=*/false);
  const SimResult aware = simulate(s, /*aware=*/true);
  const double advantage = blind.gbps > 0.0 ? aware.gbps / blind.gbps : 0.0;
  record("blind", s.name, "gbps", blind.gbps);
  record("aware", s.name, "gbps", aware.gbps);
  record("advantage", s.name, "x", advantage);
  record("blind_makespan", s.name, "ms", blind.makespan_s * 1e3);
  record("aware_makespan", s.name, "ms", aware.makespan_s * 1e3);
  std::printf("  %-12s %-58s\n", s.name.c_str(), s.blurb.c_str());
  std::printf("    blind %6.2f GB/s (%.1f ms, %llu remote MB)   aware %6.2f GB/s "
              "(%.1f ms, %llu remote MB)   advantage %5.2fx\n",
              blind.gbps, blind.makespan_s * 1e3,
              static_cast<unsigned long long>(blind.remote_bytes >> 20), aware.gbps,
              aware.makespan_s * 1e3,
              static_cast<unsigned long long>(aware.remote_bytes >> 20), advantage);
}

/// Reallocation-tick migration payoff, straight from the backend's price
/// list: a 64 MB block about to be streamed 6 times from the wrong node
/// either pays the remote penalty every pass, or one bounded migration and
/// then local bandwidth (docs/MEMORY.md "Migration on reallocation ticks").
void run_migration_payoff() {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 12.0, 2.0);
  const rt::SimulatedBackend backend(machine);
  constexpr std::uint64_t kBytes = std::uint64_t{64} << 20;
  constexpr int kPasses = 6;
  const double local_pass =
      static_cast<double>(kBytes) / 1e9 / machine.node(1).memory_bandwidth;
  const double remote_pass = local_pass * backend.remote_access_penalty(0, 1);
  const double stay = kPasses * remote_pass;
  const double migrate = backend.migrate_seconds(kBytes, 0, 1) + kPasses * local_pass;
  const double payoff = migrate > 0.0 ? stay / migrate : 0.0;
  record("migrate_cost", "repeat6_64mb", "ms",
         backend.migrate_seconds(kBytes, 0, 1) * 1e3);
  record("migrate_payoff", "repeat6_64mb", "x", payoff);
  std::printf("  migrate-then-stream vs stream-remote (64 MB x 6 passes): "
              "%5.2fx payoff (one migration costs %.1f ms)\n",
              payoff, backend.migrate_seconds(kBytes, 0, 1) * 1e3);
}

// ---------------------------------------------------------------------------
// Part 2: the real steal path, aware vs blind, interleaved A/B rounds.

/// One drain on a live runtime: every task streams a 64 KB block resident
/// on node 0, so the other nodes' workers live on the cross-node steal
/// path (reluctance zeroed). Returns the merged unsampled steal-latency
/// distribution.
obs::HistogramSnapshot steal_round(const topo::Machine& machine, bool aware,
                                   int tasks_per_round) {
  rt::RuntimeOptions options;
  options.name = aware ? "steal-aware" : "steal-blind";
  options.locality_aware_stealing = aware;
  options.cross_node_reluctance = 0;
  options.latency_sample_shift = 0;
  rt::Runtime runtime(machine, options);
  constexpr std::size_t kWords = (64 << 10) / sizeof(std::uint64_t);
  auto block = runtime.create_datablock(kWords * sizeof(std::uint64_t), 0);
  auto words = block->as_span<std::uint64_t>();
  for (std::size_t i = 0; i < kWords; ++i) words[i] = i;
  for (int t = 0; t < tasks_per_round; ++t) {
    // A few microseconds of streaming per task keeps the thieves fed
    // without hiding the steal path behind compute.
    runtime.spawn_with_data(
        [words](rt::TaskContext&) {
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < kWords; ++i) sum += words[i];
          benchmark::DoNotOptimize(sum);
        },
        {rt::Runtime::DataAccess::read(block)});
  }
  runtime.wait_idle();
  return runtime.latency_snapshot().steal;
}

/// Interleaved A/B rounds (order flipped each pair so machine drift hits
/// both policies); returns {blind, aware} merged distributions.
std::pair<obs::HistogramSnapshot, obs::HistogramSnapshot> steal_ab(
    const topo::Machine& machine, int rounds, int tasks_per_round) {
  obs::HistogramSnapshot blind;
  obs::HistogramSnapshot aware;
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      aware.merge(steal_round(machine, true, tasks_per_round));
      blind.merge(steal_round(machine, false, tasks_per_round));
    } else {
      blind.merge(steal_round(machine, false, tasks_per_round));
      aware.merge(steal_round(machine, true, tasks_per_round));
    }
  }
  return {std::move(blind), std::move(aware)};
}

void print_steal_pair(const char* label, const obs::HistogramSnapshot& blind,
                      const obs::HistogramSnapshot& aware, double ratio) {
  std::printf("  %s\n", label);
  std::printf("    blind  p50 %7.0f ns  p99 %8.0f ns  (%llu steals)\n",
              blind.percentile(50.0), blind.percentile(99.0),
              static_cast<unsigned long long>(blind.count));
  std::printf("    aware  p50 %7.0f ns  p99 %8.0f ns  (%llu steals)\n",
              aware.percentile(50.0), aware.percentile(99.0),
              static_cast<unsigned long long>(aware.count));
  std::printf("    p99 ratio %5.3fx\n", ratio);
}

void record_steal_rows(const std::string& scenario, const obs::HistogramSnapshot& blind,
                       const obs::HistogramSnapshot& aware, double ratio) {
  // A trimmed quick round can legitimately drain before any thief wakes;
  // the checker requires the rows on full documents only.
  if (blind.count == 0 || aware.count == 0) return;
  record("steal_p50_blind", scenario, "ns", blind.percentile(50.0));
  record("steal_p50_aware", scenario, "ns", aware.percentile(50.0));
  record("steal_p99_blind", scenario, "ns", blind.percentile(99.0));
  record("steal_p99_aware", scenario, "ns", aware.percentile(99.0));
  record("steal_samples_blind", scenario, "count", static_cast<double>(blind.count));
  record("steal_samples_aware", scenario, "count", static_cast<double>(aware.count));
  record("steal_p99_ratio", scenario, "x", ratio);
}

void run_steal_timings() {
  const int rounds = bench::quick_mode() ? 2 : 10;
  const int tasks_per_round = bench::quick_mode() ? 1000 : 4000;

  // The gated pair: the 2x2 shape bench_spawn uses. With one candidate
  // victim per thief the ranking short-circuits, so enabling the option
  // must cost nothing here.
  const auto [blind, aware] =
      steal_ab(topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0), rounds, tasks_per_round);
  const double blind_p99 = blind.percentile(99.0);
  const double aware_p99 = aware.percentile(99.0);
  const double ratio = blind_p99 > 0.0 ? aware_p99 / blind_p99 : 0.0;
  record_steal_rows("steal_2x2", blind, aware, ratio);
  char label[96];
  std::snprintf(label, sizeof(label), "gated: 2x2, %d x %d tasks each", rounds,
                tasks_per_round);
  print_steal_pair(label, blind, aware, ratio);

  // Documentation pair: four single-core nodes, three candidate victims,
  // so the footprint ranking genuinely ranks. Not gated — at sub-100 ns
  // baselines the ratio is dominated by tens of nanoseconds of ranking
  // arithmetic that any task's execution dwarfs.
  const auto [blind4, aware4] =
      steal_ab(topo::Machine::symmetric(4, 1, 1.0, 10.0, 5.0), rounds, tasks_per_round);
  const double blind4_p99 = blind4.percentile(99.0);
  const double ratio4 = blind4_p99 > 0.0 ? aware4.percentile(99.0) / blind4_p99 : 0.0;
  record_steal_rows("steal_4n", blind4, aware4, ratio4);
  print_steal_pair("documented: 4 nodes, ranking live (ungated)", blind4, aware4,
                   ratio4);
}

void reproduce() {
  bench::print_header("E21", "memory-side control (locality-aware vs blind stealing)");
  std::printf("  Pre-queued streaming tasks drain through the two victim policies\n"
              "  under identical virtual-time pricing (docs/MEMORY.md). 'advantage'\n"
              "  is the aware/blind throughput ratio; bw_skew is the committed gate.\n\n");
  bench::print_section("placement quality (virtual time, simulated backend)");
  for (const auto& s : make_scenarios()) run_scenario(s);
  bench::print_section("reallocation-tick migration payoff");
  run_migration_payoff();
  bench::print_section("steal-path cost (real runtime, aware vs blind)");
  run_steal_timings();
  g_report.gate({.metric = std::string("aware@") + kGateScenario,
                 .op = ">=",
                 .ref = std::string("blind@") + kGateScenario,
                 .scale = kRequiredAdvantage});
  g_report.gate({.metric = "steal_p99_aware@steal_2x2",
                 .op = "<=",
                 .ref = "steal_p99_blind@steal_2x2",
                 .scale = kStealP99LimitX,
                 .offset = kStealP99FloorNs,
                 .enforce = bench::Enforce::kFullUnsanitized});
  g_report.emit();
}

void BM_DrainSimAware(benchmark::State& state) {
  const auto scenarios = make_scenarios();
  for (auto _ : state) {
    auto result = simulate(scenarios.front(), /*aware=*/true);
    benchmark::DoNotOptimize(result.makespan_s);
  }
}
BENCHMARK(BM_DrainSimAware)->Unit(benchmark::kMicrosecond);

void BM_DrainSimBlind(benchmark::State& state) {
  const auto scenarios = make_scenarios();
  for (auto _ : state) {
    auto result = simulate(scenarios.front(), /*aware=*/false);
    benchmark::DoNotOptimize(result.makespan_s);
  }
}
BENCHMARK(BM_DrainSimBlind)->Unit(benchmark::kMicrosecond);

void BM_MigratePrice(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 12.0, 2.0);
  const rt::SimulatedBackend backend(machine);
  for (auto _ : state) {
    double s = backend.migrate_seconds(std::size_t{64} << 20, 0, 1);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_MigratePrice);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
