// E18 — allocation-search scaling: the streaming branch-and-bound engine vs
// the materialize-then-evaluate brute force, swept over machine size and app
// count up to 8 nodes x 64 cores x 8 apps, plus the shape the daemon decides
// (4x20x12: the paper's Skylake preset with join_churn's all-NUMA-perfect
// mix, where the search solves one node class per uniform candidate), once
// in the committed app order and once in an order join_churn's membership
// reaches (4x20x12_churn), which costs the search several times more.
//
// The paper's §IV worries that a "sophisticated, CPU-intensive scheduling
// algorithm" would perturb the machine it manages. The constrained search
// space grows combinatorially — compositions of cores-per-node over the apps,
// C(63,7) ≈ 5.5e8 candidates at the largest sweep point — so the reference
// engine stops being runnable long before that: its "before" time is measured
// exactly where feasible (count within kExactLimit) and otherwise estimated
// as mean-legacy-solve-cost x candidate-count (flagged `before_estimated`).
// The streaming engine visits the same candidate order with admissible
// upper-bound pruning, evaluates a tiny fraction, allocates nothing per
// candidate, and must clear a >= 10x gate on the largest configuration while
// peak RSS stays flat (no materialized candidate vector).
//
// The polish_gain rows score model::decide's allocation (exact seed, then
// the climb that can express per-node counts, paper Option 3) against the
// exact seed alone on the synthetic mixes, both in the simulator
// (sim::simulate_scenario, what perfbench's alloc_gflops reports), so the
// climb's gain is measured off the model it was chosen by. Gated >= 1.0x.
//
// Emits a numashare-bench/1 document (bench_support.hpp) to BENCH_model.json,
// or to NS_BENCH_OUT, so successive changes carry a measured trajectory.
// Scenarios are nodes x cores_per_node x apps ("8x64x8"). The speedup gate
// is timing, enforced on full documents; the streaming-phase RSS bound holds
// in every run. NS_BENCH_QUICK=1 shrinks the sweep and repetition counts for
// CI smoke runs.
#include "bench_support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "sim/simulator.hpp"
#include "support/search_reference.hpp"
#include "topology/machine.hpp"
#include "topology/presets.hpp"

namespace {

using namespace numashare;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Which apps a config searches: the synthetic sweep's mix, or the daemon's
/// shape (the paper's 4x20 Skylake preset and join_churn's mix at its
/// largest membership) in the committed order or in join_churn's order.
enum class Mix { kSynthetic, kShipping, kChurn };

struct Config {
  std::uint32_t nodes;
  std::uint32_t cores_per_node;
  std::uint32_t apps;
  Mix mix = Mix::kSynthetic;
};

// The sweep, smallest to largest; the last entry is the gate configuration.
constexpr Config kConfigs[] = {
    {2, 8, 2},  {2, 16, 4}, {4, 16, 4}, {4, 32, 4}, {8, 16, 8},
    {4, 20, 12, Mix::kShipping}, {4, 20, 12, Mix::kChurn},
    {8, 32, 8}, {4, 64, 8}, {8, 64, 8},
};
constexpr Config kGateConfig = {8, 64, 8};
constexpr double kRequiredSpeedup = 10.0;
/// Visiting ~5.5e8 candidates must not grow the streaming phase past this.
constexpr double kPeakRssLimitKb = 512.0 * 1024.0;

bench::Report g_report(
    "bench_alloc_scale", "BENCH_model.json",
    "best-of-N wall time per engine; 'before' measured exactly when the candidate count "
    "permits, otherwise estimated as measured per-candidate reference cost (exact sibling "
    "config) x candidate count (the row's estimated flag); peak_rss snapshots getrusage "
    "after the streaming-only phase, before the brute force materializes any candidate "
    "vectors (peak_rss_full covers the whole run)");

/// "nodes x cores_per_node x apps", e.g. "8x64x8".
std::string scenario(const Config& config) {
  return std::to_string(config.nodes) + "x" + std::to_string(config.cores_per_node) + "x" +
         std::to_string(config.apps) + (config.mix == Mix::kChurn ? "_churn" : "");
}

void record(const std::string& name, Config config, const std::string& unit, double value) {
  g_report.add(name, scenario(config), unit, value);
}

/// Measured per-candidate cost of the reference engine, keyed by
/// (nodes, apps): the per-candidate work depends on the group structure, not
/// the per-node core budget, so an exact measurement at a smaller core count
/// is the best available estimator for the configs where the brute force is
/// no longer runnable.
struct ReferenceCost {
  std::uint32_t nodes;
  std::uint32_t apps;
  double us_per_candidate;
};

std::vector<ReferenceCost> g_reference_costs;

/// Geometrically spaced AIs (0.1 x 2^a) so the sweep always spans
/// memory-bound through compute-bound behaviour, plus NUMA-bad homes and
/// serial fractions.
std::vector<model::AppSpec> make_apps(std::uint32_t count, std::uint32_t nodes) {
  std::vector<model::AppSpec> apps;
  for (std::uint32_t a = 0; a < count; ++a) {
    const double ai = 0.1 * static_cast<double>(1u << a);
    if (a % 3 == 2) {
      apps.push_back(model::AppSpec::numa_bad("bad", ai, a % nodes));
    } else {
      apps.push_back(model::AppSpec::numa_perfect("perfect", ai));
    }
    if (a % 4 == 1) apps.back().serial_fraction = 0.15;
  }
  return apps;
}

/// The twelve members of perfbench's join_churn workload: the two initial
/// clients plus the ten-joiner mix, all NUMA-perfect and mostly memory-bound.
/// kShipping is the committed order; kChurn is an order join_churn really
/// reaches, with one joiner flipped to half its AI (the order
/// NodeClassSearch.JoinChurnOrder replays).
std::vector<model::AppSpec> shipping_apps(Mix mix) {
  const auto ais = mix == Mix::kChurn
                       ? std::vector<double>{1.0 / 32, 1.0 / 8, 1.0, 1.0 / 64, 1.0 / 8, 1.0 / 32,
                                             1.0 / 2, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 64,
                                             1.0 / 16}
                       : std::vector<double>{1.0 / 32, 1.0 / 8, 1.0 / 64, 1.0 / 64, 1.0 / 32,
                                             1.0 / 32, 1.0 / 16, 1.0 / 16, 1.0 / 8, 1.0 / 8,
                                             1.0, 1.0};
  std::vector<model::AppSpec> apps;
  for (const double ai : ais) apps.push_back(model::AppSpec::numa_perfect("perfect", ai));
  return apps;
}

std::vector<model::AppSpec> apps_for(const Config& config) {
  return config.mix == Mix::kSynthetic ? make_apps(config.apps, config.nodes)
                                       : shipping_apps(config.mix);
}

double peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

template <typename Fn>
double best_of_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Per-config state carried from the streaming phase into the reference
/// phase (the two run separately so the streaming phase's peak RSS can be
/// snapshotted before the brute force materializes anything).
struct ConfigRun {
  Config config;
  std::uint64_t count = 0;
  double legacy_solve_us = 0.0;
  double after_us = 0.0;
  bool skipped = false;
};

bool config_skipped(std::uint64_t count) {
  return (bench::quick_mode() || bench::kSanitized) && count > 5'000'000;
}

topo::Machine make_machine(const Config& config) {
  if (config.mix != Mix::kSynthetic) return topo::paper_skylake_machine();
  return topo::Machine::symmetric(config.nodes, config.cores_per_node, 10.0, 32.0, 10.0);
}

/// Phase 1: per-solve cost, the streaming search and the incremental refine.
/// Nothing in this phase materializes candidates, which is exactly the claim
/// the post-phase RSS snapshot pins.
ConfigRun run_streaming(const Config& config) {
  const bool quick = bench::quick_mode();
  const auto machine = make_machine(config);
  const auto apps = apps_for(config);
  ConfigRun run;
  run.config = config;
  run.count = model::count_candidates(machine, config.apps, /*require_full=*/true,
                                      /*min_threads_per_app=*/1);
  if (config_skipped(run.count)) {
    run.skipped = true;
    std::printf("  %-14s  candidates %12llu  skipped (quick/sanitized run)\n",
                scenario(config).c_str(), static_cast<unsigned long long>(run.count));
    return run;
  }

  // Mean per-candidate model cost, both through the validating wrapper (what
  // the reference engine pays) and through the reusable scratch. Each is the
  // best of several passes, so one host hiccup does not land in the row.
  const auto even = model::Allocation::even(machine, config.apps);
  const int solve_iters = quick ? 200 : 2000;
  constexpr int kSolvePasses = 5;
  const double solve_s = best_of_seconds(kSolvePasses, [&] {
    double sink = 0.0;
    for (int i = 0; i < solve_iters; ++i) sink += model::solve(machine, apps, even).total_gflops;
    benchmark::DoNotOptimize(sink);
  });
  model::SolveScratch scratch;
  const double solve_into_s = best_of_seconds(kSolvePasses, [&] {
    double sink = 0.0;
    for (int i = 0; i < solve_iters; ++i) {
      sink += model::solve_into(machine, apps, even, scratch).total_gflops;
    }
    benchmark::DoNotOptimize(sink);
  });
  run.legacy_solve_us = solve_s / solve_iters * 1e6;
  record("solve", config, "us_per_solve", run.legacy_solve_us);
  record("solve_into", config, "us_per_solve", solve_into_s / solve_iters * 1e6);

  // "After": the streaming branch-and-bound engine.
  model::SearchResult after;
  const int search_reps = quick ? 1 : (run.count > 1'000'000 ? 1 : 3);
  const double after_s = best_of_seconds(search_reps, [&] {
    after = model::exhaustive_search(machine, apps, model::Objective::kTotalGflops,
                                     /*require_full=*/true, /*min_threads_per_app=*/1);
  });
  run.after_us = after_s * 1e6;
  record("search_after", config, "us_per_search", run.after_us);
  record("search_evals", config, "evals", static_cast<double>(after.evaluated));
  // What the search costs in model solves: evaluations plus partial-prefix
  // bound solves.
  record("search_solves", config, "evals",
         static_cast<double>(after.evaluated + after.bound_solves));
  record("search_candidates", config, "evals", static_cast<double>(run.count));

  // The refine climb (the engine above kMaxSearchSolves candidates), seeded
  // from the winner after a modest AI drift on one app.
  auto drifted = apps;
  drifted[0].ai *= 1.2;
  model::RefineOptions refine_options;
  refine_options.min_threads_per_app = 1;
  const double refine_s = best_of_seconds(quick ? 1 : 3, [&] {
    auto refined = model::refine_search(machine, drifted, after.allocation, refine_options);
    benchmark::DoNotOptimize(refined.objective_value);
  });
  record("refine", config, "us_per_search", refine_s * 1e6);

  std::printf(
      "  %-14s  candidates %12llu  after %12.1f us  evals %llu + %llu bound  classes %u  "
      "refine %.1f us\n",
      scenario(config).c_str(), static_cast<unsigned long long>(run.count), run.after_us,
      static_cast<unsigned long long>(after.evaluated),
      static_cast<unsigned long long>(after.bound_solves), after.app_classes, refine_s * 1e6);
  return run;
}

/// Phase 2: the brute-force "before" — exact where still runnable, otherwise
/// estimated from a measured per-candidate sibling cost. This phase is the
/// one that materializes candidate vectors (gigabytes at millions of
/// candidates), which is why it runs after the streaming RSS snapshot.
void run_reference(const ConfigRun& run) {
  if (run.skipped) return;
  const bool quick = bench::quick_mode();
  const auto& config = run.config;
  const auto machine = make_machine(config);
  const auto apps = apps_for(config);

  // The quick limit still covers the shipping shapes' 75 582 candidates.
  const std::uint64_t exact_limit = quick ? 100'000 : 4'000'000;
  double before_us = 0.0;
  bool estimated = false;
  if (run.count <= exact_limit) {
    const double before_s = best_of_seconds(quick ? 1 : 2, [&] {
      auto reference = model::exhaustive_search_reference(
          machine, apps, model::Objective::kTotalGflops, true, 1);
      benchmark::DoNotOptimize(reference.objective_value);
    });
    before_us = before_s * 1e6;
    g_reference_costs.push_back(
        {config.nodes, config.apps, before_us / static_cast<double>(run.count)});
  } else {
    // Prefer a measured per-candidate reference cost from an exact sibling
    // config (same nodes and apps, smaller core budget); fall back to the
    // bare legacy solve cost, which slightly undercounts the reference
    // engine's per-candidate materialization overhead.
    double us_per_candidate = run.legacy_solve_us;
    for (const auto& cost : g_reference_costs) {
      if (cost.nodes == config.nodes && cost.apps == config.apps) {
        us_per_candidate = cost.us_per_candidate;
      }
    }
    before_us = us_per_candidate * static_cast<double>(run.count);
    estimated = true;
  }
  g_report.add("search_before", scenario(config), "us_per_search", before_us, estimated);
  const double speedup = before_us / run.after_us;
  record("search_speedup", config, "x", speedup);

  std::printf("  %-14s  before %14.0f us%s  speedup %8.1fx\n", scenario(config).c_str(),
              before_us, estimated ? " (est)" : "      ", speedup);
}

/// The synthetic mixes whose climb gain the polish_gain rows record.
constexpr Config kPolishConfigs[] = {{2, 16, 4}, {4, 16, 4}, {4, 20, 8}};

/// Phase 3: simulated GFLOPS of the decide's allocation over the exact seed's.
void run_polish_gain() {
  for (const auto& config : kPolishConfigs) {
    const auto machine = make_machine(config);
    const auto apps = apps_for(config);
    const auto seed = model::exhaustive_search(machine, apps, model::Objective::kTotalGflops,
                                               /*require_full=*/true, 1);
    const auto decision = model::decide(machine, apps, model::Objective::kTotalGflops, 1);
    const double seed_gflops =
        sim::simulate_scenario(machine, apps, seed.allocation, sim::SimEffects{}).total_gflops;
    const double decide_gflops =
        sim::simulate_scenario(machine, apps, decision.search.allocation, sim::SimEffects{})
            .total_gflops;
    const double gain = decide_gflops / seed_gflops;
    record("polish_gain", config, "x", gain);
    std::printf("  %-14s  simulated seed %8.2f GFLOPS  decide %8.2f GFLOPS  gain %.3fx\n",
                scenario(config).c_str(), seed_gflops, decide_gflops, gain);
  }
}

void emit_report() {
  record("peak_rss_full", kGateConfig, "kb", peak_rss_kb());
  std::string gate = "@";
  gate += scenario(kGateConfig);
  g_report.gate({.metric = "search_before" + gate,
                 .op = ">=",
                 .ref = "search_after" + gate,
                 .scale = kRequiredSpeedup,
                 .enforce = bench::Enforce::kFull});
  g_report.gate({.metric = "peak_rss" + gate, .op = "<=", .limit = kPeakRssLimitKb});
  g_report.gate({.metric = "peak_rss_full" + gate, .op = ">=", .ref = "peak_rss" + gate});
  for (const auto& config : kPolishConfigs) {
    g_report.gate({.metric = "polish_gain@" + scenario(config), .op = ">=", .limit = 1.0});
  }
  g_report.emit();
}

void reproduce() {
  bench::print_header("E18", "allocation-search scaling (streaming B&B vs brute force)");
  std::printf("  'before' = materialize-then-evaluate reference engine; 'after' = the\n"
              "  streaming branch-and-bound search. Both select the identical winner\n"
              "  (pinned by the search-equiv test suite); this bench records the cost.\n\n");
  bench::print_section("streaming phase (branch-and-bound search + refine)");
  std::vector<ConfigRun> runs;
  for (const auto& config : kConfigs) runs.push_back(run_streaming(config));

  // The RSS claim: visiting half a billion candidates must not grow the
  // process. Snapshotted before the reference phase, whose materialized
  // candidate vectors legitimately reach gigabytes at millions of
  // candidates — that contrast is the point.
  const double streaming_rss_kb = peak_rss_kb();
  record("peak_rss", kGateConfig, "kb", streaming_rss_kb);
  std::printf("  streaming-phase peak RSS: %.0f KiB\n", streaming_rss_kb);

  bench::print_section("reference phase (brute force, exact or estimated)");
  for (const auto& run : runs) run_reference(run);

  bench::print_section("simulated gain of the decide's climb over the exact seed");
  run_polish_gain();
  emit_report();
}

void BM_StreamingSearchMidSweep(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(4, 16, 10.0, 32.0, 10.0);
  const auto apps = make_apps(4, 4);
  for (auto _ : state) {
    auto result =
        model::exhaustive_search(machine, apps, model::Objective::kTotalGflops, true, 1);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_StreamingSearchMidSweep)->Unit(benchmark::kMillisecond);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
