// E19 — foreign-workload arbitration: foreign-blind vs foreign-aware
// placement under opaque background consumers.
//
// The paper's arbiter (§II) only commands the applications that link it;
// anything else on the machine silently distorts the model. This bench
// quantifies what pricing those opaque consumers (src/foreign, docs/FOREIGN.md
// "Modeling") is worth: for each scenario a foreign hog occupies part of the
// machine, two searches run — one blind to the hog, one aware of it — and
// both resulting allocations are then scored under the *true* contended
// model. The aware/blind throughput ratio is the value of arbitration; the
// committed gate requires >= 1.3x on the bw_shift scenario (a foreign draw
// emptying the fat controller of an asymmetric box, where blind and aware
// have strict, opposite optima).
//
// Also timed: the foreign-aware streaming search (the pricing must not blow
// up the §IV scheduling budget) and a steady-state scanner pass over a
// scripted 32-process procfs tree (what the daemon pays per monitor tick).
//
// Emits a numashare-bench/1 document (bench_support.hpp) to
// BENCH_foreign.json, or to NS_BENCH_OUT; scripts/check_bench_json.py
// validates it in CI. The placement rows are pure model arithmetic —
// deterministic, sanitizer-independent — so the gate is enforced `always`:
// a run that misses it exits non-zero, NS_BENCH_QUICK smoke runs included;
// quick mode only trims the timing repetitions.
#include "bench_support.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "support/procfs_writer.hpp"
#include "foreign/scanner.hpp"
#include "obs/histogram.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;
using Clock = std::chrono::steady_clock;

constexpr double kRequiredAdvantage = 1.3;
constexpr const char* kGateScenario = "bw_shift";

struct Scenario {
  std::string name;
  std::string blurb;
  topo::Machine machine;
  std::vector<model::AppSpec> apps;
  model::ForeignLoad foreign;
};

/// Asymmetric box: node 0 carries the fat memory controller (12 GB/s),
/// node 1 the thin one (6 GB/s); 2 cores x 3 GFLOPS each side.
topo::Machine asymmetric_machine() {
  topo::Machine machine;
  machine.add_node(2, 3.0, 12.0);
  machine.add_node(2, 3.0, 6.0);
  machine.set_link_bandwidth(0, 1, 5.0);
  machine.set_link_bandwidth(1, 0, 5.0);
  return machine;
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> scenarios;
  {
    // The gate scenario. Blind, the mem-bound app strictly belongs on the
    // fat node 0 (6 vs 3 GFLOPS) and the compute-bound app is indifferent —
    // so blind commits mem@0/cpu@1. A foreign draw empties exactly that
    // controller; aware swaps the two apps (the cpu app doesn't care, the
    // mem app escapes to the thin-but-clean node). No ties, no tie-break
    // luck: both searches have strict, opposite optima.
    Scenario s{"bw_shift",
               "11.5/12 GB/s foreign draw on the fat node of an asymmetric 2x2",
               asymmetric_machine(),
               {model::AppSpec::numa_perfect("cpu", 100.0),
                model::AppSpec::numa_perfect("mem", 0.5)},
               {}};
    s.foreign.bandwidth = {11.5, 0.0};
    scenarios.push_back(std::move(s));
  }
  {
    // A symmetric bandwidth hog: node 0 keeps its cores but loses 8 of
    // 10 GB/s. Blind every split ties; aware the tie breaks toward the
    // clean node.
    Scenario s{"bw_hog",
               "foreign draw of 8/10 GB/s on node 0, cores free",
               topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0),
               {model::AppSpec::numa_perfect("cpu", 10.0),
                model::AppSpec::numa_perfect("mem", 0.5)},
               {}};
    s.foreign.bandwidth = {8.0, 0.0};
    scenarios.push_back(std::move(s));
  }
  {
    // The fence scenario: a hog owns node 0 outright — both cores busy and
    // the whole 4 GB/s controller drained. On a symmetric box the aggregate
    // is conserved wherever the victims sit (timesharing), so this row
    // documents the neutral case the monitor's fence handles instead.
    Scenario s{"node_hog",
               "foreign hog owns node 0 (2 cores + full 4 GB/s controller)",
               topo::Machine::symmetric(2, 2, 1.0, 4.0, 5.0),
               {model::AppSpec::numa_perfect("mem", 0.5),
                model::AppSpec::numa_bad("bad", 0.5, 1)},
               {}};
    s.foreign.busy_cores = {2.0, 0.0};
    s.foreign.bandwidth = {4.0, 0.0};
    scenarios.push_back(std::move(s));
  }
  {
    // Partial pressure on a bigger box: 3 of 4 cores and half the
    // controller on node 0, three cooperating apps.
    Scenario s{"busy_hog",
               "3/4 cores + 6/12 GB/s foreign on node 0 of a 2x4",
               topo::Machine::symmetric(2, 4, 1.0, 12.0, 6.0),
               {model::AppSpec::numa_perfect("cpu", 8.0),
                model::AppSpec::numa_perfect("mem", 0.5),
                model::AppSpec::numa_bad("bad", 1.0, 1)},
               {}};
    s.foreign.busy_cores = {3.0, 0.0};
    s.foreign.bandwidth = {6.0, 0.0};
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

bench::Report g_report(
    "bench_foreign", "BENCH_foreign.json",
    "per scenario, a foreign-blind and a foreign-aware exhaustive search each pick an "
    "allocation; both are scored under the true contended model (SolveOptions.foreign) and "
    "'advantage' is the aware/blind throughput ratio — deterministic model arithmetic, so "
    "the gate holds in quick and sanitized runs too; timing rows are best-of-N wall time");

void record(const std::string& name, const std::string& scenario, const std::string& unit,
            double value) {
  g_report.add(name, scenario, unit, value);
}

double true_score(const Scenario& s, const model::Allocation& allocation) {
  model::SolveOptions options;
  options.foreign = s.foreign;
  return model::score(model::solve(s.machine, s.apps, allocation, options),
                      model::Objective::kTotalGflops);
}

void run_scenario(const Scenario& s) {
  // Both engines search the identical space; only the aware one prices the
  // hog. Both winners are then scored under the true contended model —
  // the hog is on the machine whether the search believed in it or not.
  const auto blind = model::exhaustive_search(s.machine, s.apps,
                                              model::Objective::kTotalGflops,
                                              /*require_full=*/true, 1);
  const auto aware = model::exhaustive_search(s.machine, s.apps,
                                              model::Objective::kTotalGflops,
                                              /*require_full=*/true, 1, {}, s.foreign);
  const double blind_gflops = true_score(s, blind.allocation);
  const double aware_gflops = true_score(s, aware.allocation);
  const double advantage = blind_gflops > 0.0 ? aware_gflops / blind_gflops : 0.0;
  record("blind", s.name, "gflops", blind_gflops);
  record("aware", s.name, "gflops", aware_gflops);
  record("advantage", s.name, "x", advantage);
  std::printf("  %-10s %-52s blind %6.3f  aware %6.3f  advantage %5.2fx\n", s.name.c_str(),
              s.blurb.c_str(), blind_gflops, aware_gflops, advantage);
}

double best_of_us(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    best = std::min(best, us);
  }
  return best;
}

/// best_of_us that also feeds every rep into an obs latency histogram, so
/// the JSON can carry the tail (p50/p99/p999/max), not just the best rep.
double timed_reps_us(int reps, obs::LatencyHistogram& hist,
                     const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    hist.record(static_cast<std::uint64_t>(ns));
    best = std::min(best, static_cast<double>(ns) / 1000.0);
  }
  return best;
}

void run_timings(const std::vector<Scenario>& scenarios) {
  const int reps = bench::quick_mode() ? 5 : 200;

  // Foreign-aware streaming search on the largest scenario. Every rep feeds
  // the tail distribution: on a co-tenant machine the search's p99 is what
  // bounds the scheduling tick, not its best case.
  const Scenario& big = scenarios.back();
  obs::LatencyHistogram search_hist;
  const double search_us = timed_reps_us(reps, search_hist, [&] {
    auto result = model::exhaustive_search(big.machine, big.apps,
                                           model::Objective::kTotalGflops,
                                           /*require_full=*/true, 1, {}, big.foreign);
    benchmark::DoNotOptimize(result.objective_value);
  });
  record("aware_search", big.name, "us_per_search", search_us);
  obs::HistogramSnapshot search_snap;
  search_hist.snapshot_into(search_snap);
  g_report.add_distribution("aware_search_tail", big.name, search_snap);
  std::printf("  foreign-aware search (%s):  %10.1f us best, p50 %.1f  p99 %.1f  max %.1f\n",
              big.name.c_str(), search_us, search_snap.percentile(50.0) / 1000.0,
              search_snap.percentile(99.0) / 1000.0,
              static_cast<double>(search_snap.max_ns) / 1000.0);

  // Steady-state scanner pass over a scripted 32-process tree: the per-tick
  // cost the daemon pays for detection.
  foreign::ProcfsWriter proc;
  proc.set_cpu_times({{100, 100}, {100, 100}, {100, 100}, {100, 100}});
  for (std::int32_t pid = 100; pid < 132; ++pid) {
    proc.set_process(pid, "hog-" + std::to_string(pid), 50);
  }
  foreign::ScannerOptions scanner_options;
  scanner_options.proc_root = proc.root();
  scanner_options.ticks_per_second = 100;
  // The scanner keeps a reference to its machine, so the machine must outlive it.
  const auto scan_machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  foreign::ForeignScanner scanner(scan_machine, scanner_options);
  double now = 1.0;
  scanner.scan(now);  // priming pass
  const double scan_us = best_of_us(reps, [&] {
    auto result = scanner.scan(now += 1.0);
    benchmark::DoNotOptimize(result.has_value());
  });
  record("scan", "procfs_32", "us_per_scan", scan_us);
  std::printf("  scanner pass (32 processes): %9.1f us\n", scan_us);
}

void reproduce() {
  bench::print_header("E19", "foreign-workload arbitration (blind vs aware placement)");
  std::printf("  An opaque process occupies part of the machine. 'blind' places the\n"
              "  cooperating apps ignoring it; 'aware' prices it (docs/FOREIGN.md).\n"
              "  Both allocations are scored under the true contended model.\n\n");
  const auto scenarios = make_scenarios();
  bench::print_section("placement quality under a foreign hog");
  for (const auto& s : scenarios) run_scenario(s);
  bench::print_section("arbitration costs");
  run_timings(scenarios);
  g_report.gate({.metric = std::string("aware@") + kGateScenario,
                 .op = ">=",
                 .ref = std::string("blind@") + kGateScenario,
                 .scale = kRequiredAdvantage});
  g_report.emit();
}

void BM_ForeignAwareSearch(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 12.0, 6.0);
  const std::vector<model::AppSpec> apps{model::AppSpec::numa_perfect("cpu", 8.0),
                                         model::AppSpec::numa_perfect("mem", 0.5),
                                         model::AppSpec::numa_bad("bad", 1.0, 1)};
  model::ForeignLoad foreign;
  foreign.busy_cores = {3.0, 0.0};
  foreign.bandwidth = {6.0, 0.0};
  for (auto _ : state) {
    auto result = model::exhaustive_search(machine, apps, model::Objective::kTotalGflops,
                                           true, 1, {}, foreign);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_ForeignAwareSearch)->Unit(benchmark::kMicrosecond);

void BM_ScannerPass(benchmark::State& state) {
  foreign::ProcfsWriter proc;
  proc.set_cpu_times({{100, 100}, {100, 100}, {100, 100}, {100, 100}});
  for (std::int32_t pid = 100; pid < 132; ++pid) {
    proc.set_process(pid, "hog-" + std::to_string(pid), 50);
  }
  foreign::ScannerOptions options;
  options.proc_root = proc.root();
  options.ticks_per_second = 100;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  foreign::ForeignScanner scanner(machine, options);
  double now = 1.0;
  scanner.scan(now);
  for (auto _ : state) {
    auto result = scanner.scan(now += 1.0);
    benchmark::DoNotOptimize(result.has_value());
  }
}
BENCHMARK(BM_ScannerPass)->Unit(benchmark::kMicrosecond);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
