// E9 — allocation-search ablation (§III.A design choices): how much NUMA-
// aware search buys over the naive allocations, per objective, plus search
// cost.
#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/optimizer.hpp"
#include "core/paper_scenarios.hpp"
#include "topology/presets.hpp"

namespace {

using namespace numashare;
using model::Allocation;
using model::AppSpec;

struct Mix {
  const char* name;
  topo::Machine machine;
  std::vector<AppSpec> apps;
};

std::vector<Mix> mixes() {
  std::vector<Mix> out;
  out.push_back({"fig2 mix (3 mem + 1 compute)", topo::paper_model_machine(),
                 model::mixes::three_mem_one_compute()});
  out.push_back({"fig3 mix (3 perfect + 1 NUMA-bad)", topo::paper_numabad_machine(),
                 model::mixes::three_perfect_one_bad(0)});
  out.push_back({"skylake mix (Table III rows 1-3)", topo::paper_skylake_machine(),
                 model::mixes::skylake_mem_compute()});
  out.push_back({"skylake NUMA-bad (rows 4-5)", topo::paper_skylake_machine(),
                 model::mixes::skylake_perfect_bad(0)});
  return out;
}

void reproduce() {
  bench::print_header("E9 / allocation search",
                      "even / node-per-app / greedy / exhaustive, per mix "
                      "(min 1 thread per app per node for uniform families)");
  TextTable table({"mix", "even", "node/app", "greedy", "exhaustive", "evals"});
  for (const auto& mix : mixes()) {
    const auto even = Allocation::even(mix.machine, 4);
    const double even_gflops = model::solve(mix.machine, mix.apps, even).total_gflops;

    double best_perm = 0.0;
    for (const auto& perm : model::enumerate_node_permutations(mix.machine)) {
      best_perm =
          std::max(best_perm, model::solve(mix.machine, mix.apps, perm).total_gflops);
    }

    const auto greedy = model::refine_search(mix.machine, mix.apps, even);
    const auto exhaustive = model::exhaustive_search(
        mix.machine, mix.apps, model::Objective::kTotalGflops, /*require_full=*/true,
        /*min_threads_per_app=*/1);

    table.add_row({mix.name, fmt_fixed(even_gflops, 1), fmt_fixed(best_perm, 1),
                   fmt_fixed(greedy.objective_value, 1),
                   fmt_fixed(exhaustive.objective_value, 1),
                   std::to_string(exhaustive.evaluated)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("  note: greedy is unconstrained (may park apps entirely); exhaustive keeps\n"
              "  every app alive — the paper's implicit setting. The NUMA-bad mixes are\n"
              "  where node-per-app beats even, the paper's §III.A punchline.\n");

  bench::print_section("sub-linear scaling (§II): cores shift away from a poor scaler");
  {
    // Two compute-bound apps on one 8-core node; one has an Amdahl serial
    // fraction. "It might be better to limit the number of threads allocated
    // to this application and assign the CPU cores to another application."
    const auto machine = topo::Machine::symmetric(1, 8, 10.0, 1000.0);
    TextTable amdahl({"serial fraction", "best split (scales/stalls)", "best GFLOPS",
                      "even split GFLOPS"});
    for (double serial : {0.0, 0.1, 0.2, 0.4, 0.8}) {
      const std::vector<AppSpec> apps{
          AppSpec::numa_perfect("scales", 10.0),
          AppSpec::numa_perfect("stalls", 10.0).with_serial_fraction(serial)};
      const auto best = model::exhaustive_search(machine, apps,
                                                 model::Objective::kTotalGflops, true, 1);
      const auto even_split =
          model::solve(machine, apps, Allocation::uniform_per_node(machine, {4, 4}));
      amdahl.add_row({fmt_compact(serial, 2),
                      ns_format("{}/{}", best.allocation.app_total(0),
                                best.allocation.app_total(1)),
                      fmt_fixed(best.objective_value, 1),
                      fmt_fixed(even_split.total_gflops, 1)});
    }
    std::printf("%s", amdahl.render().c_str());
  }

  bench::print_section("objective ablation (fig2 mix)");
  TextTable objectives({"objective", "best alloc", "total GFLOPS", "min app GFLOPS"});
  for (auto objective :
       {model::Objective::kTotalGflops, model::Objective::kMinAppGflops,
        model::Objective::kProportionalFairness}) {
    const auto mix = mixes()[0];
    const auto result = model::exhaustive_search(mix.machine, mix.apps, objective, true, 1);
    double worst = 1e300;
    for (auto g : result.solution.app_gflops) worst = std::min(worst, g);
    objectives.add_row({model::to_string(objective), result.allocation.to_string(),
                        fmt_fixed(result.solution.total_gflops, 1), fmt_fixed(worst, 2)});
  }
  std::printf("%s", objectives.render().c_str());
}

void BM_ExhaustiveSearch(benchmark::State& state) {
  const auto machine = topo::paper_model_machine();
  const auto apps = model::mixes::three_mem_one_compute();
  for (auto _ : state) {
    auto result =
        model::exhaustive_search(machine, apps, model::Objective::kTotalGflops, true, 1);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_ExhaustiveSearch)->Unit(benchmark::kMillisecond);

void BM_GreedySearch(benchmark::State& state) {
  const auto machine = topo::paper_model_machine();
  const auto apps = model::mixes::three_mem_one_compute();
  const auto start = model::Allocation::even(machine, 4);
  for (auto _ : state) {
    auto result = model::refine_search(machine, apps, start);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_GreedySearch)->Unit(benchmark::kMillisecond);

void BM_GreedySearchSkylake(benchmark::State& state) {
  const auto machine = topo::paper_skylake_machine();
  const auto apps = model::mixes::skylake_perfect_bad(0);
  const auto start = model::Allocation::even(machine, 4);
  for (auto _ : state) {
    auto result = model::refine_search(machine, apps, start);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_GreedySearchSkylake)->Unit(benchmark::kMillisecond);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
