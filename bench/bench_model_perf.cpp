// E12 — engineering ablation: cost of the analytic solver and of the epoch
// simulator as machine size and app count grow. Relevant to §IV's worry
// that a "sophisticated, CPU-intensive scheduling algorithm" would itself
// perturb the machine: these numbers bound the agent's own footprint.
//
// The search timed here is the streaming branch-and-bound engine
// (docs/MODEL.md §7): it visits the same candidate family the old
// materialize-then-evaluate search did, but prunes subtrees whose admissible
// upper bound cannot beat the incumbent and solves each survivor through a
// reusable allocation-free scratch. The `evals` counter reports the full
// enumerated candidate count for scale; the engine itself typically solves
// only a fraction of it. bench_alloc_scale (E18) extends this sweep to the
// machine sizes where the brute force stops being runnable and records the
// before/after trajectory in BENCH_model.json.
#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "sim/simulator.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;

std::vector<model::AppSpec> make_apps(std::uint32_t count, std::uint32_t nodes) {
  std::vector<model::AppSpec> apps;
  for (std::uint32_t a = 0; a < count; ++a) {
    const double ai = 0.1 * (a + 1);
    if (a % 3 == 2) {
      apps.push_back(model::AppSpec::numa_bad("bad", ai, a % nodes));
    } else {
      apps.push_back(model::AppSpec::numa_perfect("perfect", ai));
    }
  }
  return apps;
}

void reproduce() {
  bench::print_header("E12 / solver cost", "model & simulator scaling (agent footprint)");
  std::printf("  The timings below (google-benchmark output) answer §IV's concern about\n"
              "  the agent's own CPU cost: one model solve on a 4-node machine is in the\n"
              "  microsecond range, an exhaustive constrained search in the millisecond\n"
              "  range — comfortably inside a multi-millisecond agent tick.\n");
}

void BM_SolveByNodes(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto machine = topo::Machine::symmetric(nodes, 8, 10.0, 32.0, 10.0);
  const auto apps = make_apps(4, nodes);
  const auto allocation = model::Allocation::even(machine, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::solve(machine, apps, allocation).total_gflops);
  }
}
BENCHMARK(BM_SolveByNodes)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SolveByApps(benchmark::State& state) {
  const auto n_apps = static_cast<std::uint32_t>(state.range(0));
  const auto machine = topo::Machine::symmetric(4, 32, 10.0, 32.0, 10.0);
  const auto apps = make_apps(n_apps, 4);
  const auto allocation = model::Allocation::even(machine, n_apps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::solve(machine, apps, allocation).total_gflops);
  }
}
BENCHMARK(BM_SolveByApps)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ExhaustiveByCores(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const auto machine = topo::Machine::symmetric(4, cores, 10.0, 32.0, 10.0);
  const auto apps = make_apps(4, 4);
  for (auto _ : state) {
    auto result =
        model::exhaustive_search(machine, apps, model::Objective::kTotalGflops, true, 1);
    benchmark::DoNotOptimize(result.objective_value);
  }
  state.counters["evals"] =
      static_cast<double>(model::count_candidates(machine, 4, true, 1));
}
BENCHMARK(BM_ExhaustiveByCores)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_GreedyByCores(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const auto machine = topo::Machine::symmetric(4, cores, 10.0, 32.0, 10.0);
  const auto apps = make_apps(4, 4);
  const auto start = model::Allocation::even(machine, 4);
  for (auto _ : state) {
    auto result = model::refine_search(machine, apps, start);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_GreedyByCores)->Arg(8)->Arg(20)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SimEpoch(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto machine = topo::Machine::symmetric(nodes, 8, 10.0, 32.0, 10.0);
  sim::MachineSim machine_sim(machine, sim::SimEffects{});
  std::vector<sim::GroupLoad> loads;
  for (topo::NodeId n = 0; n < nodes; ++n) {
    sim::GroupLoad load;
    load.exec_node = n;
    load.memory_node = (n + 1) % nodes;
    load.threads = 4;
    load.per_thread_demand = 5.0;
    load.ai = 0.5;
    loads.push_back(load);
    load.memory_node = n;
    loads.push_back(load);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine_sim.epoch(loads, 1e-3).size());
  }
}
BENCHMARK(BM_SimEpoch)->Arg(2)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
