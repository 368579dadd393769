// The paper's opening vision, end to end:
//
//   "One interesting approach is to build a larger, more complex application
//    out of multiple simpler applications. ... keep the applications
//    separate, but allow them to share data ... If one application cannot
//    use some resources at a point in time, we might be able to allocate
//    them to another application, which can use them."
//
// Three real component applications — a memory-bound Jacobi stencil, a
// compute-bound blocked matmul, and a Monte Carlo sampler — each on its own
// task runtime, each advertising its own arithmetic intensity through
// telemetry. A model-guided agent partitions the (virtual) NUMA machine
// among them; the printout compares the agent's allocation against fair
// share and shows each component's progress.
//
// Usage: ./examples/composed_app [rounds]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "apps/matmul.hpp"
#include "apps/montecarlo.hpp"
#include "apps/stencil.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/roofline.hpp"
#include "topology/presets.hpp"

using namespace numashare;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;
  // 2 nodes x 4 cores: room for all three components to keep at least one
  // thread per node under the model-guided partition.
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 32.0, 10.0);
  std::printf("%s\n", machine.describe().c_str());

  // --- the component applications, each on its own runtime ---------------
  rt::Runtime stencil_rt(machine, {.name = "stencil"});
  rt::Runtime matmul_rt(machine, {.name = "matmul"});
  rt::Runtime mc_rt(machine, {.name = "montecarlo"});

  apps::StencilConfig stencil_config;
  stencil_config.rows = 96;
  stencil_config.cols = 96;
  stencil_config.row_blocks = 4;
  apps::Stencil stencil(stencil_rt, stencil_config);

  apps::MatmulConfig matmul_config;
  matmul_config.n = 64;
  matmul_config.tile = 16;
  apps::Matmul matmul(matmul_rt, matmul_config);

  apps::MonteCarloConfig mc_config;
  mc_config.tasks = 32;
  mc_config.samples_per_task = 1u << 12;
  apps::MonteCarlo montecarlo(mc_rt, mc_config);

  // --- Figure-1 plumbing: channels, adapters, agent ----------------------
  agent::ShmChannel stencil_ch, matmul_ch, mc_ch;
  agent::RuntimeAdapter stencil_ad(stencil_rt, stencil_ch, stencil.ai_estimate());
  agent::RuntimeAdapter matmul_ad(matmul_rt, matmul_ch, matmul.ai_estimate());
  agent::RuntimeAdapter mc_ad(mc_rt, mc_ch, montecarlo.ai_estimate());

  auto policy = std::make_unique<agent::ModelGuidedPolicy>();
  auto* policy_raw = policy.get();
  agent::Agent coordinator(machine, std::move(policy), {.period_us = 1000});
  coordinator.add_app("stencil", stencil_ch);
  coordinator.add_app("matmul", matmul_ch);
  coordinator.add_app("montecarlo", mc_ch);

  stencil_ad.start(500);
  matmul_ad.start(500);
  mc_ad.start(500);
  coordinator.start();
  std::this_thread::sleep_for(20ms);  // let the first decision land

  // --- run the composed application --------------------------------------
  std::printf("running %d composed rounds (stencil sweeps + matmul + Monte Carlo)...\n\n",
              rounds);
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    // The components genuinely overlap: stencil and Monte Carlo work is
    // driven from worker threads while this thread drives the matmul.
    std::thread stencil_driver([&] { stencil.run(20); });
    std::thread mc_driver([&] { montecarlo.run(); });
    matmul.initialize();
    matmul.run();
    stencil_driver.join();
    mc_driver.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  coordinator.stop();
  stencil_ad.stop();
  matmul_ad.stop();
  mc_ad.stop();

  // --- report ---------------------------------------------------------------
  TextTable table({"component", "advertised AI", "result", "tasks executed"});
  table.add_row({"stencil", fmt_compact(stencil.ai_estimate(), 3),
                 ns_format("{} sweeps, checksum {}", stencil.sweeps_done(),
                           fmt_compact(stencil.checksum(), 1)),
                 std::to_string(stencil_rt.stats().tasks_executed)});
  table.add_row({"matmul", fmt_compact(matmul.ai_estimate(), 3),
                 ns_format("max |err| {}", fmt_compact(matmul.verify_sample(), 6)),
                 std::to_string(matmul_rt.stats().tasks_executed)});
  table.add_row({"montecarlo", fmt_compact(montecarlo.ai_estimate(), 3),
                 ns_format("pi = {}", fmt_compact(montecarlo.estimate(), 5)),
                 std::to_string(mc_rt.stats().tasks_executed)});
  std::printf("%s", table.render().c_str());
  std::printf("completed in %.2f s\n\n", seconds);

  if (policy_raw->last_allocation()) {
    std::printf("agent's model-guided allocation: %s\n",
                policy_raw->last_allocation()->to_string().c_str());
  }
  std::printf("final running threads: stencil=%u matmul=%u montecarlo=%u "
              "(sum <= %u cores)\n",
              stencil_rt.running_threads(), matmul_rt.running_threads(),
              mc_rt.running_threads(), machine.core_count());

  // What the model says the agent's split is worth vs fair share.
  std::vector<model::AppSpec> specs{
      model::AppSpec::numa_perfect("stencil", stencil.ai_estimate()),
      model::AppSpec::numa_perfect("matmul", matmul.ai_estimate()),
      model::AppSpec::numa_perfect("montecarlo", montecarlo.ai_estimate())};
  if (policy_raw->last_allocation()) {
    const auto guided = model::solve(machine, specs, *policy_raw->last_allocation());
    // Fair share on a 2-cores/node machine: 3 apps cannot split evenly;
    // compare against one thread each per node (the closest fair option).
    auto fair = model::Allocation(3, machine.node_count());
    for (model::AppId a = 0; a < 3; ++a) {
      for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
        if (a < machine.cores_in_node(n)) fair.set_threads(a, n, a < 2 ? 1 : 0);
      }
    }
    const auto fair_solution = model::solve(machine, specs, fair);
    std::printf("model: guided %.2f GFLOPS vs naive split %.2f GFLOPS\n",
                guided.total_gflops, fair_solution.total_gflops);
  }
  return 0;
}
