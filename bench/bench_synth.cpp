// E11 — §III.B substrate: the synthetic tunable-AI benchmark and STREAM,
// run for real on the host, plus the simulator-backed calibration loop and
// the cost of one simulator epoch.
// Host numbers are hardware truth for whatever machine this runs on; the
// reproducible Table III column lives in bench_table3.
#include "bench_support.hpp"
#include "common/table.hpp"
#include "core/paper_scenarios.hpp"
#include "sim/simulator.hpp"
#include "synth/calibrate.hpp"
#include "synth/harness.hpp"
#include "synth/stream.hpp"
#include "topology/discovery.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;

void reproduce() {
  bench::print_header("E11 / synthetic benchmark", "tunable-AI kernel + STREAM on the host");

  const auto host = topo::discover_host_or_flat();
  std::printf("%s", host.describe().c_str());

  bench::print_section("STREAM (best of 3 trials)");
  synth::StreamConfig stream_config;
  stream_config.elements = 1u << 21;  // 16 MiB arrays
  stream_config.trials = 3;
  synth::Stream stream(stream_config);
  TextTable stream_table({"kernel", "best GB/s", "avg GB/s", "verified"});
  for (const auto& r : stream.run()) {
    stream_table.add_row({synth::to_string(r.kernel), fmt_fixed(r.best_gbps, 2),
                          fmt_fixed(r.avg_gbps, 2), r.verified ? "yes" : "NO"});
  }
  std::printf("%s", stream_table.render().c_str());

  bench::print_section("tunable-AI kernel sweep (host, 1 thread)");
  TextTable sweep({"flops/elem", "nominal AI", "GFLOPS", "GB/s"});
  for (std::uint32_t flops : {2u, 8u, 32u, 128u, 512u}) {
    synth::KernelConfig config;
    config.elements = 1u << 20;
    config.flops_per_element = flops;
    synth::TunableKernel kernel(config);
    const auto r = kernel.run_for(0.05);
    sweep.add_row({std::to_string(flops), fmt_compact(kernel.configured_ai(), 4),
                   fmt_fixed(r.gflops, 3), fmt_fixed(r.gbps, 3)});
  }
  std::printf("%s", sweep.render().c_str());
  std::printf("  shape check: GB/s falls and GFLOPS rises as AI grows (roofline walk).\n");

  bench::print_section("host scenario harness (even allocation, scaled-down mix)");
  {
    std::vector<synth::HostApp> apps;
    apps.push_back({"mem-1", synth::kernel_for_ai(0.125, 1u << 18)});
    apps.push_back({"mem-2", synth::kernel_for_ai(0.125, 1u << 18)});
    apps.push_back({"mem-3", synth::kernel_for_ai(0.125, 1u << 18)});
    apps.push_back({"compute", synth::kernel_for_ai(8.0, 1u << 18)});
    // One thread per app on node 0 of whatever the host is.
    model::Allocation allocation(4, host.node_count());
    for (model::AppId a = 0; a < 4 && a < host.cores_in_node(0); ++a) {
      allocation.set_threads(a, 0, 1);
    }
    const auto result = synth::run_host_scenario(host, apps, allocation, 0.2);
    TextTable apps_table({"app", "threads", "GFLOPS", "GB/s"});
    for (const auto& app : result.apps) {
      apps_table.add_row({app.name, std::to_string(app.threads), fmt_fixed(app.gflops, 3),
                          fmt_fixed(app.gbps, 3)});
    }
    std::printf("%s", apps_table.render().c_str());
  }

  bench::print_section("calibration loop on the simulator (paper methodology)");
  {
    const auto even = model::paper::table3()[1];
    const auto measured = sim::simulate_scenario(even.machine, even.apps, even.allocation,
                                                 sim::SimEffects{}, 0.3);
    synth::EvenScenarioMeasurement m;
    m.nodes = 4;
    m.cores_per_node = 20;
    m.mem_instances = 3;
    m.mem_threads_per_node = 5;
    m.mem_ai = even.apps[0].ai;
    m.mem_total_gflops =
        measured.app_gflops[0] + measured.app_gflops[1] + measured.app_gflops[2];
    m.compute_threads_per_node = 5;
    m.compute_ai = even.apps[3].ai;
    m.compute_total_gflops = measured.app_gflops[3];
    std::string error;
    if (const auto c = synth::calibrate_even_scenario(m, &error)) {
      std::printf("  with second-order effects ON, calibration absorbs them into the\n"
                  "  estimates (exactly what the paper's estimation did):\n");
      bench::print_comparison("estimated peak GFLOPS/thread", c->peak_gflops_per_thread,
                              0.29, 3.0);
      bench::print_comparison("estimated node bandwidth GB/s", c->node_bandwidth, 100.0,
                              5.0);
    } else {
      std::printf("  calibration failed: %s\n", error.c_str());
    }
  }
}

void BM_KernelPass(benchmark::State& state) {
  synth::KernelConfig config;
  config.elements = 1u << 16;
  config.flops_per_element = static_cast<std::uint32_t>(state.range(0));
  synth::TunableKernel kernel(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.run_passes(1).checksum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kernel.bytes_per_pass()) *
                          state.iterations());
}
BENCHMARK(BM_KernelPass)->Arg(2)->Arg(32)->Arg(256);

void BM_StreamTriad(benchmark::State& state) {
  synth::StreamConfig config;
  config.elements = 1u << 18;
  config.trials = 1;
  synth::Stream stream(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.run().back().best_gbps);
  }
}
BENCHMARK(BM_StreamTriad)->Unit(benchmark::kMillisecond);

// One epoch of the simulated hardware the calibration loop runs against:
// every node serves one local and one remote group.
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
