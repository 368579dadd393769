// E8 — §II over-subscription: N co-running task applications, each with a
// full-size worker pool (the OS sorts it out) vs agent-coordinated fair
// share (total threads == total cores).
//
// The paper's honest finding, which this bench reproduces in shape: "the
// Linux operating system can do a very good job ... the benefits ... may not
// be as good as one would imagine" — expect a modest (possibly ~0) delta on
// throughput, with coordination reducing involuntary switching pressure
// (proxied here by steal/idle-park counts).
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "bench_support.hpp"
#include "common/table.hpp"
#include "topology/presets.hpp"

namespace {

using namespace numashare;
using namespace std::chrono_literals;

struct CoRunResult {
  double tasks_per_s = 0.0;
  std::uint64_t idle_parks = 0;
  std::uint64_t total_threads_running = 0;
};

void busy_work() {
  volatile double x = 1.0;
  for (int i = 0; i < 4000; ++i) x = x * 1.0000001 + 1e-9;
}

CoRunResult co_run(std::uint32_t n_apps, bool coordinated, double seconds) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  std::vector<std::unique_ptr<rt::Runtime>> apps;
  std::vector<std::unique_ptr<agent::ShmChannel>> channels;
  std::vector<std::unique_ptr<agent::RuntimeAdapter>> adapters;
  for (std::uint32_t a = 0; a < n_apps; ++a) {
    apps.push_back(
        std::make_unique<rt::Runtime>(machine, rt::RuntimeOptions{.name = "co" + std::to_string(a)}));
    channels.push_back(std::make_unique<agent::ShmChannel>());
    adapters.push_back(std::make_unique<agent::RuntimeAdapter>(*apps[a], *channels[a]));
  }

  std::unique_ptr<agent::Agent> the_agent;
  if (coordinated) {
    the_agent = std::make_unique<agent::Agent>(
        machine, std::make_unique<agent::FairSharePolicy>(
                     agent::FairSharePolicy::Flavor::kTotalThreads),
        agent::AgentOptions{.period_us = 1000});
    for (std::uint32_t a = 0; a < n_apps; ++a) {
      the_agent->add_app("co" + std::to_string(a), *channels[a]);
      adapters[a]->start(500);
    }
    the_agent->start();
    std::this_thread::sleep_for(30ms);  // let targets settle
  }

  std::atomic<bool> stop{false};
  std::function<void(rt::TaskContext&)> work = [&](rt::TaskContext& ctx) {
    if (stop.load(std::memory_order_acquire)) return;
    busy_work();
    ctx.runtime.spawn(work);
  };
  for (auto& app : apps) {
    for (std::uint32_t i = 0; i < machine.core_count(); ++i) app->spawn(work);
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);

  CoRunResult result;
  for (auto& app : apps) {
    app->wait_idle();
    const auto s = app->stats();
    result.tasks_per_s += static_cast<double>(s.tasks_executed) / seconds;
    result.idle_parks += s.idle_parks;
    result.total_threads_running += s.running_threads;
  }
  if (the_agent) the_agent->stop();
  for (auto& adapter : adapters) adapter->stop();
  return result;
}

void reproduce() {
  bench::print_header("E8 / over-subscription",
                      "co-running apps: oversubscribed vs agent fair share");
  const double seconds = 0.5;
  TextTable table({"apps", "mode", "tasks/s", "threads running", "idle parks"});
  for (std::uint32_t apps : {2u, 4u}) {
    const auto oversub = co_run(apps, /*coordinated=*/false, seconds);
    const auto fair = co_run(apps, /*coordinated=*/true, seconds);
    table.add_row({std::to_string(apps), "oversubscribed",
                   fmt_fixed(oversub.tasks_per_s, 0),
                   std::to_string(oversub.total_threads_running),
                   std::to_string(oversub.idle_parks)});
    table.add_row({std::to_string(apps), "fair share", fmt_fixed(fair.tasks_per_s, 0),
                   std::to_string(fair.total_threads_running),
                   std::to_string(fair.idle_parks)});
    const double delta = oversub.tasks_per_s > 0
                             ? (fair.tasks_per_s / oversub.tasks_per_s - 1.0) * 100.0
                             : 0.0;
    std::printf("  %u apps: fair-share throughput delta %+.1f%% "
                "(paper: 'marginal (a few percent) ... in some cases no measurable')\n",
                apps, delta);
  }
  std::printf("%s", table.render().c_str());
  std::printf("  note: 'threads running' shows the mechanism — fair share caps the sum at\n"
              "  the core count, the oversubscribed mode runs apps x cores threads.\n");
}

void BM_CoRunOversubscribed(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = co_run(2, false, 0.05);
    benchmark::DoNotOptimize(r.tasks_per_s);
  }
}
BENCHMARK(BM_CoRunOversubscribed)->Unit(benchmark::kMillisecond);

void BM_CoRunFairShare(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = co_run(2, true, 0.05);
    benchmark::DoNotOptimize(r.tasks_per_s);
  }
}
BENCHMARK(BM_CoRunFairShare)->Unit(benchmark::kMillisecond);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
