// The paper's tight-integration scenario (§II): "one application might use
// the other application like a library, delegating a specific job to it
// whenever needed. In this case, quickly shifting resources to the 'library'
// application when it is called could improve efficiency."
//
// A "main" application computes in phases; between phases it delegates a
// burst of work to a separate "library" application (its own runtime). A
// small delegation-aware policy watches the library's outstanding work and
// snaps the core split to library-heavy while the call is in flight, then
// back. The ticker shows cores following the call structure.
//
// Usage: ./examples/library_delegation [calls]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"

using namespace numashare;
using namespace std::chrono_literals;

namespace {

void work_unit() {
  volatile double x = 1.0;
  for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 1e-9;
}

/// Shift cores to whichever app has outstanding work, favouring the library
/// during calls (the paper's "quickly shifting resources").
class DelegationPolicy final : public agent::Policy {
 public:
  const char* name() const override { return "delegation"; }

  std::vector<agent::Directive> decide(const topo::Machine& machine,
                                       const std::vector<agent::AppView>& views) override {
    std::vector<agent::Directive> out(views.size(), agent::Directive::none());
    if (views.size() != 2 || !views[0].has_telemetry || !views[1].has_telemetry) return out;
    const bool library_busy = views[1].latest.outstanding_tasks > 0;
    const std::uint32_t cores = machine.core_count();
    // Library gets almost everything while a call is in flight; the main app
    // keeps one core so it can submit/collect.
    const std::uint32_t library_share = library_busy ? cores - 1 : 0;
    if (library_share == current_) return out;
    current_ = library_share;
    out[0] = agent::Directive::total(cores - std::max(1u, library_share));
    out[1] = agent::Directive::total(std::max(1u, library_share));
    return out;
  }

 private:
  std::uint32_t current_ = ~0u;
};

}  // namespace

int main(int argc, char** argv) {
  const int calls = argc > 1 ? std::atoi(argv[1]) : 4;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);

  rt::Runtime main_app(machine, {.name = "main-app"});
  rt::Runtime library(machine, {.name = "library"});

  agent::ShmChannel main_channel, library_channel;
  agent::RuntimeAdapter main_adapter(main_app, main_channel);
  agent::RuntimeAdapter library_adapter(library, library_channel);
  agent::Agent coordinator(machine, std::make_unique<DelegationPolicy>(),
                           {.period_us = 500});
  coordinator.add_app("main-app", main_channel);
  coordinator.add_app("library", library_channel);
  main_adapter.start(250);
  library_adapter.start(250);
  coordinator.start();

  std::atomic<bool> ticker_stop{false};
  std::thread ticker([&] {
    std::printf("%10s %14s %14s\n", "t(ms)", "main threads", "library threads");
    const auto start = std::chrono::steady_clock::now();
    while (!ticker_stop.load()) {
      const double ms =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() *
          1e3;
      std::printf("%10.0f %14u %14u\n", ms, main_app.running_threads(),
                  library.running_threads());
      std::this_thread::sleep_for(60ms);
    }
  });

  for (int call = 0; call < calls; ++call) {
    // Phase 1: the main app computes on its own.
    auto phase = main_app.create_latch(8);
    for (int i = 0; i < 8; ++i) {
      main_app.spawn([&](rt::TaskContext&) {
        work_unit();
        phase->count_down();
      });
    }
    phase->wait();

    // Phase 2: delegate a burst to the library app and wait for it. The
    // policy sees the library's outstanding tasks and shifts the cores.
    std::printf("-- call %d: delegating to library --\n", call + 1);
    auto job = library.create_latch(24);
    for (int i = 0; i < 24; ++i) {
      library.spawn([&](rt::TaskContext&) {
        work_unit();
        job->count_down();
      });
    }
    job->wait();
    main_app.report_progress();
  }

  ticker_stop.store(true);
  ticker.join();
  coordinator.stop();
  main_adapter.stop();
  library_adapter.stop();
  main_app.wait_idle();
  library.wait_idle();

  std::printf("\n%d delegated calls completed; library executed %llu tasks, "
              "main app %llu.\n",
              calls,
              static_cast<unsigned long long>(library.stats().tasks_executed),
              static_cast<unsigned long long>(main_app.stats().tasks_executed));
  std::printf("The thread ticker above shows cores snapping to the library during "
              "each call\nand back between calls — the paper's tight-integration "
              "resource shift.\n");
  return 0;
}
