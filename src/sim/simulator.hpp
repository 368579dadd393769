// Scenario-level simulation driver.
//
// Runs a set of model::AppSpec applications on a MachineSim for a stretch of
// virtual time, accumulating per-app work. An optional controller callback
// fires at a fixed cadence and may swap the allocation mid-run — this is the
// hook the agent-policy experiments use to study dynamic reallocation (the
// paper's "quickly shifting resources" discussion) without real threads.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/allocation.hpp"
#include "core/app_spec.hpp"
#include "sim/machine_sim.hpp"
#include "trace/trace.hpp"

namespace numashare::sim {

struct AppProgress {
  double gflop_done = 0.0;
  double gbytes_moved = 0.0;
  /// Average rate since the previous controller tick.
  GFlops recent_gflops = 0.0;
};

struct Measurement {
  double duration_s = 0.0;
  std::vector<double> app_gflop_total;   // work done per app
  std::vector<GFlops> app_gflops;        // mean rate per app
  GFlops total_gflops = 0.0;             // mean machine rate
  std::uint64_t epochs = 0;
  std::uint32_t reallocations = 0;       // controller-initiated switches
};

struct SimulationOptions {
  /// Cost of an allocation switch: for this stretch of virtual time after a
  /// reallocation, every thread runs at half its granted rate (threads
  /// unblocking, caches re-warming — the price of the paper's "quickly
  /// shifting resources"). 0 = switches are free.
  double reallocation_penalty_s = 0.0;
  /// Optional recorder (non-owning): per-app GFLOPS counters at every
  /// controller tick (lane = app id) plus instants for reallocations.
  /// Timestamps are *virtual* seconds mapped to trace microseconds.
  trace::Tracer* tracer = nullptr;
};

class Simulation {
 public:
  /// now, per-app progress -> replacement allocation (or nullopt to keep).
  using Controller =
      std::function<std::optional<model::Allocation>(double, const std::vector<AppProgress>&)>;

  Simulation(MachineSim machine_sim, std::vector<model::AppSpec> apps,
             model::Allocation allocation, SimulationOptions options = {});

  const model::Allocation& allocation() const { return allocation_; }
  void set_allocation(model::Allocation allocation);

  /// Phase changes: swap an application's arithmetic intensity (and
  /// optionally its placement) mid-run; takes effect next epoch.
  void set_app_ai(model::AppId app, ArithmeticIntensity ai);
  const model::AppSpec& app(model::AppId id) const;

  /// Advance `duration_s` seconds in `dt`-second epochs. The controller (if
  /// any) runs every `control_interval_s` of virtual time. Accumulators
  /// carry across run() calls; the returned Measurement covers this call.
  Measurement run(double duration_s, double dt = 1e-3, const Controller& controller = nullptr,
                  double control_interval_s = 0.01);

  const std::vector<AppProgress>& progress() const { return progress_; }
  double now() const { return now_; }

 private:
  std::vector<GroupLoad> build_loads() const;

  MachineSim machine_sim_;
  std::vector<model::AppSpec> apps_;
  model::Allocation allocation_;
  SimulationOptions options_;
  std::vector<AppProgress> progress_;
  double now_ = 0.0;
  /// Virtual time until which the reallocation penalty applies.
  double penalty_until_ = 0.0;
};

/// One-call helper: simulate `apps` under `allocation` for `duration_s` and
/// return the mean total GFLOPS. Used by the Table III bench.
Measurement simulate_scenario(const topo::Machine& machine, const std::vector<model::AppSpec>& apps,
                              const model::Allocation& allocation, const SimEffects& effects,
                              double duration_s = 1.0, std::uint64_t seed = 0x5eed);

}  // namespace numashare::sim
