#include "sim/simulator.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace numashare::sim {

namespace {

/// Rate every thread keeps, as a fraction of its grant, for
/// SimulationOptions::reallocation_penalty_s after a reallocation.
constexpr double kReallocationEfficiency = 0.5;

}  // namespace

Simulation::Simulation(MachineSim machine_sim, std::vector<model::AppSpec> apps,
                       model::Allocation allocation, SimulationOptions options)
    : machine_sim_(std::move(machine_sim)),
      apps_(std::move(apps)),
      allocation_(std::move(allocation)),
      options_(options),
      progress_(apps_.size()) {
  std::string error;
  NS_REQUIRE(allocation_.validate(machine_sim_.machine(), &error), error.c_str());
  NS_REQUIRE(apps_.size() == allocation_.app_count(), "apps must index-match allocation");
  NS_REQUIRE(options_.reallocation_penalty_s >= 0.0, "penalty must be non-negative");
}

void Simulation::set_allocation(model::Allocation allocation) {
  std::string error;
  NS_REQUIRE(allocation.validate(machine_sim_.machine(), &error), error.c_str());
  NS_REQUIRE(allocation.app_count() == apps_.size(), "apps must index-match allocation");
  if (!(allocation == allocation_)) {
    penalty_until_ = now_ + options_.reallocation_penalty_s;
  }
  allocation_ = std::move(allocation);
}

void Simulation::set_app_ai(model::AppId app, ArithmeticIntensity ai) {
  NS_REQUIRE(app < apps_.size(), "app id out of range");
  NS_REQUIRE(ai > 0.0, "arithmetic intensity must be positive");
  apps_[app].ai = ai;
}

const model::AppSpec& Simulation::app(model::AppId id) const {
  NS_REQUIRE(id < apps_.size(), "app id out of range");
  return apps_[id];
}

std::vector<GroupLoad> Simulation::build_loads() const {
  const auto& machine = machine_sim_.machine();
  std::vector<GroupLoad> loads;
  for (model::AppId a = 0; a < apps_.size(); ++a) {
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      const std::uint32_t t = allocation_.threads(a, n);
      if (t == 0) continue;
      GroupLoad load;
      load.exec_node = n;
      load.memory_node = apps_[a].memory_node(n);
      load.threads = t;
      const GFlops peak = machine.core(machine.node(n).cores.front()).peak_gflops;
      load.per_thread_demand = demand_gbps(peak, apps_[a].ai);
      load.ai = apps_[a].ai;
      load.numa_bad = apps_[a].placement == model::Placement::kNumaBad;
      loads.push_back(load);
    }
  }
  return loads;
}

Measurement Simulation::run(double duration_s, double dt, const Controller& controller,
                            double control_interval_s) {
  NS_REQUIRE(duration_s > 0.0 && dt > 0.0, "positive duration and epoch length required");
  NS_REQUIRE(control_interval_s >= dt, "control interval must cover at least one epoch");

  Measurement m;
  m.app_gflop_total.assign(apps_.size(), 0.0);
  m.app_gflops.assign(apps_.size(), 0.0);

  std::vector<double> since_tick(apps_.size(), 0.0);
  const double end = now_ + duration_s;
  double next_control = now_ + control_interval_s;

  while (now_ < end - 1e-12) {
    const double step = std::min(dt, end - now_);
    // Group order tracks (app, node) iteration order in build_loads; map the
    // grants back by replaying the same iteration.
    const auto loads = build_loads();
    const auto grants = machine_sim_.epoch(loads, step);
    // Post-reallocation transient: threads are mid-unblock / cache-cold.
    const double efficiency =
        now_ < penalty_until_ ? kReallocationEfficiency : 1.0;

    // Sub-linear scaling (Amdahl, mirrors the model's §3b step): cap each
    // app's epoch work at peak x effective-threads and derate its groups.
    std::vector<double> amdahl_derate(apps_.size(), 1.0);
    {
      std::size_t gi = 0;
      std::vector<double> raw(apps_.size(), 0.0);
      std::vector<double> peak(apps_.size(), 0.0);
      for (model::AppId a = 0; a < apps_.size(); ++a) {
        for (topo::NodeId n = 0; n < machine_sim_.machine().node_count(); ++n) {
          if (allocation_.threads(a, n) == 0) continue;
          raw[a] += grants[gi].group_gflop;
          const auto& node = machine_sim_.machine().node(n);
          peak[a] =
              std::max(peak[a], machine_sim_.machine().core(node.cores.front()).peak_gflops);
          ++gi;
        }
        if (apps_[a].serial_fraction > 0.0 && raw[a] > 0.0) {
          const double cap =
              peak[a] * apps_[a].effective_threads(allocation_.app_total(a)) * step;
          if (raw[a] > cap) amdahl_derate[a] = cap / raw[a];
        }
      }
    }

    std::size_t g = 0;
    for (model::AppId a = 0; a < apps_.size(); ++a) {
      for (topo::NodeId n = 0; n < machine_sim_.machine().node_count(); ++n) {
        if (allocation_.threads(a, n) == 0) continue;
        const double scale = efficiency * amdahl_derate[a];
        const double gflop = grants[g].group_gflop * scale;
        const double gbytes = grants[g].group_gbytes * efficiency;
        progress_[a].gflop_done += gflop;
        progress_[a].gbytes_moved += gbytes;
        m.app_gflop_total[a] += gflop;
        since_tick[a] += gflop;
        ++g;
      }
    }
    NS_ASSERT(g == grants.size());
    now_ += step;
    ++m.epochs;

    if (now_ >= next_control - 1e-12) {
      for (model::AppId a = 0; a < apps_.size(); ++a) {
        progress_[a].recent_gflops = since_tick[a] / control_interval_s;
        since_tick[a] = 0.0;
        if (options_.tracer != nullptr) {
          // Virtual seconds -> trace microseconds keeps plots readable.
          options_.tracer->span("gflops", "sim", a, (now_ - control_interval_s) * 1e6,
                                control_interval_s * 1e6);
          options_.tracer->counter("gflops", "sim", a, progress_[a].recent_gflops);
        }
      }
      if (controller) {
        if (auto replacement = controller(now_, progress_)) {
          if (!(*replacement == allocation_)) {
            set_allocation(std::move(*replacement));
            ++m.reallocations;
            if (options_.tracer != nullptr) {
              options_.tracer->instant("reallocation", "sim",
                                       static_cast<std::uint32_t>(apps_.size()));
            }
          }
        }
      }
      next_control += control_interval_s;
    }
  }

  m.duration_s = duration_s;
  for (model::AppId a = 0; a < apps_.size(); ++a) {
    m.app_gflops[a] = m.app_gflop_total[a] / duration_s;
    m.total_gflops += m.app_gflops[a];
  }
  return m;
}

Measurement simulate_scenario(const topo::Machine& machine, const std::vector<model::AppSpec>& apps,
                              const model::Allocation& allocation, const SimEffects& effects,
                              double duration_s, std::uint64_t seed) {
  Simulation simulation(MachineSim(machine, effects, seed), apps, allocation);
  return simulation.run(duration_s);
}

}  // namespace numashare::sim
