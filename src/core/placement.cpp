#include "core/placement.hpp"

#include <limits>

#include "common/assert.hpp"

namespace numashare::model {

std::vector<PlacementAdvice> advise_placement(const topo::Machine& machine,
                                              const std::vector<AppSpec>& apps,
                                              const Allocation& allocation,
                                              const PlacementOptions& options,
                                              const ForeignLoad& foreign) {
  std::string error;
  NS_REQUIRE(allocation.validate(machine, &error), error.c_str());
  NS_REQUIRE(apps.size() == allocation.app_count(), "apps must index-match allocation");

  std::vector<PlacementAdvice> advice;
  const SolveOptions solve_options{.foreign = foreign};
  const Solution baseline = solve(machine, apps, allocation, solve_options);

  // One mutated-and-restored spec vector plus a reused solver scratch: the
  // per-candidate-home solves are the advisor's hot loop and used to copy
  // the whole spec vector and allocate a fresh Solution per candidate.
  SolveScratch scratch;
  std::vector<AppSpec> variant = apps;

  for (AppId a = 0; a < apps.size(); ++a) {
    if (apps[a].placement != Placement::kNumaBad) continue;

    PlacementAdvice entry;
    entry.app = a;
    entry.current_home = apps[a].home_node;
    entry.recommended_home = apps[a].home_node;
    entry.current_gflops = baseline.total_gflops;
    entry.predicted_gflops = baseline.total_gflops;

    for (topo::NodeId candidate = 0; candidate < machine.node_count(); ++candidate) {
      if (candidate == apps[a].home_node) continue;
      variant[a].home_node = candidate;
      const Solution& moved = solve_into(machine, variant, allocation, scratch, solve_options);
      if (improves(moved.total_gflops, entry.predicted_gflops)) {
        entry.predicted_gflops = moved.total_gflops;
        entry.recommended_home = candidate;
      }
    }
    variant[a].home_node = apps[a].home_node;

    const double gain = entry.predicted_gflops - entry.current_gflops;
    if (entry.move_recommended() && options.data_gb > 0.0) {
      const GBps link =
          machine.link_bandwidth(entry.current_home, entry.recommended_home);
      entry.move_seconds = link > 0.0 ? options.data_gb / link
                                      : std::numeric_limits<double>::infinity();
      // Payback: the move costs move_seconds of one link; afterwards the
      // machine gains `gain` GFLOP per second. Work lost during the move is
      // approximated as the app's own current rate (it stalls while moving).
      const double stall_gflop = entry.move_seconds * baseline.app_gflops[a];
      entry.payback_seconds = gain > 0.0
                                  ? stall_gflop / gain
                                  : std::numeric_limits<double>::infinity();
    }
    advice.push_back(entry);
  }
  return advice;
}

JointResult advise_joint(const topo::Machine& machine, std::vector<AppSpec> apps,
                         Objective objective, std::uint32_t min_threads_per_app) {
  // A move gains at the allocation it was priced on, but the next seed need
  // not keep that allocation, so the rounds are capped.
  constexpr std::uint32_t kMaxRounds = 16;
  JointResult result;
  result.apps = std::move(apps);
  for (;;) {
    auto decision = decide(machine, result.apps, objective, min_threads_per_app);
    result.evaluated += decision.search.evaluated;
    result.bound_solves += decision.search.bound_solves;
    result.allocation = std::move(decision.search.allocation);
    result.solution = std::move(decision.search.solution);
    ++result.placement_rounds;
    if (!decision.move || result.placement_rounds == kMaxRounds) break;
    result.apps[decision.move->app].home_node = decision.move->home;
  }
  return result;
}

}  // namespace numashare::model
