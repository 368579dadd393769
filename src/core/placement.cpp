#include "core/placement.hpp"

#include <limits>

#include "common/assert.hpp"

namespace numashare::model {

std::vector<PlacementAdvice> advise_placement(const topo::Machine& machine,
                                              const std::vector<AppSpec>& apps,
                                              const Allocation& allocation,
                                              const PlacementOptions& options) {
  std::string error;
  NS_REQUIRE(allocation.validate(machine, &error), error.c_str());
  NS_REQUIRE(apps.size() == allocation.app_count(), "apps must index-match allocation");

  std::vector<PlacementAdvice> advice;
  const Solution baseline = solve(machine, apps, allocation);

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
      const Solution& moved = solve_into(machine, variant, allocation, scratch);
      if (moved.total_gflops > entry.predicted_gflops) {
        entry.predicted_gflops = moved.total_gflops;
        entry.recommended_home = candidate;
      }
    }
    variant[a].home_node = apps[a].home_node;

    const double gain = entry.predicted_gflops - entry.current_gflops;
    if (gain <= options.min_relative_gain * entry.current_gflops) {
      entry.recommended_home = entry.current_home;
      entry.predicted_gflops = entry.current_gflops;
    }
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
  JointResult result;
  result.apps = std::move(apps);
  const auto search_for = [&](const std::vector<AppSpec>& homes) {
    auto search = exhaustive_search(machine, homes, objective, /*require_full=*/true,
                                    min_threads_per_app);
    result.evaluated += search.evaluated;
    result.pruned += search.pruned;
    result.bound_solves += search.bound_solves;
    return search;
  };

  for (std::uint32_t round = 0; round < 16; ++round) {
    // 1. best allocation for the current homes.
    auto search = search_for(result.apps);
    // 2. best single home move for that allocation. Each advice entry is
    //    computed with the *other* homes fixed, so only one move per round
    //    may be applied — applying several at once can oscillate (two bad
    //    apps sharing a home would hop together forever). One exact move
    //    strictly improves the score, which guarantees termination.
    bool moved = false;
    const auto advice = advise_placement(machine, result.apps, search.allocation);
    const PlacementAdvice* best_move = nullptr;
    for (const auto& entry : advice) {
      if (!entry.move_recommended()) continue;
      if (best_move == nullptr ||
          entry.predicted_gflops - entry.current_gflops >
              best_move->predicted_gflops - best_move->current_gflops) {
        best_move = &entry;
      }
    }
    if (best_move != nullptr) {
      result.apps[best_move->app].home_node = best_move->recommended_home;
      moved = true;
    }
    // 3. Lookahead when the simple alternation is at a fixed point: a home
    //    move may only pay off *together with* a different allocation (e.g.
    //    two NUMA-bad apps sharing a home tie every allocation, so neither
    //    single step improves). Try each (app, home) jointly with a fresh
    //    allocation search and take the best that improves() on the score.
    if (!moved) {
      double best_value = score(search.solution, objective);
      AppId best_app = 0;
      topo::NodeId best_home = 0;
      bool found = false;
      std::vector<AppSpec> variant = result.apps;  // mutated per (app, home), restored
      for (AppId a = 0; a < result.apps.size(); ++a) {
        if (result.apps[a].placement != Placement::kNumaBad) continue;
        for (topo::NodeId home = 0; home < machine.node_count(); ++home) {
          if (home == result.apps[a].home_node) continue;
          variant[a].home_node = home;
          const auto rehomed = search_for(variant);
          const double value = score(rehomed.solution, objective);
          if (improves(value, best_value)) {
            best_value = value;
            best_app = a;
            best_home = home;
            found = true;
          }
        }
        variant[a].home_node = result.apps[a].home_node;
      }
      if (found) {
        result.apps[best_app].home_node = best_home;
        moved = true;
      }
    }
    if (moved) {
      // Re-solve with the new homes so the recorded solution is consistent.
      search = search_for(result.apps);
    }
    result.allocation = search.allocation;
    result.solution = std::move(search.solution);
    result.app_classes = search.app_classes;
    result.placement_rounds = round + 1;
    if (!moved) break;
  }
  return result;
}

}  // namespace numashare::model
