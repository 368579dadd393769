#include "support/search_reference.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace numashare::model {

SearchResult exhaustive_search_reference(const topo::Machine& machine,
                                         const std::vector<AppSpec>& apps, Objective objective,
                                         bool require_full, std::uint32_t min_threads_per_app,
                                         const std::vector<std::uint32_t>& caps,
                                         const ForeignLoad& foreign,
                                         const std::function<bool(const Allocation&)>& keep) {
  NS_REQUIRE(caps.empty() || caps.size() == apps.size(),
             "caps must be empty or one per app");
  std::uint32_t min_cores = machine.cores_in_node(0);
  for (topo::NodeId n = 1; n < machine.node_count(); ++n) {
    min_cores = std::min(min_cores, machine.cores_in_node(n));
  }
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  min_threads_per_app = std::min(min_threads_per_app, min_cores / std::max(1u, apps_n));
  auto candidates = enumerate_uniform(machine, apps_n, require_full, min_threads_per_app);
  if (apps.size() == machine.node_count()) {
    auto perms = enumerate_node_permutations(machine);
    candidates.insert(candidates.end(), perms.begin(), perms.end());
  }
  if (keep) std::erase_if(candidates, [&](const Allocation& c) { return !keep(c); });
  NS_REQUIRE(!candidates.empty(), "no candidate allocations");
  if (!caps.empty()) {
    for (auto& candidate : candidates) apply_caps(machine, candidate, caps);
  }
  SolveOptions solve_options;
  solve_options.foreign = foreign;

  SearchResult best;
  best.objective_value = -std::numeric_limits<double>::infinity();
  for (const auto& candidate : candidates) {
    Solution solution = solve(machine, apps, candidate, solve_options);
    ++best.evaluated;
    ++best.visited;
    const double value = score(solution, objective);
    if (improves(value, best.objective_value)) {
      best.objective_value = value;
      best.allocation = candidate;
      best.solution = std::move(solution);
    }
  }
  return best;
}

SearchResult exact_allocation_reference(const topo::Machine& machine,
                                        const std::vector<AppSpec>& apps, Objective objective,
                                        std::uint32_t min_total_threads) {
  NS_REQUIRE(!apps.empty(), "no apps");
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  const std::uint32_t cells = apps_n * machine.node_count();
  Allocation allocation(apps_n, machine.node_count());
  SearchResult best;
  best.objective_value = -std::numeric_limits<double>::infinity();
  // Cell c is app c % apps_n on node c / apps_n; `free` is what the cell's
  // node has left after the apps before it.
  const std::function<void(std::uint32_t, std::uint32_t)> visit = [&](std::uint32_t c,
                                                                      std::uint32_t free) {
    if (c == cells) {
      for (AppId a = 0; a < apps_n; ++a) {
        if (allocation.app_total(a) < min_total_threads) return;
      }
      Solution solution = solve(machine, apps, allocation);
      ++best.evaluated;
      ++best.visited;
      const double value = score(solution, objective);
      if (improves(value, best.objective_value)) {
        best.objective_value = value;
        best.allocation = allocation;
        best.solution = std::move(solution);
      }
      return;
    }
    const auto app = static_cast<AppId>(c % apps_n);
    const auto node = static_cast<topo::NodeId>(c / apps_n);
    if (app == 0) free = machine.cores_in_node(node);
    for (std::uint32_t threads = 0; threads <= free; ++threads) {
      allocation.set_threads(app, node, threads);
      visit(c + 1, free - threads);
    }
    allocation.set_threads(app, node, 0);
  };
  visit(0, 0);
  NS_REQUIRE(best.evaluated > 0, "no allocation meets the floor");
  return best;
}

}  // namespace numashare::model
