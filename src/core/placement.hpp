// Data-placement advice — the §III.A corollary the paper points at but does
// not build:
//
//   "Preferably, there should be a way to not only figure out the access
//    patterns, but also to influence where the application stores its data.
//    In the ideal case, the application should be able to move the data to a
//    different NUMA node. This would easily be possible in OCR, where the
//    runtime system is also in charge of managing the data."
//
// Given a machine, an app mix and an allocation, the advisor evaluates every
// feasible home node for each NUMA-bad application and recommends moves,
// including a payback analysis: moving B gigabytes across a link of capacity
// L costs ~B/L seconds, and the move pays off after cost / gained-GFLOP-rate
// seconds of subsequent execution.
//
// advise_joint() additionally co-optimizes placement *and* allocation, the
// fixed point of "best homes for this allocation" / "best allocation for
// these homes" — which recovers the paper's 150-GFLOPS configuration even
// from a pessimal start.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocation.hpp"
#include "core/optimizer.hpp"
#include "core/roofline.hpp"

namespace numashare::model {

struct PlacementAdvice {
  AppId app = 0;
  topo::NodeId current_home = 0;
  topo::NodeId recommended_home = 0;
  GFlops current_gflops = 0.0;    // machine total with the current home
  GFlops predicted_gflops = 0.0;  // machine total with the recommended home
  /// Seconds to move `data_gb` across the slowest link on the path (0 when
  /// no move is recommended or the caller passed data_gb = 0).
  double move_seconds = 0.0;
  /// Seconds of post-move execution after which the move has paid for
  /// itself (infinity if the move never pays off; 0 if no move).
  double payback_seconds = 0.0;

  bool move_recommended() const { return recommended_home != current_home; }
};

struct PlacementOptions {
  /// Gigabytes of application data to move (for cost/payback estimates).
  double data_gb = 0.0;
  /// Only recommend a move when it improves machine throughput by at least
  /// this relative margin (hysteresis against churn).
  double min_relative_gain = 1e-6;
};

/// Advice for every NUMA-bad app in `apps`, holding the allocation fixed.
/// NUMA-perfect apps get no entries (nothing to move).
std::vector<PlacementAdvice> advise_placement(const topo::Machine& machine,
                                              const std::vector<AppSpec>& apps,
                                              const Allocation& allocation,
                                              const PlacementOptions& options = {});

struct JointResult {
  std::vector<AppSpec> apps;  // with re-homed NUMA-bad apps
  Allocation allocation;
  Solution solution;
  std::uint32_t placement_rounds = 0;  // alternations until the fixed point
  /// SearchResult's cost counters, summed over every exhaustive_search the
  /// alternation ran.
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t bound_solves = 0;
  /// App classes of the search behind `allocation` (its homes decide them).
  std::uint32_t app_classes = 0;
};

/// Alternate allocation search and placement advice until neither improves.
/// `min_threads_per_app` keeps every app alive during the allocation step.
JointResult advise_joint(const topo::Machine& machine, std::vector<AppSpec> apps,
                         Objective objective = Objective::kTotalGflops,
                         std::uint32_t min_threads_per_app = 1);

}  // namespace numashare::model
