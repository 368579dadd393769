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
// model::decide (optimizer.hpp) runs the advisor on every decision it makes
// and suggests at most one move; advise_joint() loops it offline, applying
// each suggested move, which recovers the paper's 150-GFLOPS configuration
// even from a pessimal start.
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
};

/// Advice for every NUMA-bad app in `apps`, holding the allocation fixed and
/// pricing `foreign` (empty = none). NUMA-perfect apps get no entries
/// (nothing to move). A home is recommended only when it improves() the
/// machine total over the current one, the margin every model search uses,
/// so a near-tie never moves data.
std::vector<PlacementAdvice> advise_placement(const topo::Machine& machine,
                                              const std::vector<AppSpec>& apps,
                                              const Allocation& allocation,
                                              const PlacementOptions& options = {},
                                              const ForeignLoad& foreign = {});

struct JointResult {
  std::vector<AppSpec> apps;  // with re-homed NUMA-bad apps
  Allocation allocation;
  Solution solution;
  std::uint32_t placement_rounds = 0;  // decides run (moves applied + 1)
  /// The decides' solve counters, summed over every round.
  std::uint64_t evaluated = 0;
  std::uint64_t bound_solves = 0;
};

/// Decide, apply the suggested home move, and repeat until a decide
/// suggests none (at most 16 rounds); `allocation` is the last decide's.
JointResult advise_joint(const topo::Machine& machine, std::vector<AppSpec> apps,
                         Objective objective = Objective::kTotalGflops,
                         std::uint32_t min_threads_per_app = 1);

}  // namespace numashare::model
