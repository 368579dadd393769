// The pieces of solve_into that the allocation search's node-class
// evaluator (optimizer.cpp, docs/MODEL.md §7) also runs, declared apart from
// the public solver API so the model's arithmetic exists exactly once.
#pragma once

#include <cstdint>
#include <vector>

#include "core/roofline.hpp"

namespace numashare::model::detail {

/// The per-spec checks every solve makes: positive AI, NUMA-bad home node
/// in range, serial fraction below 1.
void require_solvable(const topo::Machine& machine, const std::vector<AppSpec>& apps);

/// Step 2 at memory controller `m`: foreign draw off the top, then remote
/// flows (link-capped), then the locals' per-core baseline and water-filled
/// remainder. `members[0, count)` index the groups in `groups` whose memory
/// lives on `m`, in group order; each one's per_thread_granted is written.
/// `breakdown` is overwritten.
void solve_controller(const topo::Machine& machine, topo::NodeId m, GroupResult* groups,
                      const std::uint32_t* members, std::uint32_t count,
                      const SolveOptions& options, NodeBreakdown& breakdown);

/// Share of a core each of `threads` cooperating threads on `node` holds
/// next to the node's foreign busy cores: min(1, (C - F) / T), or 1 when the
/// node has no foreign compute.
double compute_share(const topo::Machine& machine, const ForeignLoad& foreign,
                     topo::NodeId node, std::uint32_t threads);

/// Amdahl ceiling on an app's aggregate GFLOPS: the thread-weighted mean
/// core peak times the effective thread count.
GFlops amdahl_cap(const AppSpec& app, GFlops thread_peak_sum, std::uint32_t threads);

}  // namespace numashare::model::detail
