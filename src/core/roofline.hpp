// The paper's roofline-based NUMA bandwidth-sharing model (§III.A).
//
// Given a machine, a set of application specs and a thread allocation, the
// solver predicts per-thread achieved bandwidth and GFLOPS using the paper's
// five assumptions plus its remote-access extension:
//
//   1. every thread demands peak_gflops / AI  GB/s;
//   2. a node's memory first serves requests arriving from *other* nodes,
//      each directed flow capped by that pair's link bandwidth (and the sum
//      capped by the node bandwidth, shared proportionally when links
//      oversubscribe the controller — the paper leaves this corner open);
//   3. the remaining bandwidth is split among locally-accessing threads:
//      every core is guaranteed an equal baseline share
//      (remaining / cores_in_node), each thread takes
//      min(demand, baseline), and the leftover is distributed proportionally
//      to the still-unmet demand, water-filling until a fixed point;
//   4. achieved GFLOPS = min(granted_bandwidth * AI, peak_gflops).
//
// On the paper's examples (all unmet demands equal) step 3 reduces to the
// single proportional split the tables show; the iteration only matters for
// heterogeneous mixes and is covered by tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/app_spec.hpp"
#include "topology/machine.hpp"

namespace numashare::model {

/// Fixed background consumers per node: processes the allocator cannot
/// command (legacy jobs, batch noise) but must price. The foreign subsystem
/// (src/foreign/) estimates these from OS polling; the solver treats them as
/// opaque: their bandwidth draw is served off each controller's top before
/// any cooperating flow, and their compute share timeshares the node's cores
/// against cooperating threads. Foreign load can only *lower* cooperating
/// throughput, which is what keeps the search bounds admissible
/// (docs/FOREIGN.md "Modeling").
struct ForeignLoad {
  /// Cores consumed per node (fractional; clamped to [0, cores] by the
  /// solver). Empty means no foreign compute anywhere.
  std::vector<double> busy_cores;
  /// Bandwidth drawn at each node's memory controller, GB/s. Empty means no
  /// foreign bandwidth anywhere.
  std::vector<GBps> bandwidth;

  bool any() const {
    for (double c : busy_cores) {
      if (c > 0.0) return true;
    }
    for (GBps b : bandwidth) {
      if (b > 0.0) return true;
    }
    return false;
  }
  void clear() {
    busy_cores.clear();
    bandwidth.clear();
  }
};

struct SolveOptions {
  /// When true, the remainder is handed out in one proportional shot with no
  /// re-distribution of overshoot — the paper's literal Table I/II procedure.
  /// Identical to water-filling whenever no thread's demand is exceeded.
  bool single_shot_remainder = false;
  /// Opaque background consumers (empty vectors = none, the default). When
  /// non-empty each vector must have one entry per machine node.
  ForeignLoad foreign;
};

/// One homogeneous group of threads: all threads of `app` executing on
/// `exec_node` (they are interchangeable under the model's assumptions).
struct GroupResult {
  AppId app = 0;
  topo::NodeId exec_node = 0;
  topo::NodeId memory_node = 0;  // == exec_node unless the app is NUMA-bad
  std::uint32_t threads = 0;
  GBps per_thread_demand = 0.0;
  GBps per_thread_granted = 0.0;
  GFlops per_thread_gflops = 0.0;

  bool remote() const { return exec_node != memory_node; }
  GBps group_granted() const { return per_thread_granted * threads; }
  GFlops group_gflops() const { return per_thread_gflops * threads; }
};

/// Per-memory-controller accounting, retained for the derivation reports.
struct NodeBreakdown {
  topo::NodeId node = 0;
  GBps bandwidth = 0.0;            // the controller's peak
  GBps foreign_granted = 0.0;      // served to opaque foreign consumers, off the top
  GBps remote_demand = 0.0;        // requested by threads on other nodes
  GBps remote_granted = 0.0;       // served to them (first, link-capped)
  GBps local_demand = 0.0;         // requested by locally-running threads
  GBps baseline_per_core = 0.0;    // (bandwidth - remote_granted) / cores
  GBps local_baseline_granted = 0.0;
  GBps local_remainder_granted = 0.0;
  GBps total_granted = 0.0;        // remote + local grants
  GFlops node_gflops = 0.0;        // by *execution* node, the paper's per-node rows
};

struct Solution {
  std::vector<GroupResult> groups;
  std::vector<NodeBreakdown> nodes;
  std::vector<GFlops> app_gflops;  // indexed by AppId
  GFlops total_gflops = 0.0;

  const GroupResult* find_group(AppId app, topo::NodeId exec_node) const;
  std::string describe(const std::vector<AppSpec>& apps) const;
};

/// Reusable solver workspace. The allocation search calls the model once per
/// candidate — tens of thousands to hundreds of millions of times per
/// decision — so the solver must not touch the heap in steady state. A
/// SolveScratch owns the Solution plus the solver's internal bucketing
/// arrays; after the first call with a given problem shape, every subsequent
/// solve_into() through the same scratch performs zero heap allocations
/// (verified by tests/core/solve_scratch_test.cpp under ASan).
struct SolveScratch {
  Solution solution;

  /// Internal CSR bucketing of group indices by memory node, rebuilt per
  /// call: bucket_groups[bucket_offset[m] .. bucket_offset[m+1]) lists the
  /// groups whose memory lives on controller m, in group order.
  std::vector<std::uint32_t> bucket_cursor;
  std::vector<std::uint32_t> bucket_offset;
  std::vector<std::uint32_t> bucket_groups;

  /// Cooperating threads per execution node, used to timeshare compute
  /// against foreign busy cores. Only populated when the solve options carry
  /// a ForeignLoad; untouched (and unallocated) otherwise.
  std::vector<std::uint32_t> node_threads;
};

/// Solve the model. `allocation` must validate against `machine`; app specs
/// index-match the allocation's rows.
Solution solve(const topo::Machine& machine, const std::vector<AppSpec>& apps,
               const Allocation& allocation, const SolveOptions& options = {});

/// Hot-path variant: solve into `scratch` and return a reference to
/// scratch.solution (valid until the next call with the same scratch).
/// Performs no heap allocations once the scratch has warmed up.
///
/// Precondition (unchecked here, asserted by the public solve() wrapper):
/// `machine` and `allocation` validate — Machine::validate() itself
/// allocates, so revalidating per candidate would defeat the purpose. The
/// cheap shape checks (spec/allocation index match, positive AI, home node
/// in range) are still enforced.
const Solution& solve_into(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& allocation, SolveScratch& scratch,
                           const SolveOptions& options = {});

}  // namespace numashare::model
