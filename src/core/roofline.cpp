#include "core/roofline.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "core/roofline_detail.hpp"

namespace numashare::model {

namespace {

constexpr double kEps = 1e-12;
/// Stop water-filling after this many rounds. Each round either exhausts the
/// pool or satisfies at least one thread group, so node_count rounds always
/// suffice; the cap is a safety net.
constexpr std::uint32_t kMaxWaterfillRounds = 64;

GFlops core_peak_on_node(const topo::Machine& machine, topo::NodeId node) {
  const auto& n = machine.node(node);
  NS_ASSERT(!n.cores.empty());
  return machine.core(n.cores.front()).peak_gflops;
}

}  // namespace

const GroupResult* Solution::find_group(AppId app, topo::NodeId exec_node) const {
  for (const auto& g : groups) {
    if (g.app == app && g.exec_node == exec_node) return &g;
  }
  return nullptr;
}

std::string Solution::describe(const std::vector<AppSpec>& apps) const {
  std::string out;
  for (AppId a = 0; a < app_gflops.size(); ++a) {
    const std::string& name = a < apps.size() ? apps[a].name : "app";
    out += ns_format("  {} ({}): {} GFLOPS\n", name, a, fmt_compact(app_gflops[a], 4));
  }
  out += ns_format("  total: {} GFLOPS\n", fmt_compact(total_gflops, 4));
  return out;
}

Solution solve(const topo::Machine& machine, const std::vector<AppSpec>& apps,
               const Allocation& allocation, const SolveOptions& options) {
  std::string error;
  NS_REQUIRE(machine.validate(&error), error.c_str());
  NS_REQUIRE(allocation.validate(machine, &error), error.c_str());
  SolveScratch scratch;
  solve_into(machine, apps, allocation, scratch, options);
  return std::move(scratch.solution);
}

namespace detail {

void require_solvable(const topo::Machine& machine, const std::vector<AppSpec>& apps) {
  for (const auto& app : apps) {
    NS_REQUIRE(app.ai > 0.0, "arithmetic intensity must be positive");
    if (app.placement == Placement::kNumaBad) {
      NS_REQUIRE(app.home_node < machine.node_count(), "NUMA-bad home node out of range");
    }
    NS_REQUIRE(app.serial_fraction < 1.0, "serial fraction must be in [0, 1)");
  }
}

void solve_controller(const topo::Machine& machine, topo::NodeId m, GroupResult* groups,
                      const std::uint32_t* members, std::uint32_t count,
                      const SolveOptions& options, NodeBreakdown& breakdown) {
  const ForeignLoad& foreign = options.foreign;
  breakdown = NodeBreakdown{};
  breakdown.node = m;
  breakdown.bandwidth = machine.node(m).memory_bandwidth;
  // Opaque foreign consumers are served off the top: they are running
  // regardless of what the allocator decides, so cooperating flows compete
  // for only what they leave behind.
  const GBps foreign_bw = m < foreign.bandwidth.size() ? std::max(0.0, foreign.bandwidth[m]) : 0.0;
  breakdown.foreign_granted = std::min(foreign_bw, breakdown.bandwidth);
  const GBps coop_bandwidth = breakdown.bandwidth - breakdown.foreign_granted;

  // 2a. Remote flows first, each capped by its directed link. The flow
  //     grant (whole-group GB/s) is stashed in per_thread_granted until
  //     the optional proportional rescale, then converted to per-thread.
  GBps remote_total = 0.0;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& g = groups[members[i]];
    if (g.exec_node == m) continue;
    const GBps flow_demand = g.per_thread_demand * g.threads;
    const GBps link = machine.link_bandwidth(g.exec_node, m);
    g.per_thread_granted = std::min(flow_demand, link);
    breakdown.remote_demand += flow_demand;
    remote_total += g.per_thread_granted;
  }
  // The paper does not say what happens when the links together exceed the
  // controller; we scale the flows proportionally so the controller's peak
  // is never exceeded.
  double remote_scale = 1.0;
  if (remote_total > coop_bandwidth + kEps) {
    remote_scale = coop_bandwidth / remote_total;
    remote_total = coop_bandwidth;
  }
  breakdown.remote_granted = remote_total;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& g = groups[members[i]];
    if (g.exec_node == m) continue;
    if (remote_scale != 1.0) g.per_thread_granted *= remote_scale;
    g.per_thread_granted /= g.threads;
  }

  // 2b. Locals split the remainder: equal per-core baseline ...
  const GBps remaining = std::max(0.0, coop_bandwidth - remote_total);
  const double cores = machine.cores_in_node(m);
  breakdown.baseline_per_core = remaining / cores;
  GBps pool = remaining;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& g = groups[members[i]];
    if (g.exec_node != m) continue;
    breakdown.local_demand += g.per_thread_demand * g.threads;
    g.per_thread_granted = std::min(g.per_thread_demand, breakdown.baseline_per_core);
    pool -= g.per_thread_granted * g.threads;
    breakdown.local_baseline_granted += g.per_thread_granted * g.threads;
  }

  // 2c. ... then the leftover, proportional to unmet demand (water-fill).
  for (std::uint32_t round = 0; round < kMaxWaterfillRounds; ++round) {
    if (pool <= kEps) break;
    double weighted_deficit = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto& g = groups[members[i]];
      if (g.exec_node != m) continue;
      weighted_deficit += (g.per_thread_demand - g.per_thread_granted) * g.threads;
    }
    if (weighted_deficit <= kEps) break;
    GBps distributed = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      auto& g = groups[members[i]];
      if (g.exec_node != m) continue;
      const GBps deficit = g.per_thread_demand - g.per_thread_granted;
      if (deficit <= kEps) continue;
      const GBps share_per_thread = pool * deficit / weighted_deficit;
      const GBps take = std::min(deficit, share_per_thread);
      g.per_thread_granted += take;
      distributed += take * g.threads;
    }
    breakdown.local_remainder_granted += distributed;
    pool -= distributed;
    if (options.single_shot_remainder) break;
    if (distributed <= kEps) break;
  }
  breakdown.total_granted = breakdown.foreign_granted + breakdown.remote_granted +
                            breakdown.local_baseline_granted +
                            breakdown.local_remainder_granted;
  NS_ASSERT(breakdown.total_granted <= breakdown.bandwidth * (1.0 + 1e-9) + kEps);
}

double compute_share(const topo::Machine& machine, const ForeignLoad& foreign,
                     topo::NodeId node, std::uint32_t threads) {
  if (node >= foreign.busy_cores.size()) return 1.0;
  const double cores = machine.cores_in_node(node);
  const double busy = std::min(std::max(0.0, foreign.busy_cores[node]), cores);
  if (busy <= 0.0 || threads == 0) return 1.0;
  const double avail = std::max(0.0, cores - busy);
  return std::min(1.0, avail / threads);
}

GFlops amdahl_cap(const AppSpec& app, GFlops thread_peak_sum, std::uint32_t threads) {
  return (thread_peak_sum / threads) * app.effective_threads(threads);
}

}  // namespace detail

const Solution& solve_into(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& allocation, SolveScratch& scratch,
                           const SolveOptions& options) {
  NS_REQUIRE(apps.size() == allocation.app_count(),
             "app specs must index-match the allocation");
  detail::require_solvable(machine, apps);
  const ForeignLoad& foreign = options.foreign;
  const bool has_foreign = !foreign.busy_cores.empty() || !foreign.bandwidth.empty();
  if (!foreign.busy_cores.empty()) {
    NS_REQUIRE(foreign.busy_cores.size() == machine.node_count(),
               "foreign busy_cores must have one entry per node");
  }
  if (!foreign.bandwidth.empty()) {
    NS_REQUIRE(foreign.bandwidth.size() == machine.node_count(),
               "foreign bandwidth must have one entry per node");
  }

  Solution& solution = scratch.solution;
  solution.groups.clear();
  solution.app_gflops.assign(apps.size(), 0.0);
  solution.nodes.assign(machine.node_count(), NodeBreakdown{});
  solution.total_gflops = 0.0;

  // 1. Build homogeneous thread groups.
  for (AppId a = 0; a < apps.size(); ++a) {
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      const std::uint32_t t = allocation.threads(a, n);
      if (t == 0) continue;
      GroupResult group;
      group.app = a;
      group.exec_node = n;
      group.memory_node = apps[a].memory_node(n);
      group.threads = t;
      group.per_thread_demand = demand_gbps(core_peak_on_node(machine, n), apps[a].ai);
      solution.groups.push_back(group);
    }
  }

  // 1b. Bucket groups by memory controller (CSR): one counting pass, one
  //     scatter. Group order is preserved within each bucket, so the
  //     controller loops below visit groups in exactly the order the old
  //     filter-into-pointer-vectors code did.
  const std::uint32_t group_count = static_cast<std::uint32_t>(solution.groups.size());
  scratch.bucket_offset.assign(machine.node_count() + 1, 0);
  for (const auto& g : solution.groups) ++scratch.bucket_offset[g.memory_node + 1];
  for (topo::NodeId m = 0; m < machine.node_count(); ++m) {
    scratch.bucket_offset[m + 1] += scratch.bucket_offset[m];
  }
  scratch.bucket_cursor.assign(scratch.bucket_offset.begin(),
                               scratch.bucket_offset.end() - 1);
  scratch.bucket_groups.resize(group_count);
  for (std::uint32_t i = 0; i < group_count; ++i) {
    scratch.bucket_groups[scratch.bucket_cursor[solution.groups[i].memory_node]++] = i;
  }

  // 2. Solve each memory controller independently (the model couples nodes
  //    only through the static link caps, so controllers are separable).
  for (topo::NodeId m = 0; m < machine.node_count(); ++m) {
    const std::uint32_t begin = scratch.bucket_offset[m];
    detail::solve_controller(machine, m, solution.groups.data(),
                             scratch.bucket_groups.data() + begin,
                             scratch.bucket_offset[m + 1] - begin, options, solution.nodes[m]);
  }

  // 3. Roofline: bandwidth -> GFLOPS, capped at the compute peak. Foreign
  //    busy cores timeshare the node: with F foreign cores busy out of C and
  //    T cooperating threads placed there, each cooperating thread can hold
  //    at most min(1, (C - F) / T) of a core, derating its compute peak.
  //    (Bandwidth demand is left at the full-peak figure: a timeshared
  //    thread still issues the same stream when scheduled, and keeping
  //    demand fixed preserves the paper's split arithmetic.)
  if (has_foreign) {
    scratch.node_threads.assign(machine.node_count(), 0);
    for (const auto& g : solution.groups) scratch.node_threads[g.exec_node] += g.threads;
  }
  const auto compute_share = [&](topo::NodeId n) -> double {
    return has_foreign ? detail::compute_share(machine, foreign, n, scratch.node_threads[n])
                       : 1.0;
  };
  for (auto& g : solution.groups) {
    const GFlops peak = core_peak_on_node(machine, g.exec_node) * compute_share(g.exec_node);
    g.per_thread_gflops = achieved_gflops(g.per_thread_granted, apps[g.app].ai, peak);
  }

  // 3b. Sub-linear scaling (paper §II): an app with a serial fraction cannot
  //     exceed (mean per-thread peak) x Amdahl-effective-threads regardless
  //     of bandwidth; when the cap binds, every group of that app is derated
  //     proportionally (the stalled time is spread over its threads). The
  //     mean is thread-weighted so an app spanning nodes with different core
  //     peaks is capped by the compute it actually has, not by its single
  //     fastest node.
  for (AppId a = 0; a < apps.size(); ++a) {
    if (apps[a].serial_fraction <= 0.0) continue;
    GFlops raw = 0.0;
    GFlops thread_peak_sum = 0.0;  // sum over threads of their core's peak
    std::uint32_t threads = 0;
    for (const auto& g : solution.groups) {
      if (g.app != a) continue;
      raw += g.group_gflops();
      threads += g.threads;
      thread_peak_sum +=
          g.threads * core_peak_on_node(machine, g.exec_node) * compute_share(g.exec_node);
    }
    if (threads == 0 || raw <= 0.0) continue;
    const GFlops cap = detail::amdahl_cap(apps[a], thread_peak_sum, threads);
    if (raw <= cap) continue;
    const double derate = cap / raw;
    for (auto& g : solution.groups) {
      if (g.app == a) g.per_thread_gflops *= derate;
    }
  }

  for (auto& g : solution.groups) {
    solution.app_gflops[g.app] += g.group_gflops();
    solution.nodes[g.exec_node].node_gflops += g.group_gflops();
    solution.total_gflops += g.group_gflops();
  }
  return solution;
}

}  // namespace numashare::model
