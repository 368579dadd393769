#include "sim/machine_sim.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace numashare::sim {

namespace {
constexpr double kEps = 1e-12;
}

MachineSim::MachineSim(topo::Machine machine, SimEffects effects, std::uint64_t seed)
    : machine_(std::move(machine)), effects_(effects), rng_(seed) {
  std::string error;
  NS_REQUIRE(machine_.validate(&error), error.c_str());
}

std::vector<GroupGrant> MachineSim::epoch(const std::vector<GroupLoad>& loads, double dt) {
  NS_REQUIRE(dt > 0.0, "epoch length must be positive");
  for (const auto& load : loads) {
    NS_REQUIRE(load.exec_node < machine_.node_count(), "exec node out of range");
    NS_REQUIRE(load.memory_node < machine_.node_count(), "memory node out of range");
    NS_REQUIRE(load.ai > 0.0, "arithmetic intensity must be positive");
  }

  std::vector<GBps> granted(loads.size(), 0.0);

  for (topo::NodeId m = 0; m < machine_.node_count(); ++m) {
    const double jitter =
        effects_.bandwidth_jitter > 0.0 ? rng_.jitter(effects_.bandwidth_jitter) : 1.0;
    const GBps capacity = machine_.node(m).memory_bandwidth * jitter;

    std::vector<std::size_t> remote_ids;
    std::vector<std::size_t> local_ids;
    GBps total_demand = 0.0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (loads[i].memory_node != m || loads[i].threads == 0) continue;
      total_demand += loads[i].per_thread_demand * loads[i].threads;
      (loads[i].exec_node == m ? local_ids : remote_ids).push_back(i);
    }

    // Remote flows first: link-capped, latency-derated, then scaled down
    // together if they would oversubscribe the controller.
    GBps remote_total = 0.0;
    std::vector<GBps> flow(remote_ids.size(), 0.0);
    for (std::size_t k = 0; k < remote_ids.size(); ++k) {
      const auto& load = loads[remote_ids[k]];
      const GBps demand = load.per_thread_demand * load.threads;
      const GBps cap =
          machine_.link_bandwidth(load.exec_node, m) * effects_.remote_link_efficiency;
      flow[k] = std::min(demand, cap);
      remote_total += flow[k];
    }
    if (remote_total > capacity + kEps) {
      const double scale = capacity / remote_total;
      for (auto& f : flow) f *= scale;
      remote_total = capacity;
    }

    // Locals: per-core baseline over what remains, then proportional
    // water-filling of the leftover.
    const GBps remaining = std::max(0.0, capacity - remote_total);
    const double cores = machine_.cores_in_node(m);
    const GBps baseline = remaining / cores;
    GBps pool = remaining;
    std::vector<GBps> local_grant(local_ids.size(), 0.0);
    for (std::size_t k = 0; k < local_ids.size(); ++k) {
      const auto& load = loads[local_ids[k]];
      local_grant[k] = std::min(load.per_thread_demand, baseline);
      pool -= local_grant[k] * load.threads;
    }
    for (int round = 0; round < 64 && pool > kEps; ++round) {
      double weighted_deficit = 0.0;
      for (std::size_t k = 0; k < local_ids.size(); ++k) {
        weighted_deficit +=
            (loads[local_ids[k]].per_thread_demand - local_grant[k]) * loads[local_ids[k]].threads;
      }
      if (weighted_deficit <= kEps) break;
      GBps distributed = 0.0;
      for (std::size_t k = 0; k < local_ids.size(); ++k) {
        const auto& load = loads[local_ids[k]];
        const GBps deficit = load.per_thread_demand - local_grant[k];
        if (deficit <= kEps) continue;
        const GBps take = std::min(deficit, pool * deficit / weighted_deficit);
        local_grant[k] += take;
        distributed += take * load.threads;
      }
      pool -= distributed;
      if (distributed <= kEps) break;
    }

    // Saturation: a controller streaming flat-out slightly exceeds the
    // estimated steady-state peak.
    const bool saturated = total_demand >= effects_.saturation_ratio * capacity;
    const double boost = saturated ? effects_.saturation_boost : 1.0;

    for (std::size_t k = 0; k < remote_ids.size(); ++k) {
      granted[remote_ids[k]] = flow[k] / loads[remote_ids[k]].threads;
    }
    for (std::size_t k = 0; k < local_ids.size(); ++k) {
      granted[local_ids[k]] = local_grant[k] * boost;
    }
  }

  std::vector<GroupGrant> grants(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto& load = loads[i];
    if (load.threads == 0) continue;
    GBps bw = granted[i];
    if (load.numa_bad) bw *= effects_.numa_bad_locality;
    const auto& node = machine_.node(load.exec_node);
    const GFlops core_peak = machine_.core(node.cores.front()).peak_gflops;
    const GFlops rate =
        std::min(bw * load.ai, core_peak * effects_.compute_efficiency);
    grants[i].per_thread_bandwidth = bw;
    grants[i].per_thread_gflops = rate;
    grants[i].group_gbytes = bw * load.threads * dt;
    grants[i].group_gflop = rate * load.threads * dt;
  }
  return grants;
}

}  // namespace numashare::sim
