#include "agent/consensus.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/optimizer.hpp"

namespace numashare::agent {

model::Allocation arbitrate(const topo::Machine& machine,
                            const std::vector<Proposal>& proposals) {
  NS_REQUIRE(!proposals.empty(), "consensus needs at least one proposal");
  const auto apps = static_cast<std::uint32_t>(proposals.size());
  for (std::uint32_t a = 0; a < apps; ++a) {
    NS_REQUIRE(proposals[a].app == a, "proposals must be dense and ordered by app");
    NS_REQUIRE(proposals[a].desired_per_node.size() == machine.node_count(),
               "proposal must name every node");
  }

  model::Allocation allocation(apps, machine.node_count());
  std::vector<std::uint32_t> free_cores(machine.node_count());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    free_cores[n] = machine.cores_in_node(n);
  }
  std::vector<std::vector<std::uint32_t>> wanted(apps);
  for (std::uint32_t a = 0; a < apps; ++a) wanted[a] = proposals[a].desired_per_node;

  // Spread the apps' starting nodes: with apps <= nodes every app begins the
  // scan at a different node (the anti-"everyone picks node 0" rule).
  const std::uint32_t stride =
      std::max(1u, machine.node_count() / std::max(1u, std::min(apps, machine.node_count())));

  bool granted_any = true;
  while (granted_any) {
    granted_any = false;
    for (std::uint32_t a = 0; a < apps; ++a) {
      const topo::NodeId start = (a * stride) % machine.node_count();
      for (std::uint32_t k = 0; k < machine.node_count(); ++k) {
        const topo::NodeId n = (start + k) % machine.node_count();
        if (wanted[a][n] == 0 || free_cores[n] == 0) continue;
        allocation.set_threads(a, n, allocation.threads(a, n) + 1);
        --wanted[a][n];
        --free_cores[n];
        granted_any = true;
        break;  // one thread per app per round
      }
    }
  }
  NS_ASSERT(allocation.validate(machine));
  return allocation;
}

Proposal ai_proposal(const topo::Machine& machine, std::uint32_t app, ArithmeticIntensity ai) {
  NS_REQUIRE(ai > 0.0, "arithmetic intensity must be positive");
  Proposal p;
  p.app = app;
  p.desired_per_node.resize(machine.node_count());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    const auto cores = machine.cores_in_node(n);
    const GFlops peak = machine.core(machine.node(n).cores.front()).peak_gflops;
    const GBps per_thread = demand_gbps(peak, ai);
    const double saturating =
        per_thread > 0.0 ? machine.node(n).memory_bandwidth / per_thread : cores;
    p.desired_per_node[n] = std::min<std::uint32_t>(
        cores, static_cast<std::uint32_t>(std::ceil(std::max(1.0, saturating))));
  }
  return p;
}

std::vector<std::uint32_t> SlotAllocation::threads_for(std::uint32_t slot) const {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] != slot) continue;
    std::vector<std::uint32_t> out(allocation.node_count());
    for (topo::NodeId n = 0; n < allocation.node_count(); ++n) {
      out[n] = allocation.threads(static_cast<model::AppId>(i), n);
    }
    return out;
  }
  return {};
}

SlotAllocation arbitrate_slots(const topo::Machine& machine,
                               std::vector<SlotProposal> proposals) {
  NS_REQUIRE(!proposals.empty(), "consensus needs at least one proposal");
  // Canonicalize: ascending slot order, then densify. Every survivor sorts
  // the same *set* into the same sequence, so the gather order (which
  // differs per survivor — each scans from its own position at its own
  // time) cannot influence the outcome.
  std::sort(proposals.begin(), proposals.end(),
            [](const SlotProposal& a, const SlotProposal& b) { return a.slot < b.slot; });
  for (std::size_t i = 1; i < proposals.size(); ++i) {
    NS_REQUIRE(proposals[i].slot != proposals[i - 1].slot, "duplicate slot proposal");
  }
  SlotAllocation out;
  out.slots.reserve(proposals.size());
  std::vector<Proposal> dense(proposals.size());
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    out.slots.push_back(proposals[i].slot);
    dense[i].app = static_cast<std::uint32_t>(i);
    dense[i].desired_per_node = std::move(proposals[i].desired_per_node);
  }
  out.allocation = arbitrate(machine, dense);
  return out;
}

std::vector<std::uint32_t> conservative_desired(const topo::Machine& machine,
                                                std::uint32_t participants, std::uint32_t rank,
                                                const std::vector<std::uint32_t>& last_granted) {
  NS_REQUIRE(rank < participants, "rank must name one of the participants");
  const auto fair = model::fair_share(machine, participants);
  std::vector<std::uint32_t> out(machine.node_count());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    // The last-granted clamp: a capped app cannot grow through a daemon crash.
    out[n] = fair.threads(rank, n);
    if (n < last_granted.size()) out[n] = std::min(out[n], last_granted[n]);
  }
  return out;
}

}  // namespace numashare::agent
