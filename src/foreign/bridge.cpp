#include "foreign/bridge.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace numashare::foreign {

model::ForeignLoad to_foreign_load(const topo::Machine& machine,
                                   const std::vector<ForeignProcess>& processes) {
  model::ForeignLoad load;
  load.busy_cores.assign(machine.node_count(), 0.0);
  load.bandwidth.assign(machine.node_count(), 0.0);
  for (const auto& process : processes) {
    NS_REQUIRE(process.node_cores.size() == machine.node_count(),
               "foreign process node shares must match the machine");
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      load.busy_cores[n] += process.node_cores[n];
    }
  }
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    // More foreign busy than physical cores can appear transiently when EWMA
    // tails overlap pid churn; the solver clamps too, but keep the exported
    // numbers physical so journals and status output stay readable.
    const auto cores = static_cast<double>(machine.cores_in_node(n));
    load.busy_cores[n] = std::min(load.busy_cores[n], cores);
    const GBps per_core = cores > 0.0 ? machine.node(n).memory_bandwidth / cores : 0.0;
    load.bandwidth[n] = load.busy_cores[n] * per_core;
  }
  return load;
}

}  // namespace numashare::foreign
