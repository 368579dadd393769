// Scanner output -> solver input: turn detected foreign processes into the
// opaque-consumer ForeignLoad the roofline model prices (core/roofline).
//
// Compute is direct: busy_cores[n] = sum of each process's per-node share.
// Bandwidth cannot be observed from procfs, so it is estimated: each busy
// core is assumed to draw its node's fair share of the controller —
// node_bandwidth / cores_in_node — the same baseline guarantee the model
// grants cooperating cores.
#pragma once

#include "core/roofline.hpp"
#include "foreign/scanner.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {

/// Fold the scanned processes into a per-node ForeignLoad. Vectors are sized
/// to machine.node_count(); an empty process list yields a load whose any()
/// is false, which the solver treats as byte-for-byte identical to "no
/// foreign option at all".
model::ForeignLoad to_foreign_load(const topo::Machine& machine,
                                   const std::vector<ForeignProcess>& processes);

}  // namespace numashare::foreign
