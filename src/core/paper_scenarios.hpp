// The paper's experiments as named, runnable scenario definitions.
//
// Benches and tests build every table/figure from this registry so the
// parameters live in exactly one place (and DESIGN.md §3 documents how the
// unstated ones were recovered).
#pragma once

#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/app_spec.hpp"
#include "topology/machine.hpp"

namespace numashare::model::paper {

struct Scenario {
  std::string id;           // e.g. "table1", "table3-row4"
  std::string description;  // what the paper calls it
  topo::Machine machine;
  std::vector<AppSpec> apps;
  Allocation allocation;
  /// The GFLOPS value printed in the paper for this scenario (model column),
  /// or a negative value when the paper prints none.
  double paper_model_gflops = -1.0;
  /// The measured value the paper reports ("real GFLOPS"), when present.
  double paper_real_gflops = -1.0;
};

/// Table I: uneven allocation (1,1,1,5) on the 4x8 model machine -> 254.
Scenario table1();
/// Table II: even allocation (2,2,2,2) -> 140.
Scenario table2();
/// All three Figure 2 scenarios, in the figure's order: a = Table I, b =
/// Table II, c = one NUMA node per application -> 128.
std::vector<Scenario> fig2();

/// Figure 3 / the NUMA-bad model example: even allocation -> 138(.75) and
/// whole-node allocation with the bad app on its data node -> 150.
Scenario fig3_even();
Scenario fig3_node_per_app();

/// Table III rows 1-5 (model column values: 23.20 / 18.12 / 15.18 / 13.98 /
/// 15.18, real column: 22.82 / 18.14 / 15.28 / 13.25 / 14.52).
std::vector<Scenario> table3();

}  // namespace numashare::model::paper
