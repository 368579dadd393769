#include "core/paper_scenarios.hpp"

#include "topology/presets.hpp"

namespace numashare::model::paper {

Scenario table1() {
  Scenario s;
  s.id = "table1";
  s.description = "uneven allocation (1,1,1,5), 3x memory-bound AI=0.5 + compute-bound AI=10";
  s.machine = topo::paper_model_machine();
  s.apps = mixes::three_mem_one_compute();
  s.allocation = Allocation::uniform_per_node(s.machine, {1, 1, 1, 5});
  s.paper_model_gflops = 254.0;
  return s;
}

Scenario table2() {
  Scenario s;
  s.id = "table2";
  s.description = "even allocation (2,2,2,2), 3x memory-bound AI=0.5 + compute-bound AI=10";
  s.machine = topo::paper_model_machine();
  s.apps = mixes::three_mem_one_compute();
  s.allocation = Allocation::uniform_per_node(s.machine, {2, 2, 2, 2});
  s.paper_model_gflops = 140.0;
  return s;
}

namespace {

/// Figure 2 scenario c: one NUMA node per application.
Scenario fig2_node_per_app() {
  Scenario s;
  s.id = "fig2c";
  s.description = "one NUMA node per application";
  s.machine = topo::paper_model_machine();
  s.apps = mixes::three_mem_one_compute();
  s.allocation = Allocation::node_per_app(s.machine, {0, 1, 2, 3});
  s.paper_model_gflops = 128.0;
  return s;
}

}  // namespace

std::vector<Scenario> fig2() {
  auto a = table1();
  a.id = "fig2a";
  auto b = table2();
  b.id = "fig2b";
  return {a, b, fig2_node_per_app()};
}

Scenario fig3_even() {
  Scenario s;
  s.id = "fig3-even";
  s.description = "NUMA-bad mix, even allocation (2,2,2,2); bad app homes on node 0";
  s.machine = topo::paper_numabad_machine();
  s.apps = mixes::three_perfect_one_bad(/*bad_home=*/0);
  s.allocation = Allocation::uniform_per_node(s.machine, {2, 2, 2, 2});
  // The paper prints 138; the exact model value is 138.75 (see DESIGN.md §3).
  s.paper_model_gflops = 138.0;
  return s;
}

Scenario fig3_node_per_app() {
  Scenario s;
  s.id = "fig3-wholenode";
  s.description = "NUMA-bad mix, one node per app, bad app on its data node";
  s.machine = topo::paper_numabad_machine();
  s.apps = mixes::three_perfect_one_bad(/*bad_home=*/0);
  // Bad app is index 3; give it node 0 (its data node) and spread the others.
  s.allocation = Allocation::node_per_app(s.machine, {1, 2, 3, 0});
  s.paper_model_gflops = 150.0;
  return s;
}

std::vector<Scenario> table3() {
  std::vector<Scenario> rows;
  const auto machine = topo::paper_skylake_machine();

  {
    Scenario s;
    s.id = "table3-row1";
    s.description = "uneven thread allocation (3,3,3,11)";
    s.machine = machine;
    s.apps = mixes::skylake_mem_compute();
    s.allocation = Allocation::uniform_per_node(s.machine, {3, 3, 3, 11});
    s.paper_model_gflops = 23.20;
    s.paper_real_gflops = 22.82;
    rows.push_back(std::move(s));
  }
  {
    Scenario s;
    s.id = "table3-row2";
    s.description = "even thread allocation (5,5,5,5) [model calibration case]";
    s.machine = machine;
    s.apps = mixes::skylake_mem_compute();
    s.allocation = Allocation::uniform_per_node(s.machine, {5, 5, 5, 5});
    s.paper_model_gflops = 18.12;
    s.paper_real_gflops = 18.14;
    rows.push_back(std::move(s));
  }
  {
    Scenario s;
    s.id = "table3-row3";
    s.description = "one NUMA node per application";
    s.machine = machine;
    s.apps = mixes::skylake_mem_compute();
    s.allocation = Allocation::node_per_app(s.machine, {0, 1, 2, 3});
    s.paper_model_gflops = 15.18;
    s.paper_real_gflops = 15.28;
    rows.push_back(std::move(s));
  }
  {
    Scenario s;
    s.id = "table3-row4";
    s.description = "NUMA-bad mix, even allocation (cross-node)";
    s.machine = machine;
    s.apps = mixes::skylake_perfect_bad(/*bad_home=*/0);
    s.allocation = Allocation::uniform_per_node(s.machine, {5, 5, 5, 5});
    s.paper_model_gflops = 13.98;
    s.paper_real_gflops = 13.25;
    rows.push_back(std::move(s));
  }
  {
    Scenario s;
    s.id = "table3-row5";
    s.description = "NUMA-bad mix, one node per app, bad app on its data node (on-node)";
    s.machine = machine;
    s.apps = mixes::skylake_perfect_bad(/*bad_home=*/0);
    s.allocation = Allocation::node_per_app(s.machine, {1, 2, 3, 0});
    s.paper_model_gflops = 15.18;
    s.paper_real_gflops = 14.52;
    rows.push_back(std::move(s));
  }
  return rows;
}

}  // namespace numashare::model::paper
