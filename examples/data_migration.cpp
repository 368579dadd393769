// Data migration end to end — §III.A's ideal case made concrete:
//
//   "In the ideal case, the application should be able to move the data to a
//    different NUMA node. This would easily be possible in OCR, where the
//    runtime system is also in charge of managing the data."
//
// A NUMA-bad application holds its working set in a runtime-managed
// datablock. The model-guided agent prices its threads at that home; when
// another home would serve the machine better it suggests it, and the
// application migrates at its next phase boundary via Datablock::move_to;
// the new home in its telemetry re-prices the threads. The printout shows
// before/after placement and the model's predicted gain.
//
// Usage: ./examples/data_migration
#include <chrono>
#include <cstdio>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "core/placement.hpp"
#include "topology/presets.hpp"

using namespace numashare;
using namespace std::chrono_literals;

int main() {
  const auto machine = topo::paper_numabad_machine();
  std::printf("%s\n", machine.describe().c_str());

  // Four runtimes: three NUMA-perfect streamers + one NUMA-bad app whose
  // data sits on node 0.
  std::vector<std::unique_ptr<rt::Runtime>> apps;
  std::vector<std::unique_ptr<agent::ShmChannel>> channels;
  std::vector<std::unique_ptr<agent::RuntimeAdapter>> adapters;
  const double ais[] = {0.5, 0.5, 0.5, 1.0};
  for (int a = 0; a < 4; ++a) {
    apps.push_back(std::make_unique<rt::Runtime>(
        machine, rt::RuntimeOptions{.name = "app" + std::to_string(a)}));
    channels.push_back(std::make_unique<agent::ShmChannel>());
    const auto home = a == 3 ? 0u : agent::kMaxNodes;  // only app3 is NUMA-bad
    adapters.push_back(
        std::make_unique<agent::RuntimeAdapter>(*apps[a], *channels[a], ais[a], home));
  }

  // The NUMA-bad app's working set: 64 MiB on node 0.
  auto working_set = apps[3]->create_datablock(64u << 20, 0);
  std::printf("before: app3's %zu MiB datablock lives on node %u\n",
              working_set->size_bytes() >> 20, working_set->node());

  adapters[3]->set_data_home_handler([&](topo::NodeId node) {
    const auto moved = working_set->move_to(node);
    adapters[3]->set_data_home(node);
    std::printf("  -> agent suggested node %u; migrated %zu MiB\n", node, moved >> 20);
  });

  agent::Agent coordinator(machine, std::make_unique<agent::ModelGuidedPolicy>(),
                           {.period_us = 2000});
  for (int a = 0; a < 4; ++a) coordinator.add_app("app" + std::to_string(a), *channels[a]);

  // A few manual ticks: telemetry out, decision, commands back.
  for (int tick = 0; tick < 4; ++tick) {
    for (auto& adapter : adapters) adapter->pump();
    coordinator.step(tick * 0.002);
    for (auto& adapter : adapters) adapter->pump();
    std::this_thread::sleep_for(5ms);
  }

  std::printf("after:  app3's datablock lives on node %u; per-node bytes:", working_set->node());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    std::printf(" n%u=%lluMiB", n,
                static_cast<unsigned long long>(apps[3]->datablocks().bytes_on_node(n) >> 20));
  }
  std::printf("\nthread targets now:");
  for (int a = 0; a < 4; ++a) {
    std::printf(" app%d=[", a);
    const auto per_node = apps[a]->running_per_node();
    for (std::size_t n = 0; n < per_node.size(); ++n) {
      std::printf("%s%u", n ? " " : "", per_node[n]);
    }
    std::printf("]");
  }

  // What the model says this was worth.
  auto before = model::mixes::three_perfect_one_bad(0);
  const auto wrong = model::solve(machine, before,
                                  model::Allocation::node_per_app(machine, {0, 2, 3, 1}));
  const auto joint = model::advise_joint(machine, before);
  std::printf("\n\nmodel: worst misplaced whole-node config %.0f GFLOPS -> joint optimum "
              "%.0f GFLOPS (+%.0f%%)\n",
              wrong.total_gflops, joint.solution.total_gflops,
              (joint.solution.total_gflops / wrong.total_gflops - 1.0) * 100.0);
  return 0;
}
