// Data migration end to end — §III.A's ideal case made concrete:
//
//   "In the ideal case, the application should be able to move the data to a
//    different NUMA node. This would easily be possible in OCR, where the
//    runtime system is also in charge of managing the data."
//
// Two NUMA-bad applications keep their working sets in runtime-managed
// datablocks on the same node, 0. Only one of them can run next to its data
// there. The model-guided agent prices the threads at the homes the apps
// advertise, sees that the other app's data would serve the machine better
// elsewhere and suggests that home; the application migrates at its next
// phase boundary via Datablock::move_to, and the new home in its telemetry
// re-prices the threads. The printout shows each move as it happens, the
// placement before and after, and what the model predicts for both.
//
// Usage: ./examples/data_migration
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"

using namespace numashare;
using namespace std::chrono_literals;

constexpr int kApps = 4;
constexpr int kFirstBad = 2;  // app2 and app3 are NUMA-bad
constexpr double kAis[kApps] = {0.5, 0.5, 1.0, 1.0};

int main() {
  const auto machine = topo::paper_numabad_machine();
  std::printf("%s\n", machine.describe().c_str());

  std::vector<std::unique_ptr<rt::Runtime>> apps;
  std::vector<std::unique_ptr<agent::ShmChannel>> channels;
  std::vector<std::unique_ptr<agent::RuntimeAdapter>> adapters;
  for (int a = 0; a < kApps; ++a) {
    apps.push_back(std::make_unique<rt::Runtime>(
        machine, rt::RuntimeOptions{.name = "app" + std::to_string(a)}));
    channels.push_back(std::make_unique<agent::ShmChannel>());
    const auto home = a < kFirstBad ? agent::kMaxNodes : 0u;
    adapters.push_back(
        std::make_unique<agent::RuntimeAdapter>(*apps[a], *channels[a], kAis[a], home));
  }

  // Each NUMA-bad app's working set: 64 MiB on node 0, moved when the agent
  // suggests a better home.
  std::vector<rt::DatablockPtr> working_sets;
  for (int a = kFirstBad; a < kApps; ++a) {
    auto block = apps[a]->create_datablock(64u << 20, 0);
    std::printf("before: app%d's %zu MiB datablock lives on node %u\n", a,
                block->size_bytes() >> 20, block->node());
    adapters[a]->set_data_home_handler([a, block, adapter = adapters[a].get()](topo::NodeId node) {
      const auto moved = block->move_to(node);
      adapter->set_data_home(node);
      std::printf("  -> agent suggested node %u for app%d; migrated %zu MiB\n", node, a,
                  moved >> 20);
    });
    working_sets.push_back(std::move(block));
  }

  auto policy = std::make_unique<agent::ModelGuidedPolicy>();
  const auto& search = policy->last_search();
  agent::Agent coordinator(machine, std::move(policy), {.period_us = 2000});
  for (int a = 0; a < kApps; ++a) coordinator.add_app("app" + std::to_string(a), *channels[a]);

  // A few manual ticks: telemetry out, decision, commands back. A move
  // changes an advertised home, which re-prices the next decision.
  double first_prediction = 0.0;
  for (int tick = 0; tick < 6; ++tick) {
    for (auto& adapter : adapters) adapter->pump();
    coordinator.step(tick * 0.002);
    if (first_prediction == 0.0) first_prediction = search.predicted_gflops;
    for (auto& adapter : adapters) adapter->pump();
    std::this_thread::sleep_for(5ms);
  }

  for (int a = kFirstBad; a < kApps; ++a) {
    const auto& block = working_sets[a - kFirstBad];
    std::printf("after:  app%d's datablock lives on node %u; per-node bytes:", a, block->node());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      std::printf(" n%u=%lluMiB", n,
                  static_cast<unsigned long long>(apps[a]->datablocks().bytes_on_node(n) >> 20));
    }
    std::printf("\n");
  }
  std::printf("thread targets now:");
  for (int a = 0; a < kApps; ++a) {
    std::printf(" app%d=[", a);
    const auto per_node = apps[a]->running_per_node();
    for (std::size_t n = 0; n < per_node.size(); ++n) {
      std::printf("%s%u", n ? " " : "", per_node[n]);
    }
    std::printf("]");
  }

  // What the agent's model predicted with both working sets on node 0, and
  // for the placement the run left.
  std::printf("\n\nmodel: %.1f GFLOPS with both working sets on node 0 -> %.1f GFLOPS after "
              "the move (%+.1f%%)\n",
              first_prediction, search.predicted_gflops,
              (search.predicted_gflops / first_prediction - 1.0) * 100.0);
  return 0;
}
