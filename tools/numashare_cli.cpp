// numashare — command-line front door to the library.
//
//   numashare_cli probe
//       Discover the host topology; print it with placeholder speeds.
//   numashare_cli paper <table1|table2|table3|fig2|fig3>
//       Print a paper reproduction (model numbers).
//   numashare_cli solve <mix.ini> --alloc=<spec>
//       Predict per-app GFLOPS for an allocation
//       (spec: even | nodeperapp | uniform:c0,c1,...).
//   numashare_cli optimize <mix.ini> [--objective=total|min|pf] [--min-threads=N]
//       Search for the best allocation (constrained exhaustive + hill-climb).
//   numashare_cli placement <mix.ini>
//       Joint allocation + data-placement optimization.
//   numashare_cli template
//       Emit a starter mix.ini to stdout.
//   numashare_cli daemon-status [--registry=/name]
//       Read a running numashared's registry segment and print its state.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/table.hpp"
#include "core/optimizer.hpp"
#include "core/paper_scenarios.hpp"
#include "core/placement.hpp"
#include "core/report.hpp"
#include "core/roofline.hpp"
#include "core/scenario_io.hpp"
#include "daemon/failover.hpp"
#include "daemon/registry.hpp"
#include "foreign/fence.hpp"
#include "topology/discovery.hpp"

using namespace numashare;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: numashare_cli <command> [args]\n"
               "  probe\n"
               "  paper <table1|table2|table3|fig2|fig3>\n"
               "  solve <mix.ini> --alloc=<even|nodeperapp|uniform:c0,c1,...>\n"
               "  optimize <mix.ini> [--objective=total|min|pf] [--min-threads=N]\n"
               "  placement <mix.ini>\n"
               "  template\n"
               "  daemon-status [--registry=/name]\n");
  return 2;
}

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = name + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return fallback;
}

void print_solution(const model::ScenarioDescription& scenario,
                    const model::Allocation& allocation, const model::Solution& solution) {
  TextTable table({"app", "AI", "placement", "threads", "GFLOPS"});
  for (model::AppId a = 0; a < scenario.apps.size(); ++a) {
    const auto& app = scenario.apps[a];
    table.add_row({app.name, fmt_compact(app.ai, 4),
                   app.placement == model::Placement::kNumaBad
                       ? "bad@" + std::to_string(app.home_node)
                       : "perfect",
                   std::to_string(allocation.app_total(a)),
                   fmt_fixed(solution.app_gflops[a], 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("allocation: %s\ntotal: %s GFLOPS\n", allocation.to_string().c_str(),
              fmt_fixed(solution.total_gflops, 2).c_str());
}

int cmd_probe() {
  const auto machine = topo::discover_host_or_flat();
  std::printf("%s", machine.describe().c_str());
  std::printf("\n(speeds are placeholders; calibrate with the synth tools — see "
              "bench_synth / EXPERIMENTS.md E11)\n");
  return 0;
}

int cmd_paper(const std::string& what) {
  using namespace model::paper;
  const auto show = [](const Scenario& scenario) {
    const auto solution = model::solve(scenario.machine, scenario.apps, scenario.allocation);
    std::printf("%s: %s GFLOPS (paper: %s)\n", scenario.description.c_str(),
                fmt_fixed(solution.total_gflops, 2).c_str(),
                fmt_compact(scenario.paper_model_gflops, 2).c_str());
  };
  if (what == "table1") {
    const auto scenario = table1();
    const auto derivation = model::derive(
        scenario.machine, model::classes_from(scenario.apps, {1, 1, 1, 5}));
    std::printf("%s", derivation.render().c_str());
    return 0;
  }
  if (what == "table2") {
    const auto scenario = table2();
    const auto derivation = model::derive(
        scenario.machine, model::classes_from(scenario.apps, {2, 2, 2, 2}));
    std::printf("%s", derivation.render().c_str());
    return 0;
  }
  if (what == "fig2") {
    for (const auto& scenario : fig2()) show(scenario);
    return 0;
  }
  if (what == "fig3") {
    show(fig3_even());
    show(fig3_node_per_app());
    return 0;
  }
  if (what == "table3") {
    for (const auto& row : table3()) show(row);
    return 0;
  }
  return usage();
}

int cmd_solve(const std::string& path, int argc, char** argv) {
  std::string error;
  const auto scenario = model::load_scenario(path, &error);
  if (!scenario) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto spec = flag_value(argc, argv, "--alloc", "even");
  const auto allocation = model::parse_allocation(spec, *scenario, &error);
  if (!allocation) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto solution = model::solve(scenario->machine, scenario->apps, *allocation);
  print_solution(*scenario, *allocation, solution);
  return 0;
}

int cmd_optimize(const std::string& path, int argc, char** argv) {
  std::string error;
  const auto scenario = model::load_scenario(path, &error);
  if (!scenario) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto objective_name = flag_value(argc, argv, "--objective", "total");
  model::Objective objective = model::Objective::kTotalGflops;
  if (objective_name == "min") objective = model::Objective::kMinAppGflops;
  else if (objective_name == "pf") objective = model::Objective::kProportionalFairness;
  else if (objective_name != "total") {
    std::fprintf(stderr, "error: unknown objective '%s'\n", objective_name.c_str());
    return 1;
  }
  const auto min_threads = static_cast<std::uint32_t>(
      std::strtoul(flag_value(argc, argv, "--min-threads", "1").c_str(), nullptr, 10));

  const auto exhaustive = model::exhaustive_search(scenario->machine, scenario->apps,
                                                   objective, true, min_threads);
  std::printf("objective: %s, %llu candidates evaluated\n\n", model::to_string(objective),
              static_cast<unsigned long long>(exhaustive.evaluated));
  print_solution(*scenario, exhaustive.allocation, exhaustive.solution);

  const auto greedy = model::refine_search(
      scenario->machine, scenario->apps,
      model::Allocation::even(scenario->machine,
                              static_cast<std::uint32_t>(scenario->apps.size())));
  std::printf("\ngreedy from even (unconstrained): %s GFLOPS via %s\n",
              fmt_fixed(greedy.solution.total_gflops, 2).c_str(),
              greedy.allocation.to_string().c_str());
  return 0;
}

int cmd_placement(const std::string& path) {
  std::string error;
  const auto scenario = model::load_scenario(path, &error);
  if (!scenario) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto result = model::advise_joint(scenario->machine, scenario->apps);
  std::printf("joint allocation + placement optimization (%u rounds):\n",
              result.placement_rounds);
  model::ScenarioDescription final_scenario{scenario->machine, result.apps};
  print_solution(final_scenario, result.allocation, result.solution);
  for (std::size_t a = 0; a < scenario->apps.size(); ++a) {
    if (scenario->apps[a].placement == model::Placement::kNumaBad &&
        scenario->apps[a].home_node != result.apps[a].home_node) {
      std::printf("move: app '%s' data node %u -> %u\n", scenario->apps[a].name.c_str(),
                  scenario->apps[a].home_node, result.apps[a].home_node);
    }
  }
  return 0;
}

int cmd_daemon_status(int argc, char** argv) {
  const auto registry_name = flag_value(argc, argv, "--registry", nsd::kDefaultRegistryName);
  std::string error;
  const auto registry = nsd::Registry::open(registry_name, &error);
  if (!registry) {
    std::fprintf(stderr, "no daemon registry at '%s': %s\n", registry_name.c_str(),
                 error.c_str());
    return 1;
  }
  const auto& header = registry->header();
  const bool alive = registry->daemon_alive();
  std::printf("registry:   %s\n", registry_name.c_str());
  std::printf("daemon pid: %u (%s)\n", header.daemon_pid.load(),
              alive ? "alive" : "DEAD — stale registry");
  std::printf("generation: %llu\n",
              static_cast<unsigned long long>(header.generation.load()));
  // Failover tier (registry v6): the daemon's liveness heartbeat clients
  // watch (a stalled value + live pid = wedged daemon), and the incarnation
  // number that fences stale grants across restarts.
  std::printf("heartbeat:  %llu%s\n",
              static_cast<unsigned long long>(header.daemon_heartbeat.load()),
              alive ? "" : " (stalled — daemon dead, survivors run degraded)");
  std::printf("arbiter gen:%llu\n\n",
              static_cast<unsigned long long>(header.arbiter_generation.load()));

  // Shard summary (registry v7): per-shard occupancy plus the live attention
  // word. At 1024 slots the per-slot table below collapses free slots, so
  // this is the only place the full capacity is visible. Fully-free shards
  // with no pending attention collapse into one line.
  TextTable shard_table({"shard", "slots", "active", "joining", "leaving", "claiming",
                         "attention (hex)"});
  std::uint32_t empty_shards = 0;
  for (std::uint32_t shard = 0; shard < nsd::kRegistryShards; ++shard) {
    std::uint32_t counts[5] = {};  // indexed by SlotState
    for (std::uint32_t s = 0; s < nsd::kSlotsPerShard; ++s) {
      const auto state = registry->slot(shard * nsd::kSlotsPerShard + s).state();
      ++counts[std::min<std::uint32_t>(static_cast<std::uint32_t>(state), 4)];
    }
    const auto attention = header.attention[shard].load(std::memory_order_relaxed);
    const std::uint32_t occupied = nsd::kSlotsPerShard -
                                   counts[static_cast<int>(nsd::SlotState::kFree)];
    if (occupied == 0 && attention == 0) {
      ++empty_shards;
      continue;
    }
    char hex[19];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(attention));
    const std::string range = std::to_string(shard * nsd::kSlotsPerShard) + "-" +
                              std::to_string((shard + 1) * nsd::kSlotsPerShard - 1);
    shard_table.add_row(
        {std::to_string(shard), range,
         std::to_string(counts[static_cast<int>(nsd::SlotState::kActive)]),
         std::to_string(counts[static_cast<int>(nsd::SlotState::kJoining)]),
         std::to_string(counts[static_cast<int>(nsd::SlotState::kLeaving)]),
         std::to_string(counts[static_cast<int>(nsd::SlotState::kClaiming)]), hex});
  }
  std::printf("%s", shard_table.render().c_str());
  if (empty_shards > 0) {
    std::printf("(%u empty shard%s collapsed; capacity %u slots in %u shards)\n",
                empty_shards, empty_shards == 1 ? "" : "s", nsd::kMaxClients,
                nsd::kRegistryShards);
  }
  std::printf("\n");

  TextTable table({"slot", "state", "name", "pid", "ai", "heartbeat", "health", "failover",
                   "cmd/enacted", "drops c/t", "stalled", "channel"});
  std::uint32_t active = 0;
  for (std::uint32_t i = 0; i < nsd::kMaxClients; ++i) {
    const auto& slot = registry->slot(i);
    const auto state = slot.state();
    if (state == nsd::SlotState::kFree) continue;
    const char* state_name = "?";
    switch (state) {
      case nsd::SlotState::kFree: state_name = "free"; break;
      case nsd::SlotState::kClaiming: state_name = "claiming"; break;
      case nsd::SlotState::kJoining: state_name = "joining"; break;
      case nsd::SlotState::kActive: state_name = "active"; ++active; break;
      case nsd::SlotState::kLeaving: state_name = "leaving"; break;
    }
    // Compliance mirrors (daemon-written each tick): health state, the
    // commanded-vs-enacted epoch pair the watchdog compares, and the
    // channel's cross-process drop counters.
    const auto health = static_cast<nsd::ClientHealth>(slot.health.load());
    const std::string epochs = std::to_string(slot.commanded_epoch.load()) + "/" +
                               std::to_string(slot.enacted_epoch.load());
    const std::string drops = std::to_string(slot.commands_dropped.load()) + "/" +
                              std::to_string(slot.telemetry_dropped.load());
    // The client-mirrored failover state (attached/suspect/degraded/
    // rejoining): in a live registry everyone should read "attached"; in an
    // orphaned one this shows which survivors have noticed the death.
    const auto failover = static_cast<nsd::FailoverState>(slot.failover_state.load());
    table.add_row({std::to_string(i), state_name,
                   std::string(slot.name, strnlen(slot.name, sizeof(slot.name))),
                   std::to_string(slot.pid.load()), fmt_compact(slot.advertised_ai.load(), 4),
                   std::to_string(slot.heartbeat.load()), nsd::to_string(health),
                   nsd::to_string(failover), epochs, drops,
                   std::to_string(slot.stalled_workers.load()),
                   std::string(slot.channel_name,
                               strnlen(slot.channel_name, sizeof(slot.channel_name)))});
  }
  if (active == 0) {
    std::printf("no active clients\n");
  } else {
    std::printf("%s", table.render().c_str());
  }

  // Foreign shard (registry v4): the non-participant processes the daemon's
  // ForeignMonitor is pricing into the model, with per-node shares in cores
  // (mirrored as millicores) and each one's fence state.
  const auto foreign_count =
      std::min(header.foreign_count.load(std::memory_order_acquire), nsd::kMaxForeign);
  std::uint32_t foreign_shown = 0;
  TextTable foreign_table({"pid", "name", "cores", "per-node", "fence", "node"});
  for (std::uint32_t i = 0; i < foreign_count; ++i) {
    const auto& row = header.foreign[i];
    const auto pid = row.pid.load(std::memory_order_acquire);
    if (pid == 0) continue;
    ++foreign_shown;
    std::string per_node;
    const auto nodes = std::min(header.node_count.load(), agent::kMaxNodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (n > 0) per_node += ",";
      per_node += fmt_compact(
          static_cast<double>(row.node_millicores[n].load()) / 1000.0, 2);
    }
    const auto fence = static_cast<foreign::FenceState>(row.fence.load());
    const auto fence_node = row.fence_node.load();
    foreign_table.add_row(
        {std::to_string(pid), std::string(row.name, strnlen(row.name, sizeof(row.name))),
         fmt_compact(static_cast<double>(row.busy_millicores.load()) / 1000.0, 2), per_node,
         foreign::to_string(fence),
         fence_node >= agent::kMaxNodes ? "-" : std::to_string(fence_node)});
  }
  if (foreign_shown > 0) {
    std::printf("\nforeign workloads (non-participants priced into the model):\n%s",
                foreign_table.render().c_str());
  }
  return alive ? 0 : 1;
}

int cmd_template() {
  model::ScenarioDescription scenario;
  scenario.machine = topo::Machine::symmetric(4, 8, 10.0, 32.0, 10.0, "example");
  scenario.apps = model::mixes::three_mem_one_compute();
  std::printf("%s", model::scenario_to_ini(scenario).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "probe") return cmd_probe();
  if (command == "template") return cmd_template();
  if (command == "paper") return argc >= 3 ? cmd_paper(argv[2]) : usage();
  if (command == "solve") return argc >= 3 ? cmd_solve(argv[2], argc, argv) : usage();
  if (command == "optimize") return argc >= 3 ? cmd_optimize(argv[2], argc, argv) : usage();
  if (command == "placement") return argc >= 3 ? cmd_placement(argv[2]) : usage();
  if (command == "daemon-status") return cmd_daemon_status(argc, argv);
  return usage();
}
