// ModelGuidedPolicy past the exact-search bound: once count_candidates()
// exceeds model::kMaxSearchSolves the policy climbs from the fair share
// under the same solve budget instead of enumerating. These shapes wedged
// the exact search (C(40,20) candidates at 21 apps on 20-core nodes); the
// assertions are deterministic facts about the decision, never wall time —
// the ctest TIMEOUT on the OverMembership label is what catches a wedge.
#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "agent/policies.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

/// join_churn's memory-bound-heavy AI mix (FLOP/byte), cycled past 10 apps.
constexpr double kAiMix[] = {1.0 / 64, 1.0 / 64, 1.0 / 32, 1.0 / 32, 1.0 / 16,
                             1.0 / 16, 1.0 / 8,  1.0 / 8,  1.0,      1.0};

std::vector<AppView> fleet(std::uint32_t apps) {
  std::vector<AppView> views(apps);
  for (std::uint32_t a = 0; a < apps; ++a) {
    views[a].name = "app" + std::to_string(a);
    views[a].has_telemetry = true;
    views[a].latest.ai_estimate = kAiMix[a % std::size(kAiMix)];
  }
  return views;
}

struct Shape {
  const char* label;
  topo::Machine machine;
  std::uint32_t apps;
};

std::vector<Shape> shapes() {
  return {{"4x20x21", topo::paper_skylake_machine(), 21},
          {"4x20x64", topo::paper_skylake_machine(), 64},
          {"4x20x1024", topo::paper_skylake_machine(), 1024},
          {"4x64x8", topo::Machine::symmetric(4, 64, 0.29, 100.0, 10.0), 8}};
}

/// Per-app totals of the issued per-node directives, checking every node's
/// grants against its cores on the way.
std::vector<std::uint32_t> totals_of(const topo::Machine& machine,
                                     const std::vector<Directive>& directives) {
  std::vector<std::uint32_t> totals(directives.size(), 0);
  std::vector<std::uint32_t> node_load(machine.node_count(), 0);
  for (std::size_t a = 0; a < directives.size(); ++a) {
    EXPECT_EQ(directives[a].kind, Directive::Kind::kNodeThreads);
    EXPECT_EQ(directives[a].node_threads.size(), machine.node_count());
    for (topo::NodeId n = 0; n < directives[a].node_threads.size(); ++n) {
      totals[a] += directives[a].node_threads[n];
      node_load[n] += directives[a].node_threads[n];
    }
  }
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    EXPECT_LE(node_load[n], machine.cores_in_node(n)) << "node " << n;
  }
  return totals;
}

TEST(OverMembership, DecideClimbsWithinTheSolveBudget) {
  for (const auto& shape : shapes()) {
    SCOPED_TRACE(shape.label);
    ASSERT_GT(model::count_candidates(shape.machine, shape.apps, /*require_full=*/true, 1),
              model::kMaxSearchSolves);
    ModelGuidedPolicy policy;
    auto views = fleet(shape.apps);
    const auto totals = totals_of(shape.machine, policy.decide(shape.machine, views));
    EXPECT_EQ(policy.last_search().kind, ModelGuidedPolicy::SearchKind::kRefine);
    EXPECT_LE(policy.last_search().evaluated, model::kMaxSearchSolves);
    EXPECT_GE(policy.last_search().evaluated, 1u);

    const std::uint32_t cores = shape.machine.core_count();
    for (std::uint32_t a = 0; a < shape.apps; ++a) {
      if (shape.apps <= cores) {
        EXPECT_GE(totals[a], 1u) << "app " << a << " starved";
      } else {
        // More apps than cores: the first core_count() apps in view order
        // hold one core each, the rest hold none.
        EXPECT_EQ(totals[a], a < cores ? 1u : 0u) << "app " << a;
      }
    }

    // Steady membership re-decides to the same zero set: an AI swing moves
    // no core to an app that holds none.
    for (auto& view : views) view.latest.ai_estimate *= 1.5;
    const auto again = totals_of(shape.machine, policy.decide(shape.machine, views));
    for (std::uint32_t a = 0; a < shape.apps; ++a) {
      EXPECT_EQ(again[a] == 0, totals[a] == 0) << "app " << a;
    }
  }
}

TEST(OverMembership, CapsHoldOnBothEngines) {
  // 12 apps stay on the exact search (75 582 candidates); 21 climb.
  for (const std::uint32_t apps : {12u, 21u}) {
    SCOPED_TRACE(apps);
    const auto machine = topo::paper_skylake_machine();
    auto views = fleet(apps);
    for (std::uint32_t a = 0; a < apps; a += 3) views[a].thread_cap = 1 + a % 2;
    ModelGuidedPolicy policy;
    const auto totals = totals_of(machine, policy.decide(machine, views));
    EXPECT_EQ(policy.last_search().kind, apps == 12 ? ModelGuidedPolicy::SearchKind::kFull
                                                    : ModelGuidedPolicy::SearchKind::kRefine);
    for (std::uint32_t a = 0; a < apps; ++a) {
      EXPECT_LE(totals[a], views[a].thread_cap) << "app " << a;
      EXPECT_GE(totals[a], 1u) << "app " << a;
    }
  }
}

}  // namespace
}  // namespace numashare::agent
