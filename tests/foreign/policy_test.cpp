// ModelGuidedPolicy foreign awareness: reported loads re-trigger the search
// only past the drift gates, slow creep accumulates against the load priced
// into the last decision, and the decision itself steers cooperating apps
// off a hogged node.
#include <gtest/gtest.h>

#include "agent/policies.hpp"
#include "topology/machine.hpp"

namespace numashare::agent {
namespace {

AppView view(const std::string& name, double ai, std::uint32_t home = kMaxNodes) {
  AppView v;
  v.name = name;
  v.has_telemetry = true;
  v.latest.ai_estimate = ai;
  v.latest.data_home_node = home;
  return v;
}

model::ForeignLoad hog(double cores0, double bw0) {
  model::ForeignLoad load;
  load.busy_cores = {cores0, 0.0};
  load.bandwidth = {bw0, 0.0};
  return load;
}

TEST(ModelGuidedForeign, LoadBeyondGateForcesResearch) {
  ModelGuidedPolicy policy;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppView> views{view("a", 0.5)};
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);  // steady

  policy.on_foreign_load(hog(2.0, 10.0));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(policy.last_search_kind(), ModelGuidedPolicy::SearchKind::kFull);
}

TEST(ModelGuidedForeign, WobbleBelowGatesAbsorbed) {
  ModelGuidedPolicy policy;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppView> views{view("a", 0.5)};
  policy.decide(machine, views);

  // 0.1 cores / 1 GB/s: under both default gates (0.25 cores, 2 GB/s).
  policy.on_foreign_load(hog(0.1, 1.0));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
}

TEST(ModelGuidedForeign, SlowCreepEventuallyTriggers) {
  ModelGuidedPolicy policy;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppView> views{view("a", 0.5)};
  policy.decide(machine, views);

  // Each step is under the gate, but the gate compares against the load
  // priced into the last *decision* — the creep accumulates.
  policy.on_foreign_load(hog(0.1, 0.0));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
  policy.on_foreign_load(hog(0.2, 0.0));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
  policy.on_foreign_load(hog(0.3, 0.0));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
}

TEST(ModelGuidedForeign, ForeignClearedRetriggersToo) {
  ModelGuidedPolicy policy;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  const std::vector<AppView> views{view("a", 0.5)};
  policy.decide(machine, views);
  policy.on_foreign_load(hog(2.0, 10.0));
  policy.decide(machine, views);

  // The hog exits: the empty load drifts past the gate in the other
  // direction and the policy re-spreads onto the freed node.
  policy.on_foreign_load(model::ForeignLoad{});
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
}

TEST(ModelGuidedForeign, DecisionKeepsMemBoundAppOffHoggedNode) {
  // Policy-level version of the acceptance scenario: node 0 is fully owned
  // by a foreign hog (both cores, whole 4 GB/s controller). The decision
  // must give the NUMA-bad app zero threads on node 0 — whether the
  // whole-node winner or the refine polish gets there.
  ModelGuidedPolicy policy;
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 4.0, 5.0);
  const std::vector<AppView> views{view("mem", 0.5), view("bad", 0.5, /*home=*/1)};
  policy.on_foreign_load(hog(2.0, 4.0));
  const auto directives = policy.decide(machine, views);
  ASSERT_EQ(directives[1].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(directives[1].node_threads[0], 0u) << "bad app left on the hogged node";
  EXPECT_GE(directives[1].node_threads[1], 1u);
  ASSERT_TRUE(policy.last_allocation().has_value());
  EXPECT_EQ(policy.last_allocation()->threads(1, 0), 0u);
}

}  // namespace
}  // namespace numashare::agent
