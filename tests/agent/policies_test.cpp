#include "agent/policies.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

AppView view(const std::string& name, std::uint64_t progress = 0, double ai = 0.0,
             std::uint32_t home = kMaxNodes) {
  AppView v;
  v.name = name;
  v.has_telemetry = true;
  v.latest.progress = progress;
  v.latest.ai_estimate = ai;
  v.latest.data_home_node = home;
  return v;
}

/// Per-app thread totals of per-node directives.
std::vector<std::uint32_t> totals_of(const std::vector<Directive>& directives) {
  std::vector<std::uint32_t> out;
  for (const auto& d : directives) {
    std::uint32_t total = 0;
    for (auto t : d.node_threads) total += t;
    out.push_back(total);
  }
  return out;
}

TEST(FairSharePolicy, TotalFlavorSumsToCoreCount) {
  FairSharePolicy policy(FairSharePolicy::Flavor::kTotalThreads);
  const auto machine = topo::Machine::symmetric(2, 5, 1.0, 10.0);  // 10 cores
  std::vector<AppView> views{view("a"), view("b"), view("c")};
  const auto directives = policy.decide(machine, views);
  std::uint32_t total = 0;
  for (const auto& d : directives) {
    ASSERT_EQ(d.kind, Directive::Kind::kTotalThreads);
    total += d.total_threads;
  }
  EXPECT_EQ(total, 10u);  // no over-subscription, no idle target
  EXPECT_EQ(directives[0].total_threads, 4u);  // remainder goes first
  EXPECT_EQ(directives[1].total_threads, 3u);
}

TEST(FairSharePolicy, PerNodeFlavorSplitsEachNode) {
  FairSharePolicy policy(FairSharePolicy::Flavor::kPerNode);
  const auto machine = topo::paper_model_machine();  // 4 nodes x 8 cores
  std::vector<AppView> views{view("a"), view("b"), view("c"), view("d")};
  const auto directives = policy.decide(machine, views);
  for (const auto& d : directives) {
    ASSERT_EQ(d.kind, Directive::Kind::kNodeThreads);
    ASSERT_EQ(d.node_threads.size(), 4u);
    for (auto t : d.node_threads) EXPECT_EQ(t, 2u);
  }
}

TEST(FairSharePolicy, RemainderRotatesAcrossNodes) {
  // The round-robin carries over from node to node: 3 apps on 2x4 get
  // 3/3/2 (not 4/2/2), and 21 apps on 4x20 leave nobody at zero.
  FairSharePolicy policy(FairSharePolicy::Flavor::kPerNode);
  const auto small = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  EXPECT_EQ(totals_of(policy.decide(small, {view("a"), view("b"), view("c")})),
            (std::vector<std::uint32_t>{3, 3, 2}));

  FairSharePolicy wide(FairSharePolicy::Flavor::kPerNode);
  const auto skylake = topo::paper_skylake_machine();  // 4 nodes x 20 cores
  std::vector<AppView> views;
  for (int a = 0; a < 21; ++a) views.push_back(view("app" + std::to_string(a)));
  const auto got = totals_of(wide.decide(skylake, views));
  std::uint32_t fours = 0, threes = 0, sum = 0;
  for (auto t : got) {
    fours += t == 4 ? 1 : 0;
    threes += t == 3 ? 1 : 0;
    sum += t;
  }
  EXPECT_EQ(fours, 17u);
  EXPECT_EQ(threes, 4u);
  EXPECT_EQ(sum, 80u);
}

TEST(FairSharePolicy, CappedShareFlowsToPeers) {
  FairSharePolicy policy(FairSharePolicy::Flavor::kPerNode);
  const auto machine = topo::paper_model_machine();  // 4 nodes x 8 cores
  std::vector<AppView> views{view("a"), view("b"), view("c")};
  views[0].thread_cap = 2;
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(totals_of(directives), (std::vector<std::uint32_t>{2, 15, 15}));
  for (std::size_t n = 0; n < 4; ++n) {  // no core idles
    EXPECT_EQ(directives[0].node_threads[n] + directives[1].node_threads[n] +
                  directives[2].node_threads[n],
              8u);
  }
}

TEST(FairSharePolicy, IdempotentUntilAppSetChanges) {
  FairSharePolicy policy;
  const auto machine = topo::paper_model_machine();
  std::vector<AppView> views{view("a"), view("b")};
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
  views.push_back(view("c"));
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
}

TEST(ProducerConsumerPolicy, InitialEvenSplit) {
  ProducerConsumerPolicy policy;
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  std::vector<AppView> views{view("prod", 0), view("cons", 0)};
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(directives[0].total_threads, 4u);
  EXPECT_EQ(directives[1].total_threads, 4u);
}

TEST(ProducerConsumerPolicy, ShiftsTowardConsumerWhenAhead) {
  ProducerConsumerPolicy policy({.min_lead = 2, .max_lead = 8});
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  std::vector<AppView> views{view("prod", 0), view("cons", 0)};
  policy.decide(machine, views);  // initial split 4/4
  views[0].latest.progress = 20;  // lead 20 > 8
  views[1].latest.progress = 0;
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(directives[0].total_threads, 3u);
  EXPECT_EQ(directives[1].total_threads, 5u);
}

TEST(ProducerConsumerPolicy, ShiftsTowardProducerWhenBehind) {
  ProducerConsumerPolicy policy({.min_lead = 2, .max_lead = 8});
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  std::vector<AppView> views{view("prod", 10), view("cons", 10)};
  policy.decide(machine, views);
  // lead 0 < min 2: grow the producer.
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(directives[0].total_threads, 5u);
  EXPECT_EQ(directives[1].total_threads, 3u);
}

TEST(ProducerConsumerPolicy, HoldsInsideBand) {
  ProducerConsumerPolicy policy({.min_lead = 2, .max_lead = 8});
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  std::vector<AppView> views{view("prod", 5), view("cons", 0)};
  policy.decide(machine, views);
  const auto directives = policy.decide(machine, views);  // lead 5, in band
  EXPECT_EQ(directives[0].kind, Directive::Kind::kNone);
  EXPECT_EQ(directives[1].kind, Directive::Kind::kNone);
}

TEST(ProducerConsumerPolicy, RespectsMinThreads) {
  ProducerConsumerPolicy policy({.min_lead = 2, .max_lead = 4});
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  std::vector<AppView> views{view("prod", 0), view("cons", 0)};
  policy.decide(machine, views);
  views[0].latest.progress = 100;  // way ahead; wants to shed threads
  for (int i = 0; i < 10; ++i) policy.decide(machine, views);
  EXPECT_EQ(policy.producer_threads(), 1u);  // the one-thread floor holds
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
}

TEST(ModelGuidedPolicy, WaitsForAiEstimates) {
  ModelGuidedPolicy policy;
  const auto machine = topo::paper_model_machine();
  std::vector<AppView> views{view("a", 0, 0.5), view("b", 0, 0.0)};  // b unknown
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(directives[0].kind, Directive::Kind::kNone);
}

TEST(ModelGuidedPolicy, ReproducesPaperAllocationForFig2Mix) {
  // Apps advertising the Table I mix AIs must receive the paper's optimal
  // (1,1,1,5) per-node split.
  ModelGuidedPolicy policy;
  const auto machine = topo::paper_model_machine();
  std::vector<AppView> views{view("m1", 0, 0.5), view("m2", 0, 0.5), view("m3", 0, 0.5),
                             view("c", 0, 10.0)};
  const auto directives = policy.decide(machine, views);
  ASSERT_EQ(directives[3].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(directives[3].node_threads, (std::vector<std::uint32_t>{5, 5, 5, 5}));
  EXPECT_EQ(directives[0].node_threads, (std::vector<std::uint32_t>{1, 1, 1, 1}));
  ASSERT_TRUE(policy.last_allocation().has_value());
}

TEST(ModelGuidedPolicy, NumaBadAppGetsItsHomeNode) {
  ModelGuidedPolicy policy;
  const auto machine = topo::paper_numabad_machine();
  std::vector<AppView> views{view("p1", 0, 0.5), view("p2", 0, 0.5), view("p3", 0, 0.5),
                             view("bad", 0, 1.0, /*home=*/0)};
  const auto directives = policy.decide(machine, views);
  ASSERT_EQ(directives[3].kind, Directive::Kind::kNodeThreads);
  // The optimizer must give the NUMA-bad app all of node 0 (150 GFLOPS case).
  EXPECT_EQ(directives[3].node_threads[0], 8u);
}

TEST(ModelGuidedPolicy, StableUntilAiDrifts) {
  ModelGuidedPolicy policy;  // re-decides past a 10% AI drift
  const auto machine = topo::paper_model_machine();
  std::vector<AppView> views{view("m", 0, 0.5), view("c", 0, 10.0)};
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
  // Tiny drift: no new directives.
  views[0].latest.ai_estimate = 0.52;
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
  // Large drift: recompute.
  views[0].latest.ai_estimate = 2.0;
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(policy.last_search_kind(), ModelGuidedPolicy::SearchKind::kFull);

  // An administrative cap below the exact-search limit runs the capped
  // exact search.
  views[0].latest.ai_estimate = 4.0;
  views[1].thread_cap = 4;
  const auto capped = totals_of(policy.decide(machine, views));
  EXPECT_EQ(policy.last_search_kind(), ModelGuidedPolicy::SearchKind::kFull);
  EXPECT_LE(capped[1], 4u);

  // Membership churn forgets the last decision.
  policy.on_membership_change();
  EXPECT_EQ(policy.last_search_kind(), ModelGuidedPolicy::SearchKind::kNone);
}

}  // namespace
}  // namespace numashare::agent
