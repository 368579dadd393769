// End-to-end data-placement flow: model-guided policy prices threads at the
// advertised data homes and suggests at most one better home per decision
// -> kSuggestDataHome command -> RuntimeAdapter handler -> app migrates its
// datablock and re-advertises the new home -> the policy re-decides.
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"

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

/// Two bandwidth-bound NUMA-bad apps keep their data on node 0 of a 2x4
/// machine: whichever allocation they get, one of them is better served
/// from node 1.
topo::Machine shared_home_machine() { return topo::Machine::symmetric(2, 4, 10.0, 40.0, 5.0); }
std::vector<AppView> shared_home_views() { return {view("bad-1", 0.5, 0), view("bad-2", 0.5, 0)}; }

std::size_t suggestions(const std::vector<Directive>& directives) {
  std::size_t count = 0;
  for (const auto& d : directives) count += d.suggested_data_home != kMaxNodes ? 1 : 0;
  return count;
}

TEST(PlacementFlow, PolicySuggestsHomeForMisplacedBadApp) {
  // Threads go where the data is now; the suggestion names a better home
  // for one app, and the decision records that it made one.
  ModelGuidedPolicy policy;
  const auto machine = shared_home_machine();
  const auto directives = policy.decide(machine, shared_home_views());
  ASSERT_EQ(directives.size(), 2u);
  ASSERT_EQ(suggestions(directives), 1u);
  const auto& moved = directives[0].suggested_data_home != kMaxNodes ? directives[0]
                                                                     : directives[1];
  EXPECT_EQ(moved.suggested_data_home, 1u);
  EXPECT_EQ(moved.kind, Directive::Kind::kNodeThreads);
  EXPECT_EQ(policy.last_search().home_moves, 1u);
}

TEST(PlacementFlow, JointAdviceReportsSearchCost) {
  // A decision with a NUMA-bad app runs the exact seed, a climb and the
  // placement advice; its stats (journaled with each reallocation) carry
  // the sum, within the one solve budget.
  ModelGuidedPolicy policy;
  const auto machine = topo::paper_numabad_machine();
  std::vector<AppView> views{view("p1", 0.5), view("p2", 0.5), view("p3", 0.5),
                             view("bad", 1.0, /*home=*/2)};
  policy.decide(machine, views);
  const auto& stats = policy.last_search();
  EXPECT_EQ(stats.kind, ModelGuidedPolicy::SearchKind::kFull);
  EXPECT_GT(stats.evaluated, 0u);
  EXPECT_LE(stats.evaluated + stats.bound_solves, model::kMaxSearchSolves);
  // One exhaustive search on the advertised homes alone evaluates fewer.
  std::vector<model::AppSpec> specs(3, model::AppSpec::numa_perfect("p", 0.5));
  specs.push_back(model::AppSpec::numa_bad("bad", 1.0, 2));
  const auto single = model::exhaustive_search(machine, specs, model::Objective::kTotalGflops,
                                               /*require_full=*/true, 1);
  EXPECT_GT(stats.evaluated, single.evaluated);
}

TEST(PlacementFlow, NoSuggestionWhenAdvertisedHomeIsBest) {
  // The bad app's data on node 0: it gets all of node 0 (the paper's
  // 150-GFLOPS case), and no other home beats that.
  ModelGuidedPolicy policy;
  const auto machine = topo::paper_numabad_machine();
  std::vector<AppView> views{view("p1", 0.5), view("p2", 0.5), view("p3", 0.5),
                             view("bad", 1.0, 0)};
  const auto directives = policy.decide(machine, views);
  EXPECT_EQ(suggestions(directives), 0u);
  EXPECT_EQ(directives[3].node_threads[0], 8u);
  EXPECT_EQ(policy.last_search().home_moves, 0u);
  EXPECT_NEAR(policy.last_search().predicted_gflops, 150.0, 1e-9);
}

TEST(PlacementFlow, HomeChangeReDecidesWithoutAiDrift) {
  // The client obeys the suggestion and advertises its new home with the
  // same AI: the policy must re-price, not keep threads priced for the old
  // home.
  ModelGuidedPolicy policy;
  const auto machine = shared_home_machine();
  auto views = shared_home_views();
  const auto first = policy.decide(machine, views);
  ASSERT_EQ(suggestions(first), 1u);
  // Unchanged inputs: nothing to do.
  EXPECT_EQ(policy.decide(machine, views)[0].kind, Directive::Kind::kNone);
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (first[a].suggested_data_home != kMaxNodes) {
      views[a].latest.data_home_node = first[a].suggested_data_home;
    }
  }
  const auto second = policy.decide(machine, views);
  EXPECT_EQ(second[0].kind, Directive::Kind::kNodeThreads);
  EXPECT_NEAR(policy.last_search().predicted_gflops, 40.0, 1e-9);
}

TEST(PlacementFlow, SharedHomeSettlesOneMoveAtATime) {
  // Each decision suggests at most one move; obeying them settles the two
  // apps on separate homes, each owning its node (20 GFLOPS each).
  ModelGuidedPolicy policy;
  const auto machine = shared_home_machine();
  auto views = shared_home_views();
  std::size_t moves = 0;
  for (int round = 0; round < 4; ++round) {
    const auto directives = policy.decide(machine, views);
    const auto count = suggestions(directives);
    ASSERT_LE(count, 1u);
    if (count == 0) break;
    ++moves;
    for (std::size_t a = 0; a < views.size(); ++a) {
      if (directives[a].suggested_data_home != kMaxNodes) {
        views[a].latest.data_home_node = directives[a].suggested_data_home;
      }
    }
  }
  EXPECT_EQ(moves, 1u);
  EXPECT_NE(views[0].latest.data_home_node, views[1].latest.data_home_node);
  EXPECT_EQ(policy.last_search().home_moves, 0u);
  EXPECT_NEAR(policy.last_search().predicted_gflops, 40.0, 1e-9);
}

TEST(PlacementFlow, SuggestionReachesHandlerAndUpdatesTelemetry) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime runtime(machine, {.name = "mig"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, /*app_ai=*/1.0, /*data_home_node=*/0);

  // The "application": a datablock it migrates when advised.
  auto data = runtime.create_datablock(1024, 0);
  adapter.set_data_home_handler([&](topo::NodeId node) {
    data->move_to(node);
    adapter.set_data_home(node);
  });

  Command suggestion;
  suggestion.type = CommandType::kSuggestDataHome;
  suggestion.suggested_home = 1;
  suggestion.seq = 1;
  ASSERT_TRUE(channel.push_command(suggestion));
  adapter.pump();

  EXPECT_EQ(data->node(), 1u);
  EXPECT_EQ(runtime.datablocks().bytes_on_node(1), 1024u);
  // The next telemetry sample advertises the new home.
  std::optional<Telemetry> last;
  while (auto t = channel.pop_telemetry()) last = *t;
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->data_home_node, 1u);
}

TEST(PlacementFlow, OutOfRangeSuggestionIgnored) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime runtime(machine, {.name = "rng"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  bool called = false;
  adapter.set_data_home_handler([&](topo::NodeId) { called = true; });
  Command suggestion;
  suggestion.type = CommandType::kSuggestDataHome;
  suggestion.suggested_home = 99;
  channel.push_command(suggestion);
  adapter.pump();
  EXPECT_FALSE(called);
}

TEST(PlacementFlow, NoHandlerMeansAdvisoryDropped) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime runtime(machine, {.name = "nohandler"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel);
  Command suggestion;
  suggestion.type = CommandType::kSuggestDataHome;
  suggestion.suggested_home = 1;
  channel.push_command(suggestion);
  EXPECT_EQ(adapter.pump(), 1u);  // consumed without effect, no crash
}

TEST(PlacementFlow, AgentTransmitsSuggestionsThroughDirectives) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);

  // A stub policy that always suggests node 1.
  class SuggestPolicy final : public Policy {
   public:
    const char* name() const override { return "suggest-stub"; }
    std::vector<Directive> decide(const topo::Machine&,
                                  const std::vector<AppView>& views) override {
      std::vector<Directive> out(views.size());
      out[0].suggested_data_home = 1;
      return out;
    }
  };

  rt::Runtime runtime(machine, {.name = "stub"});
  ShmChannel channel;
  RuntimeAdapter adapter(runtime, channel, 1.0, 0);
  std::uint32_t suggested = kMaxNodes;
  adapter.set_data_home_handler([&](topo::NodeId node) { suggested = node; });

  Agent agent(machine, std::make_unique<SuggestPolicy>());
  agent.add_app("stub", channel);
  adapter.pump();
  agent.step(0.0);
  adapter.pump();
  EXPECT_EQ(suggested, 1u);
  EXPECT_GE(agent.commands_sent(), 1u);
}

}  // namespace
}  // namespace numashare::agent
