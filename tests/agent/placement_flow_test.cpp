// End-to-end data-placement flow: model-guided policy with placement advice
// -> kSuggestDataHome command -> RuntimeAdapter handler -> app migrates its
// datablock and re-advertises the new home.
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

TEST(PlacementFlow, PolicySuggestsHomeForMisplacedBadApp) {
  ModelGuidedOptions options;
  options.advise_data_placement = true;
  ModelGuidedPolicy policy(options);
  const auto machine = topo::paper_numabad_machine();
  // The bad app advertises its data on node 2; the joint optimum co-locates
  // threads and data on one node, so a suggestion must appear only if the
  // optimizer wants a different home than the advertised one.
  std::vector<AppView> views{view("p1", 0.5), view("p2", 0.5), view("p3", 0.5),
                             view("bad", 1.0, /*home=*/2)};
  const auto directives = policy.decide(machine, views);
  ASSERT_EQ(directives.size(), 4u);
  // Perfect apps never get suggestions.
  for (int a = 0; a < 3; ++a) EXPECT_EQ(directives[a].suggested_data_home, kMaxNodes);
  // The bad app gets whole-node threads wherever its (possibly re-homed)
  // data is; threads and home agree.
  ASSERT_EQ(directives[3].kind, Directive::Kind::kNodeThreads);
  const auto home = directives[3].suggested_data_home != kMaxNodes
                        ? directives[3].suggested_data_home
                        : 2u;
  EXPECT_EQ(directives[3].node_threads[home], 8u);
}

TEST(PlacementFlow, JointAdviceReportsSearchCost) {
  // The placement-advising branch runs several exhaustive searches; the
  // decision's stats (journaled with each reallocation) carry their sum.
  ModelGuidedOptions options;
  options.advise_data_placement = true;
  ModelGuidedPolicy policy(options);
  const auto machine = topo::paper_numabad_machine();
  std::vector<AppView> views{view("p1", 0.5), view("p2", 0.5), view("p3", 0.5),
                             view("bad", 1.0, /*home=*/2)};
  policy.decide(machine, views);
  const auto& stats = policy.last_search();
  EXPECT_EQ(stats.kind, ModelGuidedPolicy::SearchKind::kFull);
  EXPECT_GT(stats.evaluated, 0u);
  // One exhaustive search on the advertised homes alone evaluates fewer.
  std::vector<model::AppSpec> specs(3, model::AppSpec::numa_perfect("p", 0.5));
  specs.push_back(model::AppSpec::numa_bad("bad", 1.0, 2));
  const auto single = model::exhaustive_search(machine, specs, model::Objective::kTotalGflops,
                                               /*require_full=*/true, 1);
  EXPECT_GT(stats.evaluated, single.evaluated);
}

TEST(PlacementFlow, NoSuggestionWhenPlacementAdviceDisabled) {
  ModelGuidedPolicy policy;  // advise_data_placement = false
  const auto machine = topo::paper_numabad_machine();
  std::vector<AppView> views{view("p1", 0.5), view("p2", 0.5), view("p3", 0.5),
                             view("bad", 1.0, 0)};
  const auto directives = policy.decide(machine, views);
  for (const auto& d : directives) EXPECT_EQ(d.suggested_data_home, kMaxNodes);
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
