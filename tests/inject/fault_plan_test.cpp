// FaultPlan grammar, match-and-consume semantics, the armed flag, and the
// message-hold machinery — plus the ShmChannel drop/dup/delay hooks end to
// end, through the same ns_agent the daemon ships.
#include "inject/fault.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>

#include "agent/shm_channel.hpp"

namespace numashare::inject {
namespace {

/// Every test starts and ends planless; a leaked plan would poison the
/// other tests in this process.
class FaultPlanTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_plan(); }
  void TearDown() override { clear_plan(); }
};

std::string unique_channel(const char* tag) {
  static int counter = 0;
  return std::string("/numashare-injtest-") + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

TEST_F(FaultPlanTest, ParsesBareSite) {
  const auto plan = parse_plan("shm.cmd.drop");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 1u);
  const auto& rule = plan->rules[0];
  EXPECT_EQ(rule.site, "shm.cmd.drop");
  EXPECT_TRUE(rule.where.empty());
  EXPECT_EQ(rule.seq, kAnySeq);
  EXPECT_EQ(rule.count, 1u);
  EXPECT_EQ(rule.after, 0u);
  EXPECT_EQ(rule.exit_code, -1);
}

TEST_F(FaultPlanTest, ParsesFullGrammar) {
  const auto plan = parse_plan(
      "shm.cmd.drop@seq=7;client.die@site=post_claim,exit=9;"
      "registry.pause@state=claiming,us=250;shm.tel.delay@ticks=3,count=0,after=2");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 4u);
  EXPECT_EQ(plan->rules[0].seq, 7u);
  EXPECT_EQ(plan->rules[1].where, "post_claim");
  EXPECT_EQ(plan->rules[1].exit_code, 9);
  EXPECT_EQ(plan->rules[2].where, "claiming");
  EXPECT_EQ(plan->rules[2].delay_us, 250);
  EXPECT_EQ(plan->rules[3].ticks, 3u);
  EXPECT_EQ(plan->rules[3].count, 0u);  // unlimited
  EXPECT_EQ(plan->rules[3].after, 2u);
}

TEST_F(FaultPlanTest, ParsesMsAsMilliseconds) {
  const auto plan = parse_plan("client.enact.stall@ms=40,count=3;a.pause@us=250");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_EQ(plan->rules[0].delay_us, 40'000);  // ms is sugar for us * 1000
  EXPECT_EQ(plan->rules[0].count, 3u);
  EXPECT_EQ(plan->rules[1].delay_us, 250);
  EXPECT_FALSE(parse_plan("a.pause@ms=abc").has_value());
}

TEST_F(FaultPlanTest, ToleratesEmptyClauses) {
  const auto plan = parse_plan(";shm.cmd.drop;;client.die@site=post_claim;");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->rules.size(), 2u);
}

TEST_F(FaultPlanTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(parse_plan("SHM.cmd.drop", &error).has_value());  // uppercase
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_plan("shm.cmd.drop@seq=abc", &error).has_value());
  EXPECT_FALSE(parse_plan("shm.cmd.drop@bogus=1", &error).has_value());
  EXPECT_FALSE(parse_plan("shm.cmd.drop@site=Bad Name", &error).has_value());
  EXPECT_FALSE(parse_plan("@seq=1", &error).has_value());  // empty site
  // Out-of-range numbers would otherwise mean something else.
  for (const char* spec : {"a.site@seq=18446744073709551617",  // wraps to seq 1
                           "a.site@seq=18446744073709551615",  // kAnySeq
                           "a.site@count=18446744073709551616",
                           "a.site@exit=4294967295",  // casts to -1 = site default
                           "a.site@exit=300",         // _exit truncates to 44
                           "a.site@us=9223372036854775808", "a.site@ms=9223372036854776"}) {
    EXPECT_FALSE(parse_plan(spec, &error).has_value()) << spec;
    EXPECT_NE(error.find("needs a number in"), std::string::npos) << spec << ": " << error;
  }
  const auto edge = parse_plan("a.site@seq=18446744073709551614,exit=255,ms=9223372036854775");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->rules[0].exit_code, 255);
  EXPECT_EQ(edge->rules[0].delay_us, 9223372036854775000);
}

TEST_F(FaultPlanTest, InstallClearLifecycle) {
  EXPECT_FALSE(plan_active());
  EXPECT_FALSE(fire("any.site"));
  ASSERT_TRUE(install_spec(";;"));  // an empty plan stays disarmed
  EXPECT_FALSE(plan_active());
  ASSERT_TRUE(install_spec("a.site@count=2"));
  EXPECT_TRUE(plan_active());
  EXPECT_EQ(active_spec(), "a.site@count=2");
  std::string error;
  EXPECT_FALSE(install_spec("bad spec!", &error));  // bad spec leaves the old plan
  EXPECT_TRUE(plan_active());
  clear_plan();
  EXPECT_FALSE(plan_active());
  EXPECT_EQ(active_spec(), "");
}

TEST_F(FaultPlanTest, SeqMatchConsumesCountBudget) {
  ASSERT_TRUE(install_spec("a.site@seq=7,count=2"));
  EXPECT_FALSE(fire("a.site", 6));
  EXPECT_TRUE(fire("a.site", 7));
  EXPECT_TRUE(fire("a.site", 7));
  EXPECT_FALSE(fire("a.site", 7));  // budget exhausted
  EXPECT_EQ(fires("a.site"), 2u);
  EXPECT_EQ(total_fires(), 2u);
}

TEST_F(FaultPlanTest, AfterSkipsEarlyMatches) {
  ASSERT_TRUE(install_spec("a.site@after=3,count=0"));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fire("a.site"));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fire("a.site"));  // unlimited after the skip
  EXPECT_EQ(fires("a.site"), 5u);
}

TEST_F(FaultPlanTest, WhereRestrictsFiring) {
  ASSERT_TRUE(install_spec("a.die@site=post_claim,count=0"));
  EXPECT_FALSE(fire("a.die", kAnySeq, nullptr));
  EXPECT_FALSE(fire("a.die", kAnySeq, "pre_attach"));
  EXPECT_TRUE(fire("a.die", kAnySeq, "post_claim"));
}

TEST_F(FaultPlanTest, IndependentRulesKeepIndependentBudgets) {
  ASSERT_TRUE(install_spec("a.site@count=1;b.site@count=2"));
  EXPECT_TRUE(fire("a.site"));
  EXPECT_FALSE(fire("a.site"));
  EXPECT_TRUE(fire("b.site"));
  EXPECT_TRUE(fire("b.site"));
  EXPECT_FALSE(fire("b.site"));
  EXPECT_EQ(total_fires(), 3u);
}

TEST_F(FaultPlanTest, FirePauseSleepsTheRuleDelay) {
  ASSERT_TRUE(install_spec("a.pause@us=30000"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fire_pause("a.pause"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(30000));
  EXPECT_FALSE(fire_pause("a.pause"));  // count defaults to 1
}

TEST_F(FaultPlanTest, HoldAgesByTicksThenReleases) {
  ASSERT_TRUE(install_spec("a.delay@ticks=2"));
  const std::uint64_t message = 0xdeadbeef;
  ASSERT_TRUE(hold("a.delay", 1, &message, sizeof(message)));
  std::uint64_t out = 0;
  EXPECT_FALSE(take_ready("a.delay", &out, sizeof(out)));  // 2 ticks to go
  delay_tick("a.delay");
  EXPECT_FALSE(take_ready("a.delay", &out, sizeof(out)));  // 1 tick to go
  delay_tick("a.delay");
  // Wrong size never pops someone else's payload.
  std::uint32_t small = 0;
  EXPECT_FALSE(take_ready("a.delay", &small, sizeof(small)));
  ASSERT_TRUE(take_ready("a.delay", &out, sizeof(out)));
  EXPECT_EQ(out, message);
  EXPECT_FALSE(take_ready("a.delay", &out, sizeof(out)));  // drained
}

// ---- the hooks as wired into ShmChannel --------------------------------

TEST_F(FaultPlanTest, ChannelDropIsSilentInTransitLoss) {
  auto channel = agent::ShmChannel::create(unique_channel("drop"));
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(install_spec("shm.cmd.drop@seq=2"));
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    agent::Command cmd;
    cmd.seq = seq;
    // The sender must believe the send worked: in-transit loss, not
    // backpressure...
    EXPECT_TRUE(channel->push_command(cmd));
  }
  // ...and the cross-process drop counter must NOT move — the receiver has
  // to notice the gap from seq alone.
  EXPECT_EQ(channel->commands_dropped(), 0u);
  std::uint64_t last_seq = 0;
  std::uint64_t gaps = 0;
  while (auto cmd = channel->pop_command()) {
    if (last_seq != 0 && cmd->seq != last_seq + 1) ++gaps;
    last_seq = cmd->seq;
  }
  EXPECT_EQ(last_seq, 3u);
  EXPECT_EQ(gaps, 1u);  // 1 -> 3
}

TEST_F(FaultPlanTest, PrivateChannelDropIsSilentInTransitLoss) {
  // A default-constructed (private) channel passes the same fault sites as
  // a named segment: in-process agents are covered by the same plans.
  agent::ShmChannel channel;
  ASSERT_TRUE(install_spec("shm.cmd.drop@seq=2"));
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    agent::Command cmd;
    cmd.seq = seq;
    EXPECT_TRUE(channel.push_command(cmd));
  }
  EXPECT_EQ(channel.commands_dropped(), 0u);
  EXPECT_EQ(channel.commands_queued(), 2u);
  const auto first = channel.pop_command();
  const auto second = channel.pop_command();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(second->seq, 3u);
}

TEST_F(FaultPlanTest, ChannelDupDeliversTwice) {
  auto channel = agent::ShmChannel::create(unique_channel("dup"));
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(install_spec("shm.tel.dup@seq=5"));
  agent::Telemetry tel;
  tel.seq = 5;
  EXPECT_TRUE(channel->push_telemetry(tel));
  EXPECT_EQ(channel->telemetry_queued(), 2u);
  auto first = channel->pop_telemetry();
  auto second = channel->pop_telemetry();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 5u);
  EXPECT_EQ(second->seq, 5u);
}

TEST_F(FaultPlanTest, ChannelDelayReordersMessages) {
  auto channel = agent::ShmChannel::create(unique_channel("delay"));
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(install_spec("shm.cmd.delay@seq=1,ticks=1"));
  agent::Command cmd;
  cmd.seq = 1;
  EXPECT_TRUE(channel->push_command(cmd));  // held, not delivered
  EXPECT_EQ(channel->commands_queued(), 0u);
  cmd.seq = 2;
  EXPECT_TRUE(channel->push_command(cmd));  // delivers 2, then replays 1
  const auto first = channel->pop_command();
  const auto second = channel->pop_command();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 2u);
  EXPECT_EQ(second->seq, 1u);  // genuinely reordered on the wire
  EXPECT_EQ(channel->commands_dropped(), 0u);
}

}  // namespace
}  // namespace numashare::inject
