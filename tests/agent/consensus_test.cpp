#include "agent/consensus.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

TEST(Consensus, FairProposalsFillMachineEvenly) {
  const auto machine = topo::paper_model_machine();  // 4x8
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) {
    proposals.push_back({a, conservative_desired(machine, 4, a, {})});
  }
  const auto allocation = arbitrate(machine, proposals);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (topo::NodeId n = 0; n < 4; ++n) EXPECT_EQ(allocation.threads(a, n), 2u);
  }
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(Consensus, DeterministicAcrossParticipants) {
  // Each participant computes arbitrate() independently; all must agree.
  const auto machine = topo::paper_model_machine();
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) {
    proposals.push_back({a, conservative_desired(machine, 4, a, {})});
  }
  const auto first = arbitrate(machine, proposals);
  for (int participant = 0; participant < 4; ++participant) {
    EXPECT_TRUE(arbitrate(machine, proposals) == first);
  }
}

TEST(Consensus, SymmetryBreaking) {
  // Everyone asks for one whole node (8 threads on every node would be
  // fine). They must NOT all land on node 0 — the paper's explicit worry.
  const auto machine = topo::paper_model_machine();
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) {
    Proposal p;
    p.app = a;
    p.desired_per_node.assign(4, 8);  // wants everything, anywhere
    proposals.push_back(std::move(p));
  }
  const auto allocation = arbitrate(machine, proposals);
  EXPECT_TRUE(allocation.validate(machine));
  // Full machine handed out...
  EXPECT_EQ(allocation.total(), 32u);
  // ...and each app's first-choice region differs: every app gets cores on
  // its own starting node.
  for (std::uint32_t a = 0; a < 4; ++a) {
    EXPECT_GT(allocation.threads(a, a), 0u) << "app " << a;
  }
}

TEST(Consensus, RespectsCapacityUnderOverAsk) {
  const auto machine = topo::Machine::symmetric(2, 3, 1.0, 10.0);
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 3; ++a) {
    Proposal p;
    p.app = a;
    p.desired_per_node.assign(2, 99);
    proposals.push_back(std::move(p));
  }
  const auto allocation = arbitrate(machine, proposals);
  EXPECT_TRUE(allocation.validate(machine));
  EXPECT_EQ(allocation.total(), 6u);
  // Round-robin grants: everyone ends up with 2 of the 6 cores.
  for (std::uint32_t a = 0; a < 3; ++a) EXPECT_EQ(allocation.app_total(a), 2u);
}

TEST(Consensus, PartialDesiresHonored) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal wants_node1;
  wants_node1.app = 0;
  wants_node1.desired_per_node = {0, 3};
  Proposal wants_anything;
  wants_anything.app = 1;
  wants_anything.desired_per_node = {4, 4};
  const auto allocation = arbitrate(machine, {wants_node1, wants_anything});
  EXPECT_EQ(allocation.threads(0, 0), 0u);  // never granted what it didn't ask
  // Node 1 is contended and splits round-robin fair (2 each); app 1 also
  // soaks up all of node 0, which app 0 declined.
  EXPECT_EQ(allocation.threads(0, 1), 2u);
  EXPECT_EQ(allocation.threads(1, 1), 2u);
  EXPECT_EQ(allocation.app_total(1), 6u);
  EXPECT_EQ(allocation.total(), 8u);
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(Consensus, SingleParticipantGetsItsAsk) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 0;
  p.desired_per_node = {2, 1};
  const auto allocation = arbitrate(machine, {p});
  EXPECT_EQ(allocation.threads(0, 0), 2u);
  EXPECT_EQ(allocation.threads(0, 1), 1u);
}

TEST(Consensus, AiDerivedProposals) {
  // Memory-bound app asks for few threads per node (its bandwidth saturates
  // quickly); compute-bound asks for everything.
  const auto machine = topo::Machine::symmetric(2, 8, 10.0, 32.0, 10.0);
  const auto mem = ai_proposal(machine, 0, 0.5);       // wants ceil(32/20) = 2 per node
  const auto compute = ai_proposal(machine, 1, 10.0);  // wants min(8, ceil(32/1)) = 8 per node
  EXPECT_EQ(mem.desired_per_node, (std::vector<std::uint32_t>{2, 2}));
  EXPECT_EQ(compute.desired_per_node, (std::vector<std::uint32_t>{8, 8}));
  const auto allocation = arbitrate(machine, {mem, compute});
  EXPECT_EQ(allocation.threads(0, 0), 2u);
  EXPECT_EQ(allocation.threads(1, 0), 6u);  // the rest of the node
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(ConsensusDeath, AiProposalRejectsNonPositiveAi) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  EXPECT_DEATH(ai_proposal(machine, 0, 0.0), "positive");
  EXPECT_DEATH(ai_proposal(machine, 0, -1.0), "positive");
}

TEST(ConsensusDeath, EmptyProposalSetRejected) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  EXPECT_DEATH(arbitrate(machine, {}), "at least one proposal");
}

TEST(ConsensusDeath, UnorderedProposalsRejected) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 1;  // not dense
  p.desired_per_node = {1, 1};
  EXPECT_DEATH(arbitrate(machine, {p}), "dense");
}

TEST(ConsensusDeath, WrongNodeCountRejected) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 0;
  p.desired_per_node = {1};
  EXPECT_DEATH(arbitrate(machine, {p}), "every node");
}

}  // namespace
}  // namespace numashare::agent
