// Degraded-mode slot arbitration under membership churn (docs/DAEMON.md
// "Failover & degraded mode"): survivors gather proposals from the orphaned
// registry in whatever order their scans happen to visit slots, and members
// keep dying mid-episode. The consensus result must be a pure function of
// the proposal SET — independent of gather order, and identical for every
// survivor that sees the same subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "agent/consensus.hpp"
#include "common/rng.hpp"
#include "topology/machine.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

std::vector<SlotProposal> random_proposals(numashare::Xoshiro256& rng,
                                           const topo::Machine& machine, std::uint32_t count) {
  // Sparse, unique slot indices — the shape a real registry scan yields.
  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < 32; ++s) slots.push_back(s);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::swap(slots[i], slots[i + rng.uniform_u64(slots.size() - i)]);
  }
  slots.resize(count);
  std::vector<SlotProposal> proposals;
  for (const auto slot : slots) {
    SlotProposal p;
    p.slot = slot;
    p.desired_per_node.resize(machine.node_count());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      p.desired_per_node[n] =
          static_cast<std::uint32_t>(rng.uniform_u64(machine.cores_in_node(n) + 1));
    }
    proposals.push_back(std::move(p));
  }
  return proposals;
}

TEST(ConsensusChurn, GatherOrderCannotInfluenceTheResult) {
  numashare::Xoshiro256 rng(0x5107a110c47ull);
  for (int round = 0; round < 50; ++round) {
    const auto machine = topo::Machine::symmetric(
        2 + static_cast<std::uint32_t>(rng.uniform_u64(4)),
        2 + static_cast<std::uint32_t>(rng.uniform_u64(7)), 1.0, 10.0);
    const auto count = 1 + static_cast<std::uint32_t>(rng.uniform_u64(8));
    auto proposals = random_proposals(rng, machine, count);
    const auto reference = arbitrate_slots(machine, proposals);
    for (int perm = 0; perm < 4; ++perm) {
      // A different survivor's scan: same set, different visit order.
      for (std::size_t i = 0; i + 1 < proposals.size(); ++i) {
        std::swap(proposals[i],
                  proposals[i + rng.uniform_u64(proposals.size() - i)]);
      }
      const auto again = arbitrate_slots(machine, proposals);
      ASSERT_EQ(again.slots, reference.slots);
      ASSERT_TRUE(again.allocation == reference.allocation) << "round " << round;
    }
  }
}

TEST(ConsensusChurn, ResultIsAFunctionOfTheSurvivorSubset) {
  // Members die mid-episode: every survivor eventually filters the dead
  // slot out and re-arbitrates. All survivors arbitrating the same SUBSET
  // must agree, whatever superset they previously saw.
  numashare::Xoshiro256 rng(0xdeadf057ull);
  const auto machine = topo::paper_model_machine();  // 4x8
  for (int round = 0; round < 25; ++round) {
    auto proposals = random_proposals(rng, machine, 6);
    while (proposals.size() > 1) {
      // One more member dies; drop a random proposal.
      proposals.erase(proposals.begin() +
                      static_cast<std::ptrdiff_t>(rng.uniform_u64(proposals.size())));
      auto shuffled = proposals;
      for (std::size_t i = 0; i + 1 < shuffled.size(); ++i) {
        std::swap(shuffled[i], shuffled[i + rng.uniform_u64(shuffled.size() - i)]);
      }
      const auto a = arbitrate_slots(machine, proposals);
      const auto b = arbitrate_slots(machine, shuffled);
      ASSERT_EQ(a.slots, b.slots);
      ASSERT_TRUE(a.allocation == b.allocation);
      ASSERT_TRUE(a.allocation.validate(machine));  // never oversubscribes
    }
  }
}

TEST(ConsensusChurn, ThreadsForMapsRowsBackToSlots) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  std::vector<SlotProposal> proposals;
  for (const std::uint32_t slot : {17u, 3u, 29u}) {  // deliberately unsorted
    SlotProposal p;
    p.slot = slot;
    p.desired_per_node.assign(machine.node_count(), 1);
    proposals.push_back(std::move(p));
  }
  const auto result = arbitrate_slots(machine, proposals);
  EXPECT_EQ(result.slots, (std::vector<std::uint32_t>{3, 17, 29}));
  for (const std::uint32_t slot : {3u, 17u, 29u}) {
    const auto threads = result.threads_for(slot);
    ASSERT_EQ(threads.size(), machine.node_count());
    EXPECT_EQ(threads[0] + threads[1], 2u) << "slot " << slot;
  }
  EXPECT_TRUE(result.threads_for(5).empty());  // not a member this round
}

TEST(ConsensusChurn, DuplicateSlotsAreRejected) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  std::vector<SlotProposal> proposals(2);
  proposals[0].slot = proposals[1].slot = 4;
  proposals[0].desired_per_node.assign(2, 1);
  proposals[1].desired_per_node.assign(2, 1);
  EXPECT_DEATH(arbitrate_slots(machine, std::move(proposals)), "duplicate");
}

TEST(ConsensusChurn, ConservativeDesiredClampsToLastGrant) {
  const auto machine = topo::paper_model_machine();  // 4 nodes x 8 cores
  // Unconstrained: the participant's row of the fair share.
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(conservative_desired(machine, 4, rank, {}),
              (std::vector<std::uint32_t>{2, 2, 2, 2}));
  }
  // A capped app cannot grow through a daemon crash: elementwise min.
  EXPECT_EQ(conservative_desired(machine, 4, 0, {1, 0, 8, 2}),
            (std::vector<std::uint32_t>{1, 0, 2, 2}));
  // Sixteen participants split each node eight ways: every rank still seeks
  // two threads, the low ranks on nodes 0 and 2, the high ones on 1 and 3...
  EXPECT_EQ(conservative_desired(machine, 16, 0, {}),
            (std::vector<std::uint32_t>{1, 0, 1, 0}));
  EXPECT_EQ(conservative_desired(machine, 16, 15, {}),
            (std::vector<std::uint32_t>{0, 1, 0, 1}));
  // ...unless that exceeds the last grant.
  EXPECT_EQ(conservative_desired(machine, 16, 0, {0, 1, 0, 0}),
            (std::vector<std::uint32_t>{0, 0, 0, 0}));
}

// Degraded survivors proposing their fair-share rows hand out the whole
// machine and leave nobody at zero threads, including when the survivors do
// not divide a node's cores.
TEST(ConsensusChurn, ConservativeProposalsUseEveryCore) {
  struct Case {
    topo::Machine machine;
    std::uint32_t survivors;
  };
  const Case cases[] = {{topo::Machine::symmetric(2, 2, 1.0, 10.0), 3},
                        {topo::paper_skylake_machine(), 21},
                        {topo::paper_skylake_machine(), 3}};
  for (const auto& [machine, survivors] : cases) {
    SCOPED_TRACE(machine.name() + " x" + std::to_string(survivors));
    std::vector<SlotProposal> proposals(survivors);
    for (std::uint32_t rank = 0; rank < survivors; ++rank) {
      proposals[rank].slot = 5 + 3 * rank;  // sparse, as in the registry
      proposals[rank].desired_per_node = conservative_desired(machine, survivors, rank, {});
    }
    const auto result = arbitrate_slots(machine, std::move(proposals));
    EXPECT_EQ(result.allocation.total(), machine.core_count());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      EXPECT_EQ(result.allocation.node_total(n), machine.cores_in_node(n)) << "node " << n;
    }
    for (model::AppId a = 0; a < survivors; ++a) {
      EXPECT_GE(result.allocation.app_total(a), 1u) << "survivor " << a;
    }
  }
}

}  // namespace
}  // namespace numashare::agent
