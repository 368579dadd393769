// Decentralized core-allocation consensus — the paper's agent-free variant:
// "it would also be possible to have the different runtime systems
// cooperatively come to an agreement."
//
// Every participant runs arbitrate() over the same set of proposals and, the
// function being deterministic, lands on the identical allocation with no
// coordinator. The grant order rotates each participant's starting node by
// its own index, which is exactly the symmetry-breaking the paper warns is
// needed: "we would not want all runtime systems to decide that … they will
// all use node 0."
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/allocation.hpp"
#include "topology/machine.hpp"

namespace numashare::agent {

struct Proposal {
  std::uint32_t app = 0;  // participant index; must be dense and unique
  /// Threads the app would like on each node (its ideal placement).
  std::vector<std::uint32_t> desired_per_node;
};

/// Deterministically reconcile proposals into a no-oversubscription
/// allocation:
///  1. grants proceed round-robin over apps, one thread per turn;
///  2. app `a` tries nodes starting at (a * stride) % node_count, where
///     stride spreads the apps' preferred starting nodes apart;
///  3. a turn grants the first node that still has a free core *and* where
///     the app still wants a thread; an app with nothing left to want (or no
///     feasible node) passes; arbitration ends when every app passes.
model::Allocation arbitrate(const topo::Machine& machine,
                            const std::vector<Proposal>& proposals);

/// The self-interested proposal of an app that knows its arithmetic
/// intensity: on each node, just enough threads for its aggregate demand to
/// saturate the node's memory bandwidth (extra threads of a memory-bound
/// code only split the same bytes), capped at the node's cores, so a
/// compute-bound code asks for everything. `ai` must be positive.
Proposal ai_proposal(const topo::Machine& machine, std::uint32_t app, ArithmeticIntensity ai);

/// A proposal keyed by a registry slot index instead of a dense app index —
/// the form degraded-mode survivors exchange through the orphaned registry
/// segment, where membership is a sparse set of surviving slots.
struct SlotProposal {
  std::uint32_t slot = 0;  ///< registry slot; must be unique within a set
  std::vector<std::uint32_t> desired_per_node;
};

/// arbitrate() over slot-keyed proposals. The result row for each slot is
/// independent of the *order* proposals were gathered in: the set is sorted
/// by slot and densified before arbitration, so every survivor that snapshots
/// the same proposal set computes the bitwise-identical allocation — the
/// whole point of arbiter-free degraded mode.
struct SlotAllocation {
  std::vector<std::uint32_t> slots;  ///< ascending; row i of allocation = slots[i]
  model::Allocation allocation;
  /// Per-node threads granted to `slot`; empty when the slot proposed
  /// nothing in this round.
  std::vector<std::uint32_t> threads_for(std::uint32_t slot) const;
};
SlotAllocation arbitrate_slots(const topo::Machine& machine,
                               std::vector<SlotProposal> proposals);

/// The conservative degraded-mode proposal of the participant ranked `rank`
/// (0-based, by slot) among `participants`: its row of
/// model::fair_share(machine, participants), which hands out every core and
/// leaves no participant at zero while there are cores for all, clamped
/// elementwise to `last_granted` (per-node threads the dead daemon last
/// granted this app) when that is known. Survivors arbitrating only such
/// proposals can never oversubscribe beyond the last daemon-sanctioned
/// state, no matter how membership churns.
std::vector<std::uint32_t> conservative_desired(const topo::Machine& machine,
                                                std::uint32_t participants, std::uint32_t rank,
                                                const std::vector<std::uint32_t>& last_granted);

}  // namespace numashare::agent
