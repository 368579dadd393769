// Epoch-level NUMA machine simulation — the memory-arbitration core.
//
// MachineSim answers one question per epoch: given which threads run where
// and what bandwidth each wants, how many bytes does each thread group move
// and how many FLOPs does it retire in `dt` seconds? The arbitration follows
// the same physics as the analytic model (remote-first with link caps,
// per-core baseline, proportional remainder) but is computed independently
// per epoch with the second-order effects of effects.hpp layered on top —
// with SimEffects::none() the two implementations must agree, which tests
// exploit as cross-validation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/effects.hpp"
#include "topology/machine.hpp"

namespace numashare::sim {

/// One homogeneous bundle of threads for arbitration purposes.
struct GroupLoad {
  topo::NodeId exec_node = 0;
  topo::NodeId memory_node = 0;
  std::uint32_t threads = 0;
  GBps per_thread_demand = 0.0;   // what each thread asks for this epoch
  ArithmeticIntensity ai = 1.0;
  bool numa_bad = false;          // triggers the locality penalty
};

struct GroupGrant {
  GBps per_thread_bandwidth = 0.0;    // achieved, after effects
  GFlops per_thread_gflops = 0.0;     // rate during this epoch
  double group_gbytes = 0.0;          // bytes moved by the whole group in dt
  double group_gflop = 0.0;           // work retired by the whole group in dt
};

class MachineSim {
 public:
  MachineSim(topo::Machine machine, SimEffects effects, std::uint64_t seed = 0x5eed);

  const topo::Machine& machine() const { return machine_; }
  const SimEffects& effects() const { return effects_; }

  /// Advance one epoch of `dt` seconds under the given load. Deterministic
  /// for a fixed (seed, call sequence).
  std::vector<GroupGrant> epoch(const std::vector<GroupLoad>& loads, double dt);

 private:
  topo::Machine machine_;
  SimEffects effects_;
  Xoshiro256 rng_;
};

}  // namespace numashare::sim
