// Application specifications for the allocation model (paper §III.A).
//
// The model characterizes an application by a single arithmetic intensity
// and by how its data is placed: "NUMA-perfect" applications only touch the
// memory of the node each thread runs on; the "NUMA-bad" worst case stores
// all data on one home node and every thread reaches across to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "topology/machine.hpp"

namespace numashare::model {

enum class Placement : std::uint8_t {
  /// Each thread accesses only the memory of the node it executes on.
  kNumaPerfect,
  /// All data lives on `home_node`; threads elsewhere access it remotely.
  kNumaBad,
};

struct AppSpec {
  std::string name;
  ArithmeticIntensity ai = 1.0;
  Placement placement = Placement::kNumaPerfect;
  /// Only meaningful for kNumaBad.
  topo::NodeId home_node = 0;
  /// Amdahl serial fraction in [0, 1): 0 = perfectly parallel. Captures the
  /// paper's §II scenario of sub-linear scaling — "the application's
  /// performance might increase with any extra thread, but the scaling is
  /// not linear" — as a cap on the app's aggregate throughput:
  /// effective parallelism of T threads = 1 / (serial + (1-serial)/T).
  double serial_fraction = 0.0;

  static AppSpec numa_perfect(std::string name, ArithmeticIntensity ai) {
    return AppSpec{std::move(name), ai, Placement::kNumaPerfect, 0, 0.0};
  }
  static AppSpec numa_bad(std::string name, ArithmeticIntensity ai, topo::NodeId home) {
    return AppSpec{std::move(name), ai, Placement::kNumaBad, home, 0.0};
  }
  AppSpec with_serial_fraction(double serial) const {
    AppSpec out = *this;
    out.serial_fraction = serial;
    return out;
  }
  /// Effective thread count of T real threads under Amdahl's law.
  double effective_threads(std::uint32_t threads) const {
    if (threads == 0) return 0.0;
    if (serial_fraction <= 0.0) return threads;
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / threads);
  }

  /// The memory node a thread of this app touches when executing on `exec`.
  topo::NodeId memory_node(topo::NodeId exec) const {
    return placement == Placement::kNumaPerfect ? exec : home_node;
  }
};

using AppId = std::uint32_t;

/// The canonical mixes the paper evaluates.
namespace mixes {

/// Tables I/II & Figure 2: three memory-bound (AI = 0.5) + one compute-bound
/// (AI = 10) application, all NUMA-perfect.
std::vector<AppSpec> inline three_mem_one_compute() {
  return {AppSpec::numa_perfect("mem-bound-1", 0.5), AppSpec::numa_perfect("mem-bound-2", 0.5),
          AppSpec::numa_perfect("mem-bound-3", 0.5), AppSpec::numa_perfect("compute-bound", 10.0)};
}

/// Figure 3: three NUMA-perfect memory-bound (AI = 0.5) + one NUMA-bad
/// (AI = 1) storing all data on `bad_home`.
std::vector<AppSpec> inline three_perfect_one_bad(topo::NodeId bad_home) {
  return {AppSpec::numa_perfect("perfect-1", 0.5), AppSpec::numa_perfect("perfect-2", 0.5),
          AppSpec::numa_perfect("perfect-3", 0.5), AppSpec::numa_bad("numa-bad", 1.0, bad_home)};
}

/// Table III rows 1-3: three memory-bound AI = 1/32 + one compute-bound AI = 1.
std::vector<AppSpec> inline skylake_mem_compute() {
  return {AppSpec::numa_perfect("mem-bound-1", 1.0 / 32.0),
          AppSpec::numa_perfect("mem-bound-2", 1.0 / 32.0),
          AppSpec::numa_perfect("mem-bound-3", 1.0 / 32.0),
          AppSpec::numa_perfect("compute-bound", 1.0)};
}

/// Table III rows 4-5: three NUMA-perfect AI = 1/32 + one NUMA-bad AI = 1/16.
std::vector<AppSpec> inline skylake_perfect_bad(topo::NodeId bad_home) {
  return {AppSpec::numa_perfect("perfect-1", 1.0 / 32.0),
          AppSpec::numa_perfect("perfect-2", 1.0 / 32.0),
          AppSpec::numa_perfect("perfect-3", 1.0 / 32.0),
          AppSpec::numa_bad("numa-bad", 1.0 / 16.0, bad_home)};
}

}  // namespace mixes

}  // namespace numashare::model
