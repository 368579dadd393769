// A literal Allocation constructor for model tests: threads[app][node], every
// row the same length.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocation.hpp"

namespace numashare::model {

inline Allocation allocation_from_matrix(
    const std::vector<std::vector<std::uint32_t>>& threads) {
  const auto apps = static_cast<std::uint32_t>(threads.size());
  const auto nodes = apps == 0 ? 0u : static_cast<std::uint32_t>(threads.front().size());
  Allocation allocation(apps, nodes);
  for (AppId a = 0; a < apps; ++a) {
    for (topo::NodeId n = 0; n < nodes; ++n) allocation.set_threads(a, n, threads[a].at(n));
  }
  return allocation;
}

}  // namespace numashare::model
