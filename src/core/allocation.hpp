// Thread allocations: how many threads each application runs on each NUMA
// node (the paper's option-3 vocabulary, which subsumes the examples given
// for options 1 and 2 at the model level).
//
// The model-level invariant from §III: no over-subscription — on every node
// the threads of all applications together never exceed the node's core
// count. validate() enforces it; the runtime's oversubscribed baseline (E8)
// deliberately lives outside this type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/app_spec.hpp"
#include "topology/machine.hpp"

namespace numashare::model {

class Allocation {
 public:
  Allocation() = default;
  Allocation(std::uint32_t apps, std::uint32_t nodes);

  /// Every app gets the same count on every node: cores_per_node / apps
  /// (remainder cores left idle — the paper's even scenarios divide exactly).
  static Allocation even(const topo::Machine& machine, std::uint32_t apps);

  /// Same count for every node, but per-app counts differ:
  /// per_node_counts[app] threads of `app` on each node (Figure 2a).
  static Allocation uniform_per_node(const topo::Machine& machine,
                                     std::vector<std::uint32_t> per_node_counts);

  /// App i gets all cores of node order[i] (Figure 2c). order.size() must
  /// equal the node count; apps == nodes.
  static Allocation node_per_app(const topo::Machine& machine,
                                 std::vector<topo::NodeId> order);

  std::uint32_t app_count() const { return static_cast<std::uint32_t>(threads_.size()); }
  std::uint32_t node_count() const {
    return threads_.empty() ? 0 : static_cast<std::uint32_t>(threads_.front().size());
  }

  std::uint32_t threads(AppId app, topo::NodeId node) const;
  void set_threads(AppId app, topo::NodeId node, std::uint32_t count);

  std::uint32_t app_total(AppId app) const;
  std::uint32_t node_total(topo::NodeId node) const;
  std::uint32_t total() const;

  /// No-oversubscription check against `machine`, plus shape checks.
  bool validate(const topo::Machine& machine, std::string* error = nullptr) const;

  /// "app0:[1 1 1 1] app1:[5 5 5 5]" style rendering.
  std::string to_string() const;

  bool operator==(const Allocation& other) const { return threads_ == other.threads_; }

 private:
  std::vector<std::vector<std::uint32_t>> threads_;
};

}  // namespace numashare::model
