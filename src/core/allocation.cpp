#include "core/allocation.hpp"

#include <numeric>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace numashare::model {

Allocation::Allocation(std::uint32_t apps, std::uint32_t nodes)
    : threads_(apps, std::vector<std::uint32_t>(nodes, 0)) {}

Allocation Allocation::even(const topo::Machine& machine, std::uint32_t apps) {
  NS_REQUIRE(apps > 0, "need at least one app");
  Allocation allocation(apps, machine.node_count());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    const std::uint32_t share = machine.cores_in_node(n) / apps;
    for (AppId a = 0; a < apps; ++a) allocation.set_threads(a, n, share);
  }
  return allocation;
}

Allocation Allocation::uniform_per_node(const topo::Machine& machine,
                                        std::vector<std::uint32_t> per_node_counts) {
  NS_REQUIRE(!per_node_counts.empty(), "need at least one app");
  Allocation allocation(static_cast<std::uint32_t>(per_node_counts.size()),
                        machine.node_count());
  for (AppId a = 0; a < per_node_counts.size(); ++a) {
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      allocation.set_threads(a, n, per_node_counts[a]);
    }
  }
  return allocation;
}

Allocation Allocation::node_per_app(const topo::Machine& machine,
                                    std::vector<topo::NodeId> order) {
  NS_REQUIRE(order.size() == machine.node_count(),
             "node_per_app needs exactly one node per app");
  Allocation allocation(static_cast<std::uint32_t>(order.size()), machine.node_count());
  for (AppId a = 0; a < order.size(); ++a) {
    const topo::NodeId n = order[a];
    allocation.set_threads(a, n, machine.cores_in_node(n));
  }
  return allocation;
}

std::uint32_t Allocation::threads(AppId app, topo::NodeId node) const {
  NS_REQUIRE(app < threads_.size(), "app id out of range");
  NS_REQUIRE(node < threads_[app].size(), "node id out of range");
  return threads_[app][node];
}

void Allocation::set_threads(AppId app, topo::NodeId node, std::uint32_t count) {
  NS_REQUIRE(app < threads_.size(), "app id out of range");
  NS_REQUIRE(node < threads_[app].size(), "node id out of range");
  threads_[app][node] = count;
}

std::uint32_t Allocation::app_total(AppId app) const {
  NS_REQUIRE(app < threads_.size(), "app id out of range");
  return std::accumulate(threads_[app].begin(), threads_[app].end(), 0u);
}

std::uint32_t Allocation::node_total(topo::NodeId node) const {
  std::uint32_t total = 0;
  for (const auto& row : threads_) {
    NS_REQUIRE(node < row.size(), "node id out of range");
    total += row[node];
  }
  return total;
}

std::uint32_t Allocation::total() const {
  std::uint32_t total = 0;
  for (AppId a = 0; a < app_count(); ++a) total += app_total(a);
  return total;
}

bool Allocation::validate(const topo::Machine& machine, std::string* error) const {
  const auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  if (threads_.empty()) return fail("no apps in allocation");
  if (node_count() != machine.node_count()) {
    return fail(ns_format("allocation has {} nodes, machine has {}", node_count(),
                          machine.node_count()));
  }
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    const std::uint32_t used = node_total(n);
    const std::uint32_t cores = machine.cores_in_node(n);
    if (used > cores) {
      return fail(ns_format("node {} oversubscribed: {} threads on {} cores", n, used, cores));
    }
  }
  return true;
}

std::string Allocation::to_string() const {
  std::string out;
  for (AppId a = 0; a < app_count(); ++a) {
    if (a) out += " ";
    out += ns_format("app{}:[", a);
    for (topo::NodeId n = 0; n < node_count(); ++n) {
      if (n) out += " ";
      out += ns_format("{}", threads_[a][n]);
    }
    out += "]";
  }
  return out;
}

}  // namespace numashare::model
