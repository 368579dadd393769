#include "topology/discovery.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "topology/presets.hpp"

namespace numashare::topo {

namespace {

// Filled in for every discovered core, node and link: sysfs has no such data.
constexpr GFlops kAssumedCorePeakGflops = 1.0;
constexpr GBps kAssumedNodeBandwidth = 10.0;
constexpr GBps kAssumedLinkBandwidth = 5.0;

/// Parse a Linux cpulist string ("0-3,8,10-11") into core ids.
std::vector<CoreId> parse_cpulist(const std::string& text) {
  std::vector<CoreId> cpus;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    // Trim whitespace/newlines.
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               item.end());
    if (item.empty()) continue;
    const auto dash = item.find('-');
    if (dash == std::string::npos) {
      cpus.push_back(static_cast<CoreId>(std::stoul(item)));
    } else {
      const auto lo = static_cast<CoreId>(std::stoul(item.substr(0, dash)));
      const auto hi = static_cast<CoreId>(std::stoul(item.substr(dash + 1)));
      for (CoreId c = lo; c <= hi; ++c) cpus.push_back(c);
    }
  }
  return cpus;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::optional<Machine> discover_host(const DiscoveryOptions& options) {
  const auto online = read_file(options.sysfs_root + "/online");
  if (!online) return std::nullopt;
  const auto node_ids = parse_cpulist(*online);
  if (node_ids.empty()) return std::nullopt;

  // Gather per-node cpu lists first; sysfs cpu numbering need not be dense or
  // grouped, while Machine requires dense ids — so we renumber and remember
  // nothing about the original gaps (affinity masks use the original ids via
  // the returned machine only when numbering is already dense; see affinity).
  std::vector<std::vector<CoreId>> node_cpus;
  for (auto node_id : node_ids) {
    const auto cpulist =
        read_file(options.sysfs_root + "/node" + std::to_string(node_id) + "/cpulist");
    if (!cpulist) return std::nullopt;
    auto cpus = parse_cpulist(*cpulist);
    if (cpus.empty()) continue;  // memory-only node: irrelevant for core allocation
    node_cpus.push_back(std::move(cpus));
  }
  if (node_cpus.empty()) return std::nullopt;

  Machine machine;
  machine.set_name("host");
  for (const auto& cpus : node_cpus) {
    machine.add_node(static_cast<std::uint32_t>(cpus.size()), kAssumedCorePeakGflops,
                     kAssumedNodeBandwidth);
  }
  for (NodeId a = 0; a < machine.node_count(); ++a) {
    for (NodeId b = 0; b < machine.node_count(); ++b) {
      if (a != b) machine.set_link_bandwidth(a, b, kAssumedLinkBandwidth);
    }
  }
  NS_LOG_INFO("topo", "discovered host: {} node(s), {} core(s)", machine.node_count(),
              machine.core_count());
  return machine;
}

Machine discover_host_or_flat(const DiscoveryOptions& options) {
  if (auto machine = discover_host(options)) return *machine;
  const auto cores = std::max(1u, std::thread::hardware_concurrency());
  NS_LOG_INFO("topo", "sysfs unavailable; assuming flat machine with {} core(s)", cores);
  return flat_machine(cores, kAssumedCorePeakGflops, kAssumedNodeBandwidth);
}

}  // namespace numashare::topo
