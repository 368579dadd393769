// Host topology discovery from /sys — the hwloc-lite piece.
//
// The paper's runtime binds threads to real NUMA nodes; on the machines we
// can actually run on, this reads /sys/devices/system/node to build a
// Machine. Bandwidth and peak-GFLOPS cannot be read from sysfs, so they are
// either supplied by the caller or measured by synth::calibrate.
#pragma once

#include <optional>
#include <string>

#include "topology/machine.hpp"

namespace numashare::topo {

struct DiscoveryOptions {
  /// Root to read from; overridable so tests can point at a fake sysfs tree.
  std::string sysfs_root = "/sys/devices/system/node";
};

/// Returns the discovered machine, or std::nullopt when the sysfs tree is
/// absent/unreadable (non-Linux, sandboxes). Callers are expected to fall
/// back to a preset or flat machine.
std::optional<Machine> discover_host(const DiscoveryOptions& options = {});

/// discover_host() with a fallback: one flat node holding
/// hardware_concurrency cores.
Machine discover_host_or_flat(const DiscoveryOptions& options = {});

}  // namespace numashare::topo
