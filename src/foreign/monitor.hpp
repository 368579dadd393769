// ForeignMonitor: the daemon-facing stateful loop over the scanner.
//
// Raw scans flap — EWMA tails, pid churn, processes that burn CPU for one
// tick. The monitor adds quarantine-style hysteresis (a process must be
// seen two consecutive scans before it is admitted into the model, and
// missed two scans before it is dropped), decides and tracks fences for the
// big consumers (half a core or more), maintains the aggregated
// model::ForeignLoad the policy prices, and reports every state change as a
// ForeignEvent the daemon turns into journal records
// (foreign-seen / foreign-gone / foreign-fence).
//
// Fault sites (docs/INJECT.md), hooked here so the 120-seed sweep can script
// foreign churn without real processes:
//   foreign.appear        a synthetic hog materializes on node 0
//   foreign.balloon@pct=N every synthetic hog's load inflates by N percent
//   foreign.die           every synthetic hog exits (hysteresis then ages it out)
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/roofline.hpp"
#include "foreign/fence.hpp"
#include "foreign/scanner.hpp"
#include "topology/machine.hpp"

namespace numashare::foreign {

struct MonitorOptions {
  ScannerOptions scanner;
  /// Attempt sched_setaffinity on fenced pids. Off by default: the arbiter
  /// stays advisory unless the operator opts in (--foreign-enforce).
  bool enforce_fences = false;
};

struct ForeignEvent {
  enum class Kind : std::uint8_t { kSeen, kGone, kFence, kRelease };
  Kind kind = Kind::kSeen;
  std::int32_t pid = 0;
  std::string name;
  double cpu_cores = 0.0;
  topo::NodeId node = topo::kInvalidNode;  // fence node (kFence only)
  FenceState fence = FenceState::kNone;
};

const char* to_string(ForeignEvent::Kind kind);

/// Snapshot row for the registry shard and daemon-status.
struct TrackedForeign {
  std::int32_t pid = 0;
  std::string name;
  double cpu_cores = 0.0;
  std::vector<double> node_cores;
  FenceState fence = FenceState::kNone;
  topo::NodeId fence_node = topo::kInvalidNode;
  bool admitted = false;
  bool synthetic = false;
};

class ForeignMonitor {
 public:
  ForeignMonitor(const topo::Machine& machine, MonitorOptions options = {});

  /// Forward to the scanner: pids that are ours, never foreign.
  void set_participants(const std::unordered_set<std::int32_t>& pids);

  /// One monitoring step at `now_seconds`. Scans, applies fault-site
  /// injections, advances hysteresis, (re)decides fences, rebuilds load().
  /// Returns the state changes, in a deterministic (pid-sorted) order.
  std::vector<ForeignEvent> tick(double now_seconds);

  /// Release every applied fence (daemon shutdown). Returns the release
  /// events so the caller can journal them.
  std::vector<ForeignEvent> release_all();

  /// The aggregated opaque-consumer load for the solver. Empty-vector (no
  /// foreign) until something is admitted.
  const model::ForeignLoad& load() const { return load_; }

  /// Admitted + pending processes, pid-sorted, for status surfaces.
  std::vector<TrackedForeign> tracked() const;

  const MonitorOptions& options() const { return options_; }

 private:
  struct Tracked {
    TrackedForeign info;
    std::uint32_t seen_streak = 0;
    std::uint32_t miss_streak = 0;
  };
  struct SyntheticHog {
    std::string name;
    topo::NodeId node = 0;
    double cores = 0.0;
  };

  void admit(Tracked& entry, std::vector<ForeignEvent>& events);
  void rebuild_load();

  const topo::Machine& machine_;
  MonitorOptions options_;
  ForeignScanner scanner_;
  std::unordered_map<std::int32_t, Tracked> tracked_;
  std::unordered_map<std::int32_t, SyntheticHog> synthetic_;
  std::int32_t next_synthetic_pid_ = 990000;
  model::ForeignLoad load_;
};

}  // namespace numashare::foreign
