#include "foreign/monitor.hpp"

#include <algorithm>

#include "foreign/bridge.hpp"
#include "inject/fault.hpp"

namespace numashare::foreign {

namespace {

/// Consecutive scans a process must appear in before admission.
constexpr std::uint32_t kAppearTicks = 2;
/// Consecutive scans a process must be missing from before removal.
constexpr std::uint32_t kGoneTicks = 2;
/// Processes consuming at least this many cores get fenced to their
/// dominant node; smaller ones are only priced where observed.
constexpr double kFenceMinCores = 0.5;

topo::NodeId dominant_node(const std::vector<double>& node_cores) {
  topo::NodeId best = 0;
  for (topo::NodeId n = 1; n < node_cores.size(); ++n) {
    if (node_cores[n] > node_cores[best]) best = n;
  }
  return best;
}

}  // namespace

const char* to_string(ForeignEvent::Kind kind) {
  switch (kind) {
    case ForeignEvent::Kind::kSeen: return "seen";
    case ForeignEvent::Kind::kGone: return "gone";
    case ForeignEvent::Kind::kFence: return "fence";
    case ForeignEvent::Kind::kRelease: return "release";
  }
  return "?";
}

ForeignMonitor::ForeignMonitor(const topo::Machine& machine, MonitorOptions options)
    : machine_(machine), options_(std::move(options)),
      scanner_(machine, options_.scanner) {}

void ForeignMonitor::set_participants(const std::unordered_set<std::int32_t>& pids) {
  scanner_.set_participants(pids);
}

void ForeignMonitor::admit(Tracked& entry, std::vector<ForeignEvent>& events) {
  entry.info.admitted = true;
  events.push_back({ForeignEvent::Kind::kSeen, entry.info.pid, entry.info.name,
                    entry.info.cpu_cores, topo::kInvalidNode, FenceState::kNone});
  if (entry.info.cpu_cores >= kFenceMinCores) {
    const auto node = dominant_node(entry.info.node_cores);
    entry.info.fence =
        apply_fence(machine_, entry.info.pid, node, options_.enforce_fences &&
                                                        !entry.info.synthetic);
    entry.info.fence_node = node;
    events.push_back({ForeignEvent::Kind::kFence, entry.info.pid, entry.info.name,
                      entry.info.cpu_cores, node, entry.info.fence});
  }
}

std::vector<ForeignEvent> ForeignMonitor::tick(double now_seconds) {
  auto scan = scanner_.scan(now_seconds);

  if (inject::fire("foreign.appear")) {
    // A synthetic hog materializes on node 0, eating half its cores. It
    // persists (and keeps consuming) until foreign.die removes it.
    SyntheticHog hog;
    hog.name = "synthetic-hog";
    hog.node = 0;
    hog.cores = static_cast<double>(machine_.cores_in_node(0)) / 2.0;
    synthetic_.emplace(next_synthetic_pid_++, std::move(hog));
  }
  std::uint64_t pct = 0;
  if (inject::fire_value("foreign.balloon", &pct)) {
    for (auto& [pid, hog] : synthetic_) {
      hog.cores *= 1.0 + static_cast<double>(pct) / 100.0;
      hog.cores = std::min(hog.cores,
                           static_cast<double>(machine_.cores_in_node(hog.node)));
    }
  }
  if (inject::fire("foreign.die")) synthetic_.clear();

  std::vector<ForeignEvent> events;
  if (!scan && synthetic_.empty() && tracked_.empty()) return events;

  // Assemble this tick's observation set: scanned + synthetic.
  std::vector<ForeignProcess> observed;
  if (scan) observed = std::move(scan->processes);
  for (const auto& [pid, hog] : synthetic_) {
    ForeignProcess process;
    process.pid = pid;
    process.name = hog.name;
    process.cpu_cores = hog.cores;
    process.node_cores.assign(machine_.node_count(), 0.0);
    process.node_cores[hog.node] = hog.cores;
    observed.push_back(std::move(process));
  }
  // Deterministic processing order regardless of scan/hash ordering.
  std::sort(observed.begin(), observed.end(),
            [](const ForeignProcess& a, const ForeignProcess& b) { return a.pid < b.pid; });

  for (auto& process : observed) {
    auto [it, inserted] = tracked_.try_emplace(process.pid);
    auto& entry = it->second;
    entry.info.pid = process.pid;
    entry.info.name = std::move(process.name);
    entry.info.cpu_cores = process.cpu_cores;
    entry.info.node_cores = std::move(process.node_cores);
    entry.info.synthetic = synthetic_.find(process.pid) != synthetic_.end();
    entry.miss_streak = 0;
    ++entry.seen_streak;
    if (entry.info.fence == FenceState::kApplied) {
      // The fence made the placement true: charge the whole share there.
      std::fill(entry.info.node_cores.begin(), entry.info.node_cores.end(), 0.0);
      entry.info.node_cores[entry.info.fence_node] = entry.info.cpu_cores;
    }
    if (!entry.info.admitted && entry.seen_streak >= kAppearTicks) {
      admit(entry, events);
    }
  }

  // Age out processes missing from this tick's observation set.
  std::vector<std::int32_t> drop;
  for (auto& [pid, entry] : tracked_) {
    const bool seen = std::any_of(
        observed.begin(), observed.end(),
        [pid = pid](const ForeignProcess& p) { return p.pid == pid; });
    if (seen) continue;
    if (!scan && synthetic_.find(pid) == synthetic_.end() && !entry.info.synthetic) {
      continue;  // priming scan: no verdict on real processes this tick
    }
    ++entry.miss_streak;
    entry.seen_streak = 0;
    if (entry.miss_streak < kGoneTicks) continue;
    if (entry.info.fence == FenceState::kApplied) {
      release_fence(machine_, pid, entry.info.fence);
      events.push_back({ForeignEvent::Kind::kRelease, pid, entry.info.name,
                        entry.info.cpu_cores, entry.info.fence_node, FenceState::kNone});
    }
    if (entry.info.admitted) {
      events.push_back({ForeignEvent::Kind::kGone, pid, entry.info.name,
                        entry.info.cpu_cores, topo::kInvalidNode, FenceState::kNone});
    }
    drop.push_back(pid);
  }
  for (const auto pid : drop) tracked_.erase(pid);

  std::sort(events.begin(), events.end(), [](const ForeignEvent& a, const ForeignEvent& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  rebuild_load();
  return events;
}

std::vector<ForeignEvent> ForeignMonitor::release_all() {
  std::vector<ForeignEvent> events;
  for (auto& [pid, entry] : tracked_) {
    if (entry.info.fence != FenceState::kApplied &&
        entry.info.fence != FenceState::kAdvisory &&
        entry.info.fence != FenceState::kFailed) {
      continue;
    }
    release_fence(machine_, pid, entry.info.fence);
    events.push_back({ForeignEvent::Kind::kRelease, pid, entry.info.name,
                      entry.info.cpu_cores, entry.info.fence_node, FenceState::kNone});
    entry.info.fence = FenceState::kNone;
    entry.info.fence_node = topo::kInvalidNode;
  }
  std::sort(events.begin(), events.end(),
            [](const ForeignEvent& a, const ForeignEvent& b) { return a.pid < b.pid; });
  return events;
}

void ForeignMonitor::rebuild_load() {
  std::vector<ForeignProcess> admitted;
  for (const auto& [pid, entry] : tracked_) {
    if (!entry.info.admitted) continue;
    ForeignProcess process;
    process.pid = pid;
    process.name = entry.info.name;
    process.cpu_cores = entry.info.cpu_cores;
    process.node_cores = entry.info.node_cores;
    admitted.push_back(std::move(process));
  }
  if (admitted.empty()) {
    load_.clear();  // empty vectors: the solver's "no foreign at all" shape
    return;
  }
  load_ = to_foreign_load(machine_, admitted);
}

std::vector<TrackedForeign> ForeignMonitor::tracked() const {
  std::vector<TrackedForeign> out;
  out.reserve(tracked_.size());
  for (const auto& [pid, entry] : tracked_) out.push_back(entry.info);
  std::sort(out.begin(), out.end(), [](const TrackedForeign& a, const TrackedForeign& b) {
    return a.pid < b.pid;
  });
  return out;
}

}  // namespace numashare::foreign
