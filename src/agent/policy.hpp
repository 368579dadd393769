// Policy interface: the decision brain the agent runs on each tick.
//
// A policy sees one AppView per managed application and answers with one
// Directive per application. The AppView is the agent's only record of an
// app's control state: the telemetry the runtime last sent, the smoothed
// task rate, the epochs commanded and acknowledged, and the administrative
// thread cap. The daemon's compliance watchdog reads the same views.
// Directives map onto the paper's thread-blocking options 1 and 3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/protocol.hpp"
#include "core/roofline.hpp"
#include "topology/machine.hpp"

namespace numashare::agent {

struct AppView {
  std::string name;
  bool has_telemetry = false;
  /// The newest telemetry sample (stalled_workers included: nonzero tells
  /// the compliance watchdog the app is starved, not defiant).
  Telemetry latest;
  /// EWMA of tasks executed per second of sender time; starts from 0 and
  /// moves once a second sample gives a delta.
  double task_rate = 0.0;
  /// Telemetry samples the app failed to push because the ring was full
  /// (cumulative, from the channel's drop counter).
  std::uint64_t telemetry_dropped = 0;
  /// Compliance bookkeeping: the newest thread-target epoch commanded to
  /// this app (the agent bumps it when a command reaches the ring), the
  /// newest epoch the app has reported enacted, and the target it enacted
  /// (kUnconstrained = no active ceiling). commanded_epoch > enacted_epoch
  /// means the app has not yet proven compliance with the latest command.
  std::uint64_t commanded_epoch = 0;
  std::uint64_t enacted_epoch = 0;
  std::uint32_t enacted_target = kUnconstrained;
  /// Administrative thread cap imposed by the compliance watchdog
  /// (UINT32_MAX = uncapped). Policies must not grant more total threads
  /// than this; the agent clamps outgoing directives as a safety net.
  std::uint32_t thread_cap = 0xffffffffu;
};

struct Directive {
  enum class Kind : std::uint8_t { kNone, kTotalThreads, kNodeThreads, kClear };
  Kind kind = Kind::kNone;
  std::uint32_t total_threads = 0;
  std::vector<std::uint32_t> node_threads;
  /// Optional data-placement suggestion riding along with (or without) a
  /// thread directive; kMaxNodes = none. Sent as a kSuggestDataHome command.
  std::uint32_t suggested_data_home = kMaxNodes;

  static Directive none() { return {}; }
  static Directive clear() {
    Directive d;
    d.kind = Kind::kClear;
    return d;
  }
  static Directive total(std::uint32_t threads) {
    Directive d;
    d.kind = Kind::kTotalThreads;
    d.total_threads = threads;
    return d;
  }
  static Directive per_node(std::vector<std::uint32_t> threads) {
    Directive d;
    d.kind = Kind::kNodeThreads;
    d.node_threads = std::move(threads);
    return d;
  }

  bool operator==(const Directive& other) const = default;
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual const char* name() const = 0;
  /// One directive per app (same order as `views`); kNone = leave alone.
  virtual std::vector<Directive> decide(const topo::Machine& machine,
                                        const std::vector<AppView>& views) = 0;
  /// The agent's app set changed (join or leave). Stateful policies drop
  /// their issued/drift caches here so the next decide() re-partitions the
  /// machine for the new membership.
  virtual void on_membership_change() {}
  /// Latest estimate of non-participant (foreign) load, from the daemon's
  /// ForeignMonitor. Default: ignore — only model-aware policies can price
  /// opaque consumers. An empty load (any() == false) means "machine clean".
  virtual void on_foreign_load(const model::ForeignLoad& load) { (void)load; }
};

using PolicyPtr = std::unique_ptr<Policy>;

}  // namespace numashare::agent
