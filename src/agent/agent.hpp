// The arbitration agent (paper Figure 1).
//
// One Agent manages N applications through their channels. Each tick it
// drains telemetry into the per-app views (with an EWMA task rate), asks the
// policy for directives, and pushes the resulting commands. The AppView
// (policy.hpp) is the one record of an app's control state; the agent keeps
// beside it only the channel and the command sequence counter. It can be
// stepped manually (deterministic tests) or run on its own thread. The
// paper's OS CPU-load query is the daemon's foreign scanner
// (foreign/scanner.hpp), which prices non-participant load into the policy.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agent/channel.hpp"
#include "agent/policy.hpp"
#include "topology/machine.hpp"

namespace numashare::agent {

struct AgentOptions {
  /// Tick period for the background loop.
  std::int64_t period_us = 2000;
};

class Agent {
 public:
  using Options = AgentOptions;

  Agent(topo::Machine machine, PolicyPtr policy, AgentOptions options = {});
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Register an application; the agent keeps a non-owning channel ref.
  /// Returns the app's index (the order policies see). Safe to call while
  /// the background loop runs; the membership change lands between steps.
  std::size_t add_app(std::string name, ShmChannel& channel);

  /// Deregister the named application (join's inverse). Later apps shift
  /// down one index; the policy is notified so it re-partitions. Returns
  /// false when no app has that name. Safe while the loop runs.
  bool remove_app(const std::string& name);

  /// Index of the named app, or app_count() when absent.
  std::size_t find_app(const std::string& name) const;

  /// Administrative thread cap for one app (compliance quarantine/laggard
  /// reclamation). UINT32_MAX lifts the cap. Policies see it via
  /// AppView::thread_cap and must not grant above it; send() additionally
  /// clamps outgoing thread targets. Notifies the policy on change so cached
  /// partitions are recomputed, but does NOT bump the membership generation
  /// (the app set is unchanged). Returns false when no app has that name.
  bool set_app_thread_cap(const std::string& name, std::uint32_t cap);

  std::size_t app_count() const;

  /// Membership generation: bumps on every add_app/remove_app. Lets
  /// observers (and the daemon's registry) tell allocations apart across
  /// membership changes.
  std::uint64_t generation() const { return generation_.load(std::memory_order_relaxed); }

  /// Daemon incarnation stamped into every outgoing Command
  /// (Command::arbiter_generation). The daemon sets it once at init from the
  /// registry header; 0 (the default) marks an in-process agent whose
  /// commands are never generation-fenced.
  void set_arbiter_generation(std::uint64_t generation) {
    arbiter_generation_.store(generation, std::memory_order_relaxed);
  }
  std::uint64_t arbiter_generation() const {
    return arbiter_generation_.load(std::memory_order_relaxed);
  }

  /// One decision cycle at the given timestamp (monotonic seconds; the
  /// rates are keyed on the senders' own timestamps, so the agent does not
  /// read it). Returns the number of commands sent.
  std::uint32_t step(double now);

  /// Background loop control.
  void start();
  void stop();

  /// One view per app, in index order: telemetry, rates, compliance epochs
  /// and caps. Unlocked: read it from the thread that calls step() (the
  /// daemon's tick does), or while the background loop is stopped.
  const std::vector<AppView>& views() const { return views_; }
  const topo::Machine& machine() const { return machine_; }
  Policy& policy() { return *policy_; }
  std::uint64_t commands_sent() const { return commands_sent_; }
  std::uint64_t telemetry_received() const { return telemetry_received_; }

 private:
  /// What the agent needs beside views_[a] to talk to app `a`.
  struct ManagedApp {
    ShmChannel* channel = nullptr;
    std::uint64_t command_seq = 0;
  };

  /// Build + push the command(s) for app index `a`, bumping
  /// views_[a].commanded_epoch when a thread target reaches the ring.
  /// Caller holds membership_mutex_.
  void send(std::size_t a, const Directive& directive);
  /// Index of `name` in apps_, or apps_.size() when absent. Caller holds
  /// membership_mutex_.
  std::size_t index_of_locked(const std::string& name) const;

  topo::Machine machine_;
  PolicyPtr policy_;
  Options options_;
  /// Guards apps_/views_ against concurrent step vs add/remove when the
  /// background loop is running (dynamic membership, daemon mode).
  mutable std::mutex membership_mutex_;
  std::vector<ManagedApp> apps_;
  std::vector<AppView> views_;
  /// Name -> index into apps_/views_, so find_app() and the by-name calls
  /// stay O(1) at 1000+ clients. Rebuilt on remove (indices shift).
  std::unordered_map<std::string, std::size_t> index_by_name_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> arbiter_generation_{0};
  std::uint64_t commands_sent_ = 0;
  std::uint64_t telemetry_received_ = 0;

  std::atomic<bool> running_{false};
  std::thread loop_thread_;
};

}  // namespace numashare::agent
