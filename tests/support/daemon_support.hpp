// Helpers shared by the daemon-level tests (daemon, compliance, scale,
// foreign, fault-injection and failover suites), the agent tests and
// bench_daemon_scale: per-process shm and journal names, journal event
// counting, the connect-while-ticking handshake, two policies that never
// arbitrate, and a simulated client fleet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agent/policy.hpp"
#include "agent/shm_channel.hpp"
#include "daemon/daemon.hpp"
#include "daemon/failover.hpp"
#include "daemon/journal.hpp"
#include "daemon/registry.hpp"

namespace numashare::nsd {

/// A registry name unique to this process and call:
/// /numashare-test-<tag>-<pid>-<n>.
std::string unique_registry(const std::string& tag);

/// A journal path unique to this process and call:
/// /tmp/numashare-test-<tag>-<pid>-<n>.jsonl.
std::string unique_journal(const std::string& tag);

/// How many journal entries carry this event name.
std::size_t count_events(const std::vector<JournalEntry>& entries, const std::string& event);

/// Run `join` (a blocking connect(), or the poll() that rejoins) on a
/// thread while ticking the daemon by hand, 1 ms of virtual time per tick,
/// until the client is connected: activation needs a daemon tick, so one
/// thread would deadlock. Returns `join`'s result.
bool join_with_ticks(FailoverClient& client, Daemon& daemon, double& now,
                     const std::function<bool()>& join);

/// join_with_ticks with client.connect().
bool connect_with_ticks(FailoverClient& client, Daemon& daemon, double& now);

/// Answers every app with Directive::none(): keeps the partition solver out
/// of runs whose subject is membership, ingest and the tick path.
class NullPolicy final : public agent::Policy {
 public:
  const char* name() const override { return "null"; }
  std::vector<agent::Directive> decide(const topo::Machine&,
                                       const std::vector<agent::AppView>& views) override {
    return std::vector<agent::Directive>(views.size());
  }
};

/// Clears every app's thread controls on its first decision, then answers
/// Directive::none(): the agent sends one command per app and then only
/// listens, for tests whose subject is telemetry, compliance or the rings.
class ClearOncePolicy final : public agent::Policy {
 public:
  const char* name() const override { return "clear-once"; }
  std::vector<agent::Directive> decide(const topo::Machine&,
                                       const std::vector<agent::AppView>& views) override {
    std::vector<agent::Directive> out(views.size(), agent::Directive::none());
    if (!cleared_) {
      for (auto& d : out) d = agent::Directive::clear();
      cleared_ = true;
    }
    return out;
  }

 private:
  bool cleared_ = false;
};

/// Simulated clients driven from the caller's thread through a second
/// mapping of a daemon's registry. Each speaks the slot protocol as
/// FailoverClient does (claim, heartbeat, kLeaving CAS plus attention bit) but
/// never blocks on activation, so one thread ticks the daemon and the fleet.
class SimFleet {
 public:
  struct Client {
    std::uint32_t slot = 0;
    std::uint64_t active_word = 0;  ///< the exact word its activation produces
    std::unique_ptr<agent::ShmChannel> channel;  ///< null until attach_all()
    std::uint64_t seq = 0;                       ///< telemetry samples pushed
  };

  /// Map `registry_name` client-side; null (with `error`) when it cannot.
  static std::unique_ptr<SimFleet> open(const std::string& registry_name,
                                        std::string* error = nullptr);

  Registry& registry() { return *view_; }
  const std::vector<Client>& clients() const { return clients_; }

  /// Claim and publish a slot as `name`; false when no slot is free.
  bool claim(const std::string& name, double advertised_ai);
  /// Whether the daemon has activated this client's claim.
  bool active(const Client& client) const;
  /// Attach the runtime end of every client's channel not yet attached
  /// (every client must be active); false (with `error`) on failure.
  bool attach_all(std::string* error = nullptr);
  void heartbeat_all();
  /// One telemetry sample per client, stamped `now` (clients attached).
  void push_telemetry_all(double now);
  /// Publish kLeaving for client `index`, flag its slot and drop it from
  /// the fleet. False when the slot was no longer in its activated state.
  bool leave(std::size_t index);

 private:
  explicit SimFleet(std::unique_ptr<Registry> view) : view_(std::move(view)) {}

  std::unique_ptr<Registry> view_;
  std::vector<Client> clients_;
};

}  // namespace numashare::nsd
