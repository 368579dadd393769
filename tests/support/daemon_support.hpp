// Helpers shared by the daemon-level tests (daemon, compliance, scale,
// foreign, fault-injection and failover suites) and bench_daemon_scale:
// per-process shm and journal names, journal event counting, the
// connect-while-ticking handshake, and a policy that never arbitrates.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "agent/policy.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/journal.hpp"

namespace numashare::nsd {

/// A registry name unique to this process and call:
/// /numashare-test-<tag>-<pid>-<n>.
std::string unique_registry(const std::string& tag);

/// A journal path unique to this process and call:
/// /tmp/numashare-test-<tag>-<pid>-<n>.jsonl.
std::string unique_journal(const std::string& tag);

/// How many journal entries carry this event name.
std::size_t count_events(const std::vector<JournalEntry>& entries, const std::string& event);

/// Run client.connect() on a thread while ticking the daemon by hand, 1 ms
/// of virtual time per tick: activation needs a daemon tick, so one thread
/// would deadlock. Returns connect()'s result.
bool connect_with_ticks(DaemonClient& client, Daemon& daemon, double& now);

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

}  // namespace numashare::nsd
