// A daemon-managed application: connect to a running `numashared`, register
// with a name and an advertised arithmetic intensity, and let the daemon's
// policy decide how many threads this process runs on each NUMA node.
//
// Usage: ./examples/daemon_app [name] [ai] [seconds] [--registry=/name]
//
// Run several copies with different AIs and watch the daemon partition the
// machine between them (and re-partition when one exits or is killed):
//
//   ./src/daemon/numashared --machine=2x4:10:32 --journal=/tmp/ns.jsonl &
//   ./examples/daemon_app stencil 0.5 10 &
//   ./examples/daemon_app matmul  10  10 &
//   ./tools/numashare_cli daemon-status
//
// The app joins through nsd::FailoverClient and does everything from one
// loop: poll the failover state machine, heartbeat, pump the runtime
// adapter. Kill the daemon and the app keeps running in degraded mode on
// the allocation the survivors agree on (printed as "degraded"); start a
// new daemon on the same registry and the app rejoins it ("rejoined").
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agent/channel.hpp"
#include "common/logging.hpp"
#include "daemon/failover.hpp"
#include "obs/watchdog.hpp"
#include "runtime/runtime.hpp"

using namespace numashare;
using namespace std::chrono_literals;

namespace {

std::string per_node_text(const std::vector<std::uint32_t>& per_node) {
  std::string text;
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    if (n) text += '+';
    text += std::to_string(per_node[n]);
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "daemon_app";
  const double ai = argc > 2 ? std::atof(argv[2]) : 1.0;
  const double seconds = argc > 3 ? std::atof(argv[3]) : 10.0;
  nsd::ClientConnectOptions options;
  options.advertised_ai = ai;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--registry=", 0) == 0) options.registry_name = arg.substr(11);
  }

  // Line-buffered, so a supervisor reading a pipe sees each event as it
  // happens and a killed app loses no finished line.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  nsd::FailoverClient failover(name, options);
  std::string error;
  if (!failover.connect(&error)) {
    std::fprintf(stderr,
                 "%s: could not join a daemon: %s\n"
                 "start one first, e.g.  ./src/daemon/numashared --machine=probe\n",
                 name.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: joined as slot %u (generation %llu), advertised AI %.2f\n", name.c_str(),
              failover.slot_index(),
              static_cast<unsigned long long>(failover.known_generation()), ai);

  // The runtime must mirror the daemon's node layout (published in the
  // registry) so per-node thread targets land on matching pools. Its
  // scheduler-latency watchdog reports workers the OS is not running, so
  // the daemon holds compliance escalation for a starved app.
  rt::Runtime runtime(failover.arbitration_machine(),
                      {.name = name, .watchdog_deadline_us = obs::WatchdogOptions{}.deadline_us});
  // The adapter reads the client's channel, which a failback replaces: it
  // is dropped when the connection goes and rebuilt on the new channel.
  std::optional<agent::RuntimeAdapter> adapter(std::in_place, runtime, *failover.channel(), ai);
  std::uint64_t rejoins = 0;
  std::vector<std::uint32_t> enacted_degraded;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  auto next_print = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    const auto state = failover.poll(monotonic_seconds(), adapter ? adapter->last_grant()
                                                                  : std::vector<std::uint32_t>{});
    if (failover.stats().rejoins != rejoins || !failover.connected()) adapter.reset();
    if (!adapter && failover.connected()) {
      rejoins = failover.stats().rejoins;
      const std::uint32_t nodes = failover.arbitration_machine().node_count();
      if (nodes != runtime.machine().node_count()) {
        // Per-node targets for another layout can never be enacted here.
        std::fprintf(stderr, "%s: the new daemon arbitrates %u nodes, this runtime has %u\n",
                     name.c_str(), nodes, runtime.machine().node_count());
        failover.disconnect();
        return 1;
      }
      adapter.emplace(runtime, *failover.channel(), ai);
      std::printf("%s: rejoined as slot %u (generation %llu)\n", name.c_str(),
                  failover.slot_index(),
                  static_cast<unsigned long long>(failover.known_generation()));
    }
    if (state != nsd::FailoverState::kDegraded) {
      enacted_degraded.clear();
    } else {
      // No arbiter: enact the survivors' consensus share (Option 3).
      auto share = failover.degraded_threads();
      if (share.size() == runtime.machine().node_count() && share != enacted_degraded) {
        runtime.set_node_thread_targets(share);
        std::printf("%s: daemon lost; degraded, enacting %s per node\n", name.c_str(),
                    per_node_text(share).c_str());
        enacted_degraded = std::move(share);
      }
    }
    failover.heartbeat();
    // Simulated work so progress/task rates flow through telemetry.
    runtime.report_progress();
    if (adapter) adapter->pump();
    if (std::chrono::steady_clock::now() >= next_print) {
      std::printf("%s: running %u threads (%s per node)\n", name.c_str(),
                  runtime.running_threads(), per_node_text(runtime.running_per_node()).c_str());
      next_print += 1s;
    }
    std::this_thread::sleep_for(10ms);
  }

  failover.disconnect();  // graceful goodbye: the daemon logs "leave"
  std::printf("%s: left the daemon\n", name.c_str());
  return 0;
}
