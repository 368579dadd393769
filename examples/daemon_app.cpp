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
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "agent/channel.hpp"
#include "daemon/client.hpp"
#include "runtime/runtime.hpp"

using namespace numashare;
using namespace std::chrono_literals;

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

  nsd::DaemonClient client(name, options);
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr,
                 "%s: could not join a daemon: %s\n"
                 "start one first, e.g.  ./src/daemon/numashared --machine=probe\n",
                 name.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: joined as slot %u (generation %llu), advertised AI %.2f\n", name.c_str(),
              client.slot_index(), static_cast<unsigned long long>(client.generation()), ai);

  // The runtime must mirror the daemon's node layout (published in the
  // registry) so per-node thread targets land on matching pools.
  rt::Runtime runtime(client.arbitration_machine(), {.name = name});
  // The adapter reads the client's channel, which a reconnect replaces: it
  // is rebuilt on the new channel after every reconnect.
  std::optional<agent::RuntimeAdapter> adapter(std::in_place, runtime, *client.channel(), ai);
  client.start_heartbeat();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  auto next_print = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    // Simulated work so progress/task rates flow through telemetry.
    runtime.report_progress();
    adapter->pump();
    if (!client.check_connection()) {
      std::printf("%s: evicted (or the daemon restarted) — reconnecting\n", name.c_str());
      adapter.reset();
      // The heartbeat thread reads the connection that reconnect() replaces.
      client.stop_heartbeat();
      if (!client.reconnect(&error)) {
        std::fprintf(stderr, "%s: reconnect failed: %s\n", name.c_str(), error.c_str());
        return 1;
      }
      const std::uint32_t nodes = client.arbitration_machine().node_count();
      if (nodes != runtime.machine().node_count()) {
        // Per-node targets for another layout can never be enacted here.
        std::fprintf(stderr, "%s: the new daemon arbitrates %u nodes, this runtime has %u\n",
                     name.c_str(), nodes, runtime.machine().node_count());
        client.disconnect();
        return 1;
      }
      adapter.emplace(runtime, *client.channel(), ai);
      client.start_heartbeat();
      std::printf("%s: rejoined as slot %u\n", name.c_str(), client.slot_index());
    }
    if (std::chrono::steady_clock::now() >= next_print) {
      const auto per_node = runtime.running_per_node();
      std::string split;
      for (std::size_t n = 0; n < per_node.size(); ++n) {
        split += (n ? "+" : "") + std::to_string(per_node[n]);
      }
      std::printf("%s: running %u threads (%s per node)\n", name.c_str(),
                  runtime.running_threads(), split.c_str());
      next_print += 1s;
    }
    std::this_thread::sleep_for(10ms);
  }

  client.stop_heartbeat();
  client.disconnect();  // graceful goodbye: the daemon logs "leave"
  std::printf("%s: left the daemon\n", name.c_str());
  return 0;
}
