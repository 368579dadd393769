// Scheduler-latency watchdog: is the OS actually running the workers we
// commanded online?
//
// The daemon's compliance ladder (healthy -> laggard -> quarantined ->
// evicted, PR 4/5) punishes apps whose enacted_epoch trails their commanded
// epoch. But "not enacting" has two very different causes: the app is
// ignoring commands (a protocol bug, punish it), or the OS simply is not
// scheduling the app's threads (a co-tenancy problem the daemon itself may
// have caused — punishing it makes things worse). The watchdog separates the
// two from inside the app: each worker bumps a heartbeat every scheduling
// loop iteration (including idle park timeouts), and a low-priority monitor
// thread checks that every commanded-online worker's heartbeat moved within
// a deadline. A worker that is commanded online but silent past the deadline
// is *stalled* — the OS isn't running it, because the loop bumps the beat on
// every pass regardless of whether there is work. Stall entry/exit emit
// trace::Instant events on the worker's lane and an aggregate stalled count
// is exported for the telemetry path, so the daemon can see "this app is
// behind because it is starved, not defiant" and hold escalation.
//
// The monitor runs at low priority (nice +19 on Linux) deliberately: if the
// machine is so oversubscribed that even the watchdog cannot run, nothing is
// reported — which is the correct degraded behaviour, since a stall report
// that only fires when the system has spare cycles never lies about the
// workers it accuses.
//
// poll() is separated from the thread loop and takes explicit virtual time,
// so tests step it deterministically without real sleeps (the same
// virtual-time discipline as the daemon's compliance tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/threading.hpp"

namespace numashare::trace {
class Tracer;
}

namespace numashare::obs {

struct WatchdogOptions {
  /// A commanded-online worker whose heartbeat hasn't moved for this long is
  /// declared stalled. 0 disables the watchdog entirely.
  std::int64_t deadline_us = 100'000;
  /// Optional: stall/recover instants are emitted here on the worker's own
  /// lane (its index, the runtime's worker id).
  trace::Tracer* tracer = nullptr;
};

/// One monitored worker's state, as sampled by the owner runtime.
struct WatchdogSample {
  /// Monotone per-worker counter; any change means the OS ran the worker.
  std::uint64_t heartbeat = 0;
  /// False for workers the policy has deliberately parked (kCoreSet /
  /// kTotalCount blocks): a blocked worker is *supposed* to be silent, so it
  /// can never be stalled. This is exactly the ignoring-vs-starved split.
  bool commanded_online = true;
};

class Watchdog {
 public:
  /// `source` fills one WatchdogSample per worker; it is called from the
  /// monitor thread (or from poll() in tests) and must be thread-safe.
  using Source = std::function<void(std::vector<WatchdogSample>&)>;

  Watchdog(std::uint32_t worker_count, WatchdogOptions options, Source source);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Evaluate one deadline check at virtual time `now_us`. Deterministic:
  /// no clock reads, no sleeps. Returns the number of currently stalled
  /// workers. Not re-entrant (the monitor thread is the only caller in
  /// production; tests call it single-threaded).
  std::uint32_t poll(std::int64_t now_us);

  /// Start/stop the real-time monitor thread. start() is a no-op when the
  /// deadline is 0.
  void start();
  void stop();

  /// Currently stalled workers (atomic; readable from any thread — this is
  /// what the telemetry adapter exports).
  std::uint32_t stalled_count() const {
    return stalled_count_.load(std::memory_order_relaxed);
  }
  /// Total stall episodes detected since construction.
  std::uint64_t stall_events() const {
    return stall_events_.load(std::memory_order_relaxed);
  }
  bool is_stalled(std::uint32_t worker) const {
    return workers_[worker].stalled.load(std::memory_order_relaxed);
  }
  std::uint32_t worker_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  struct WorkerState {
    std::uint64_t last_heartbeat = 0;
    std::int64_t last_change_us = 0;
    bool seen = false;  // first poll initializes, never accuses
    std::atomic<bool> stalled{false};
  };

  void monitor_main();

  WatchdogOptions options_;
  Source source_;
  std::vector<WorkerState> workers_;
  std::vector<WatchdogSample> scratch_;  // sized once; poll never allocates
  std::atomic<std::uint32_t> stalled_count_{0};
  std::atomic<std::uint64_t> stall_events_{0};
  std::atomic<bool> running_{false};
  Parker parker_;
  std::thread thread_;
};

}  // namespace numashare::obs
