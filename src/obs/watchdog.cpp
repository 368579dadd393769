#include "obs/watchdog.hpp"

#include <chrono>

#include "trace/trace.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace numashare::obs {

namespace {

/// Background poll cadence of the real-time monitor thread (tests drive
/// poll() in virtual time instead).
constexpr std::int64_t kPollPeriodUs = 20'000;

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void lower_current_thread_priority() {
#if defined(__linux__)
  // Best-effort nice +19: the watchdog must never compete with the workers
  // it observes. Failure (e.g. already niced by a parent) is fine.
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 19);
#endif
}

}  // namespace

Watchdog::Watchdog(std::uint32_t worker_count, WatchdogOptions options, Source source)
    : options_(options),
      source_(std::move(source)),
      workers_(worker_count),
      scratch_(worker_count) {}

Watchdog::~Watchdog() { stop(); }

std::uint32_t Watchdog::poll(std::int64_t now_us) {
  scratch_.assign(scratch_.size(), WatchdogSample{});
  source_(scratch_);

  std::uint32_t stalled = 0;
  for (std::uint32_t i = 0; i < workers_.size() && i < scratch_.size(); ++i) {
    WorkerState& w = workers_[i];
    const WatchdogSample& s = scratch_[i];

    const bool moved = !w.seen || s.heartbeat != w.last_heartbeat;
    if (moved) {
      w.last_heartbeat = s.heartbeat;
      w.last_change_us = now_us;
      w.seen = true;
    }

    // A deliberately-parked worker (policy block) is supposed to be silent:
    // reset its clock so it cannot trip the deadline, and clear any stall
    // carried over from before the command landed.
    const bool now_stalled = s.commanded_online && !moved &&
                             (now_us - w.last_change_us) >= options_.deadline_us;
    if (!s.commanded_online) w.last_change_us = now_us;

    const bool was_stalled = w.stalled.load(std::memory_order_relaxed);
    if (now_stalled && !was_stalled) {
      w.stalled.store(true, std::memory_order_relaxed);
      stall_events_.fetch_add(1, std::memory_order_relaxed);
      if (options_.tracer != nullptr) {
        options_.tracer->instant("worker-stall", "watchdog", i);
      }
    } else if (!now_stalled && was_stalled) {
      w.stalled.store(false, std::memory_order_relaxed);
      if (options_.tracer != nullptr) {
        options_.tracer->instant("worker-recover", "watchdog", i);
      }
    }
    if (now_stalled) ++stalled;
  }

  stalled_count_.store(stalled, std::memory_order_relaxed);
  return stalled;
}

void Watchdog::start() {
  if (options_.deadline_us <= 0 || running_.exchange(true)) return;
  thread_ = std::thread([this] { monitor_main(); });
}

void Watchdog::stop() {
  if (!running_.exchange(false)) return;
  parker_.unpark();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::monitor_main() {
  set_current_thread_name("ns-watchdog");
  lower_current_thread_priority();
  while (running_.load(std::memory_order_acquire)) {
    poll(steady_now_us());
    parker_.park_for_us(kPollPeriodUs);
  }
}

}  // namespace numashare::obs
