// Thread parking and naming primitives shared by the runtime's worker pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace numashare {

/// One-slot timed park/unpark, with the "permit" semantics of LockSupport:
/// an unpark delivered before the park makes the next park return at once,
/// so the waker/sleeper race is benign. This is what makes the paper's
/// "unblocking ... is also nearly immediate" property hold in our runtime.
class Parker {
 public:
  /// Blocks at most `timeout_us` microseconds, or returns at once if a
  /// permit is pending. Returns true if unparked (consuming the permit),
  /// false on timeout. Every sleeper (runtime workers, the obs watchdog)
  /// has a deadline, so there is no untimed park.
  bool park_for_us(std::int64_t timeout_us);

  /// Wake the parked thread (or store a permit).
  void unpark();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool permit_ = false;
};

/// Set the calling thread's name (visible in /proc and debuggers).
void set_current_thread_name(const std::string& name);

}  // namespace numashare
