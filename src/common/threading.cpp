#include "common/threading.hpp"

#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace numashare {

bool Parker::park_for_us(std::int64_t timeout_us) {
  std::unique_lock lock(mutex_);
  const bool woken =
      cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] { return permit_; });
  if (woken) permit_ = false;
  return woken;
}

void Parker::unpark() {
  {
    std::scoped_lock lock(mutex_);
    // A pending permit means an earlier unpark already woke (or will wake)
    // the sleeper; skip the redundant notify. This makes repeated unparks of
    // a not-yet-rescheduled thread cost a mutex round-trip, not a futex wake
    // — the submit path hits exactly that case under oversubscription.
    if (permit_) return;
    permit_ = true;
  }
  cv_.notify_one();
}

void set_current_thread_name(const std::string& name) {
#if defined(__linux__)
  // The kernel limit is 15 characters + NUL.
  std::string truncated = name.substr(0, 15);
  pthread_setname_np(pthread_self(), truncated.c_str());
#else
  (void)name;
#endif
}

}  // namespace numashare
