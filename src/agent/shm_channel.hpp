// The agent<->runtime transport (paper Figure 1): one command ring in, one
// telemetry ring out, plus drop counters, in a single shared-memory Layout.
//
// The rings hold only address-free atomics and trivially copyable slots, so
// the Layout is legal wherever it is mapped. ShmChannel is the only channel
// type, with three ways to get one:
//   * create(name): the agent (the daemon) makes a POSIX shm segment and
//     unlinks it on destruction;
//   * attach(name): an application in another process maps that segment,
//     after checking its magic and protocol version;
//   * the default constructor: a private anonymous mapping, for an agent
//     and runtimes that share one process (examples, benches, tests).
// All three run the same push/pop/drain code, fault sites (docs/INJECT.md)
// and drop accounting. One channel per (agent, app) pair keeps each ring
// single-producer single-consumer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "agent/protocol.hpp"

namespace numashare::agent {

/// Fixed-capacity POD SPSC ring suitable for shared memory: no pointers, no
/// heap, only address-free atomics and trivially-copyable slots.
template <typename T, std::size_t N>
class ShmRing {
  static_assert((N & (N - 1)) == 0 && N >= 2, "capacity must be a power of two");
  static_assert(std::is_trivially_copyable_v<T>, "slots must be trivially copyable");

 public:
  void init() {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  bool try_push(const T& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= N) return false;
    slots_[head & (N - 1)] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    T value = slots_[tail & (N - 1)];
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  std::uint64_t size() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }

  /// Consumer-side batch drain in O(1): copy the NEWEST committed slot into
  /// `out` and advance the cursor past everything queued, returning how many
  /// entries were consumed (0 = empty, `out` untouched). Safe against a
  /// concurrent producer: slot head-1 is committed (its release store of
  /// head happens-before our acquire load), and the producer cannot reuse
  /// that cell until position head-1+N becomes writable, which needs the
  /// tail — which only we advance — to move past head-1 first.
  std::uint64_t drain_to_newest(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return 0;
    out = slots_[(head - 1) & (N - 1)];
    tail_.store(head, std::memory_order_release);
    return head - tail;
  }

 private:
  alignas(64) std::atomic<std::uint64_t> head_;
  alignas(64) std::atomic<std::uint64_t> tail_;
  T slots_[N];
};

class ShmChannel {
 public:
  static constexpr std::size_t kCommandSlots = 64;
  static constexpr std::size_t kTelemetrySlots = 256;

  /// A private channel: the Layout in an anonymous shared mapping that no
  /// other process can attach to by name.
  ShmChannel();
  /// Agent side: create (exclusively) and initialize the segment. The
  /// creating ShmChannel unlinks the name on destruction.
  static std::unique_ptr<ShmChannel> create(const std::string& name, std::string* error = nullptr);
  /// Application side: attach to an existing segment. Validates the magic
  /// and protocol version before use.
  static std::unique_ptr<ShmChannel> attach(const std::string& name, std::string* error = nullptr);

  ~ShmChannel();

  ShmChannel(const ShmChannel&) = delete;
  ShmChannel& operator=(const ShmChannel&) = delete;

  /// The segment name; empty for a private channel.
  const std::string& name() const { return name_; }
  bool is_creator() const { return creator_; }

  // Agent side.
  bool push_command(const Command& command);
  std::optional<Telemetry> pop_telemetry();
  /// Batched ingest: consume every queued telemetry sample, leaving the
  /// newest in `out` and returning how many were consumed (0 = nothing
  /// queued, `out` untouched). The agent only needs the newest sample per
  /// tick (rates come from deltas against its own previous newest), so one
  /// cursor store (ShmRing::drain_to_newest) replaces 256 serial pops.
  std::uint64_t drain_newest(Telemetry& out);

  // Runtime side.
  std::optional<Command> pop_command();
  bool push_telemetry(const Telemetry& telemetry);

  /// Cumulative try_push failures on full rings. They live in the Layout,
  /// so either end sees losses regardless of which one suffered the full
  /// ring, and the agent can tell "quiet app" from "losing samples".
  std::uint64_t commands_dropped() const;
  std::uint64_t telemetry_dropped() const;

  std::uint64_t commands_queued() const;
  std::uint64_t telemetry_queued() const;

 private:
  struct Layout;

  ShmChannel(std::string name, Layout* layout, bool creator);
  /// Construct and initialize a Layout in freshly mapped memory.
  static Layout* init_layout(void* mapped);

  std::string name_;
  Layout* layout_ = nullptr;
  bool creator_ = false;
};

/// Unlink the POSIX shm segments a daemon on `registry_name` owns: the
/// registry itself (exactly that name, leading '/' optional as in shm_open)
/// and its channels (`<registry_name>-chan-*`). Returns the number removed.
/// A daemon on another registry whose name merely starts with this one
/// keeps its segments.
///
/// A crashed agent or application leaves its segments behind: only the
/// creator's destructor unlinks, and a SIGKILL never runs it. The daemon
/// calls this on startup to reclaim /dev/shm litter from a previous
/// incarnation before creating fresh segments.
std::size_t cleanup_stale_segments(const std::string& registry_name,
                                   std::string* error = nullptr);

}  // namespace numashare::agent
