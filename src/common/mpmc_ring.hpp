// Bounded lock-free multi-producer multi-consumer ring (Vyukov's bounded
// MPMC queue: per-cell sequence numbers instead of a shared lock).
//
// The runtime's injection queues need many producers and consumers: any
// thread may submit a task to a node (producers = every worker + external
// threads), and any worker of — or poaching from — that node may consume.
// Each cell carries a sequence counter that encodes whether it is empty,
// full, or in transit for the current lap; producers and consumers claim
// cells with one CAS on their respective position counters and then operate
// on disjoint cells without further coordination.
//
// It is shared-memory-compatible in spirit (fixed slab, per-cell state), but
// it is used in-process only.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace numashare {

template <typename T>
class MpmcRing {
 public:
  /// Capacity must be a power of two (index masking).
  explicit MpmcRing(std::size_t capacity)
      : mask_(capacity - 1), cells_(std::make_unique<Cell[]>(capacity)) {
    NS_REQUIRE(capacity >= 2 && (capacity & (capacity - 1)) == 0,
               "MpmcRing capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Any thread. Returns false when full (caller handles overflow).
  bool try_push(T value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // cell still holds last lap's value: ring is full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Any thread.
  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // cell not yet published: ring is empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    T value = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return value;
  }

  /// Approximate (racy) size; telemetry only.
  std::size_t size_approx() const {
    const std::size_t head = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t tail = dequeue_pos_.load(std::memory_order_acquire);
    return head > tail ? head - tail : 0;
  }

  bool empty_approx() const { return size_approx() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace numashare
