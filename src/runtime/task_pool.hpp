// Slab-recycling allocator for TaskNodes — the lifecycle hot path's memory
// half.
//
// One shard per worker plus one shared shard for threads the runtime does
// not own. A shard owns slabs of task slots; slots it has handed out come
// back either to its owner-only free list (task executed by the owning
// worker) or to its lock-free MPSC return stack (executed elsewhere). The
// common case — a worker spawning and retiring its own tasks — therefore
// touches no lock and no global allocator; the cross-worker case costs one
// CAS on the owner's return stack.
//
// Ownership protocol (replaces the old global registry set):
//   * allocate() constructs a TaskNode in a slot and marks the slot live;
//   * exactly one release() destroys the node and marks the slot free,
//     routing the slot back to its owning shard;
//   * ~TaskPool() sweeps every slab and destroys still-live nodes — the
//     "undrained tasks are reclaimed at shutdown" guarantee, now O(slabs)
//     instead of a mutex-guarded unordered_set.
//
// NUMA locality falls out of first-touch: a shard's slabs are only ever
// carved by its owning thread, so a bound worker's task nodes land on its
// own node's memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "runtime/task.hpp"

namespace numashare::rt {

struct TaskSlot {
  /// Free-list / return-stack link; dead storage while the slot is live.
  TaskSlot* next = nullptr;
  /// Owning shard, fixed when the slot is first carved from a slab.
  std::uint32_t owner = 0;
  /// True while `storage` holds a constructed TaskNode. Only read
  /// single-threaded (shutdown sweep); writes are ordered by the handoff
  /// that moves the slot between threads.
  bool live = false;
  alignas(alignof(TaskNode)) unsigned char storage[sizeof(TaskNode)];

  TaskNode* node() { return std::launder(reinterpret_cast<TaskNode*>(storage)); }
};

class TaskPool {
 public:
  static constexpr std::size_t kSlabSlots = 256;

  /// Shards 0..worker_count-1 are owner-only (that worker's thread);
  /// shard `worker_count` is shared by external threads and mutex-guarded.
  explicit TaskPool(std::uint32_t worker_count)
      : shards_(worker_count + 1), external_(worker_count) {}

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Shutdown sweep: destroy every task that was never drained. Must run
  /// single-threaded (workers joined, no concurrent spawns).
  ~TaskPool() {
    for (auto& shard : shards_) {
      for (auto& slab : shard.slabs) {
        for (std::size_t i = 0; i < kSlabSlots; ++i) {
          if (slab[i].live) slab[i].node()->~TaskNode();
        }
      }
    }
  }

  std::uint32_t external_shard() const { return external_; }

  /// Construct a TaskNode out of `shard`'s slabs. Callers pass their own
  /// shard index (their worker id, or external_shard()).
  TaskNode* allocate(std::uint32_t shard_index, TaskFn fn, std::uint32_t deps,
                     topo::NodeId affinity, topo::NodeId footprint_node = kAnyNode,
                     std::uint64_t footprint_bytes = 0) {
    Shard& shard = shards_[shard_index];
    TaskSlot* slot;
    if (shard_index == external_) {
      std::scoped_lock lock(shard.mutex);
      slot = acquire_slot(shard, shard_index);
    } else {
      slot = acquire_slot(shard, shard_index);
    }
    slot->live = true;
    return new (slot->storage)
        TaskNode(std::move(fn), deps, affinity, slot, footprint_node, footprint_bytes);
  }

  /// Destroy `node` and recycle its slot. Any thread; `releasing_shard` is
  /// the caller's own shard index.
  void release(std::uint32_t releasing_shard, TaskNode* node) {
    TaskSlot* slot = node->slot;
    node->~TaskNode();
    slot->live = false;
    if (slot->owner == releasing_shard && releasing_shard != external_) {
      // Owner worker retiring its own task: plain free-list push.
      Shard& shard = shards_[releasing_shard];
      slot->next = shard.free;
      shard.free = slot;
      return;
    }
    // Cross-worker (or external-shard) retirement: push onto the owner's
    // return stack. Take-all draining on the owner side makes the plain
    // Treiber push ABA-safe.
    std::atomic<TaskSlot*>& stack = shards_[slot->owner].returns;
    TaskSlot* head = stack.load(std::memory_order_relaxed);
    do {
      slot->next = head;
    } while (!stack.compare_exchange_weak(head, slot, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

 private:
  struct alignas(64) Shard {
    // Owner-only state (the external shard serializes on `mutex`).
    TaskSlot* free = nullptr;
    TaskSlot* bump = nullptr;
    std::size_t bump_left = 0;
    std::vector<std::unique_ptr<TaskSlot[]>> slabs;
    std::mutex mutex;  // external shard only
    // Cross-thread side: slots coming home from other shards.
    alignas(64) std::atomic<TaskSlot*> returns{nullptr};
  };

  TaskSlot* acquire_slot(Shard& shard, std::uint32_t shard_index) {
    if (TaskSlot* slot = shard.free) {
      shard.free = slot->next;
      return slot;
    }
    // Local list dry: reclaim everything other shards sent home.
    if (TaskSlot* head = shard.returns.exchange(nullptr, std::memory_order_acquire)) {
      shard.free = head->next;
      return head;
    }
    if (shard.bump_left == 0) {
      shard.slabs.push_back(std::make_unique<TaskSlot[]>(kSlabSlots));
      shard.bump = shard.slabs.back().get();
      shard.bump_left = kSlabSlots;
    }
    TaskSlot* slot = shard.bump++;
    --shard.bump_left;
    slot->owner = shard_index;
    return slot;
  }

  std::vector<Shard> shards_;
  const std::uint32_t external_;
};

}  // namespace numashare::rt
