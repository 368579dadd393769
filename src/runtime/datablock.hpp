// Runtime-managed data blocks — the OCR trait the paper leans on in §III:
// "the application should be able to move the data to a different NUMA node.
// This would easily be possible in OCR, where the runtime system is also in
// charge of managing the data."
//
// A Datablock owns a chunk carved from its node's slab arena
// (runtime/numa_arena.hpp): placement is physical where the host lets the
// SystemBackend mbind pages, and faithfully priced by the SimulatedBackend
// everywhere else. move_to() is reader-safe: the new buffer is filled, then
// *published* with a release store, and the old buffer is *retired* — kept
// alive until the owning runtime's next quiescent wait_idle() (see
// DatablockRegistry::reclaim_retired) — so a task that loaded data() mid-move
// keeps reading consistent (pre-move) bytes instead of racing a reallocation.
// Per-node byte accounting and per-block touch counts feed the agent's
// placement and migration decisions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "runtime/numa_arena.hpp"
#include "topology/machine.hpp"

namespace numashare::rt {

class DatablockRegistry;

class Datablock {
 public:
  Datablock(const Datablock&) = delete;
  Datablock& operator=(const Datablock&) = delete;
  ~Datablock();

  std::uint64_t id() const { return id_; }
  std::size_t size_bytes() const { return size_; }
  topo::NodeId node() const { return node_.load(std::memory_order_acquire); }

  /// Raw access. The runtime does not mediate per-task acquire/release (OCR
  /// does; our experiments don't need it) — callers synchronize via events.
  /// Safe against a concurrent move_to(): the load is acquire and observes
  /// either the old buffer (still retired-alive) or the fully-copied new one.
  /// A task may use the pointer until it returns. A thread outside the
  /// runtime must reload it after any wait_idle() that may follow a move:
  /// that call frees the buffers moved away from.
  std::byte* data() { return data_.load(std::memory_order_acquire); }
  const std::byte* data() const { return data_.load(std::memory_order_acquire); }

  template <typename T>
  std::span<T> as_span() {
    return {reinterpret_cast<T*>(data()), size_ / sizeof(T)};
  }

  /// Relocate to another NUMA node: allocate there, copy through the memory
  /// backend (which charges the migration cost), publish, retire the old
  /// buffer. Returns the bytes copied (0 when already resident). Safe
  /// against concurrent data() readers and concurrent movers; stale readers
  /// keep the retired buffer until the registry reclaims it or the block is
  /// destroyed.
  std::size_t move_to(topo::NodeId node);

  /// Access-frequency signal: spawn_with_data bumps this per declared
  /// access; the migrator moves the hottest blocks first.
  void record_touch(std::uint64_t n = 1) {
    touches_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t touches() const { return touches_.load(std::memory_order_relaxed); }

 private:
  friend class DatablockRegistry;
  Datablock(DatablockRegistry* registry, std::uint64_t id, std::size_t size,
            topo::NodeId node, std::byte* data);

  /// A buffer moved away from, and the registry retire sequence it got.
  struct Retired {
    std::byte* data;
    topo::NodeId node;
    std::uint64_t sequence;
  };
  /// Free the retired buffers whose sequence is at most `sequence`; returns
  /// the bytes freed.
  std::uint64_t reclaim_retired(std::uint64_t sequence);

  DatablockRegistry* registry_;
  std::uint64_t id_;
  std::size_t size_;
  std::atomic<topo::NodeId> node_;
  std::atomic<std::byte*> data_;
  std::atomic<std::uint64_t> touches_{0};
  /// Serializes movers; also guards retired_.
  std::mutex move_mutex_;
  std::vector<Retired> retired_;
};

using DatablockPtr = std::shared_ptr<Datablock>;

/// One reallocation tick's migration outcome.
struct MigrationReport {
  std::uint32_t blocks_moved = 0;
  std::uint64_t bytes_moved = 0;
  /// Blocks that wanted to move but did not fit the remaining byte budget.
  std::uint32_t deferred = 0;
};

/// Tracks every live datablock, the per-node resident byte totals, and owns
/// the node-affine arenas all block memory comes from.
class DatablockRegistry {
 public:
  /// `backend` is non-owning and optional: null means the process-wide
  /// SystemBackend. Pass a SimulatedBackend to price placement against the
  /// machine model instead.
  explicit DatablockRegistry(std::uint32_t nodes, MemoryBackend* backend = nullptr,
                             std::size_t slab_bytes = NumaArena::kDefaultSlabBytes);

  DatablockPtr create(std::size_t size_bytes, topo::NodeId node);

  std::uint64_t live_blocks() const { return live_.load(std::memory_order_relaxed); }
  std::uint64_t bytes_on_node(topo::NodeId node) const;
  std::uint64_t total_bytes() const;
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(bytes_per_node_.size());
  }

  MemoryBackend& backend() { return *backend_; }
  const NumaArenaSet& arenas() const { return arenas_; }

  /// Migrate the hottest blocks toward the byte distribution implied by
  /// `node_weights` (typically the policy's per-node thread targets),
  /// spending at most `byte_budget` bytes of copy traffic. Bounded churn: a
  /// block moves only when it strictly reduces the residency imbalance.
  /// Safe against concurrent create/destroy/reader traffic.
  MigrationReport migrate_toward(const std::vector<std::uint32_t>& node_weights,
                                 std::uint64_t byte_budget);

  /// Bytes currently held alive for stale readers across all live blocks.
  std::uint64_t retired_bytes() const {
    return retired_bytes_.load(std::memory_order_relaxed);
  }
  /// Every move_to() retires its old buffer under the next number of this
  /// sequence; returns the latest number handed out.
  std::uint64_t retire_sequence() const {
    return retire_sequence_.load(std::memory_order_acquire);
  }
  /// Free the retired buffers of every live block whose retire sequence is
  /// at most `sequence`; returns the bytes freed. Caller asserts that no
  /// thread still holds a data() pointer to one of them: Runtime::wait_idle()
  /// calls it with a sequence read before it saw no task outstanding.
  std::uint64_t reclaim_retired(std::uint64_t sequence);

 private:
  friend class Datablock;
  void on_destroy(Datablock& block);
  /// Books a move and returns the retire sequence of the buffer it left.
  std::uint64_t on_move(std::size_t size, topo::NodeId from, topo::NodeId to);
  std::byte* arena_allocate(std::size_t size, topo::NodeId node);
  void arena_deallocate(std::byte* p, std::size_t size, topo::NodeId node);

  MemoryBackend* backend_;
  NumaArenaSet arenas_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> live_{0};
  std::vector<std::atomic<std::uint64_t>> bytes_per_node_;
  std::atomic<std::uint64_t> retired_bytes_{0};
  std::atomic<std::uint64_t> retire_sequence_{0};
  /// Live-block index for the migrator; weak so destruction never blocks on
  /// a migration pass. Guarded create/destroy are off the task hot path.
  mutable std::mutex blocks_mutex_;
  std::unordered_map<std::uint64_t, std::weak_ptr<Datablock>> blocks_;
};

}  // namespace numashare::rt
