#include "runtime/datablock.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "inject/fault.hpp"

namespace numashare::rt {

Datablock::Datablock(DatablockRegistry* registry, std::uint64_t id, std::size_t size,
                     topo::NodeId node, std::byte* data)
    : registry_(registry), id_(id), size_(size), node_(node), data_(data) {}

Datablock::~Datablock() { registry_->on_destroy(*this); }

std::size_t Datablock::move_to(topo::NodeId target) {
  // Movers serialize here; readers never take the lock.
  std::scoped_lock lock(move_mutex_);
  const topo::NodeId from = node_.load(std::memory_order_acquire);
  if (from == target) return 0;
  std::byte* fresh = registry_->arena_allocate(size_, target);
  std::byte* old = data_.load(std::memory_order_relaxed);
  // The backend performs (and prices) the copy: memcpy on the system
  // backend, memcpy + modelled link time on the simulated one.
  registry_->backend().migrate(fresh, old, size_, from, target);
  // Publish-then-retire: readers racing this store see either buffer, both
  // fully valid. The old buffer stays alive for stale readers until a
  // quiescent reclaim; its sequence is taken after the publication.
  data_.store(fresh, std::memory_order_release);
  node_.store(target, std::memory_order_release);
  retired_.push_back({old, from, registry_->on_move(size_, from, target)});
  return size_;
}

std::uint64_t Datablock::reclaim_retired(std::uint64_t sequence) {
  std::scoped_lock lock(move_mutex_);
  std::uint64_t freed = 0;
  std::erase_if(retired_, [&](const Retired& r) {
    if (r.sequence > sequence) return false;
    registry_->arena_deallocate(r.data, size_, r.node);
    freed += size_;
    return true;
  });
  return freed;
}

DatablockRegistry::DatablockRegistry(std::uint32_t nodes, MemoryBackend* backend,
                                     std::size_t slab_bytes)
    : backend_(backend != nullptr ? backend : &SystemBackend::process_default()),
      arenas_(nodes, *backend_, slab_bytes),
      bytes_per_node_(nodes) {
  NS_REQUIRE(nodes > 0, "registry needs at least one node");
  for (auto& b : bytes_per_node_) b.store(0, std::memory_order_relaxed);
}

DatablockPtr DatablockRegistry::create(std::size_t size_bytes, topo::NodeId node) {
  NS_REQUIRE(node < bytes_per_node_.size(), "placement node out of range");
  NS_REQUIRE(size_bytes > 0, "empty datablocks are not allowed");
  const auto id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::byte* data = arena_allocate(size_bytes, node);
  live_.fetch_add(1, std::memory_order_relaxed);
  bytes_per_node_[node].fetch_add(size_bytes, std::memory_order_relaxed);
  DatablockPtr block(new Datablock(this, id, size_bytes, node, data));
  {
    std::scoped_lock lock(blocks_mutex_);
    blocks_.emplace(id, block);
  }
  return block;
}

std::uint64_t DatablockRegistry::bytes_on_node(topo::NodeId node) const {
  NS_REQUIRE(node < bytes_per_node_.size(), "node out of range");
  return bytes_per_node_[node].load(std::memory_order_relaxed);
}

std::uint64_t DatablockRegistry::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& b : bytes_per_node_) total += b.load(std::memory_order_relaxed);
  return total;
}

void DatablockRegistry::on_destroy(Datablock& block) {
  {
    std::scoped_lock lock(blocks_mutex_);
    blocks_.erase(block.id_);
  }
  // No movers can exist (last reference is being dropped); free the live
  // buffer and anything still retired.
  for (const auto& r : block.retired_) arena_deallocate(r.data, block.size_, r.node);
  retired_bytes_.fetch_sub(block.retired_.size() * block.size_, std::memory_order_relaxed);
  arena_deallocate(block.data_.load(std::memory_order_relaxed), block.size_,
                   block.node_.load(std::memory_order_relaxed));
  live_.fetch_sub(1, std::memory_order_relaxed);
  bytes_per_node_[block.node_.load(std::memory_order_relaxed)].fetch_sub(
      block.size_, std::memory_order_relaxed);
}

std::uint64_t DatablockRegistry::on_move(std::size_t size, topo::NodeId from,
                                         topo::NodeId to) {
  bytes_per_node_[from].fetch_sub(size, std::memory_order_relaxed);
  bytes_per_node_[to].fetch_add(size, std::memory_order_relaxed);
  retired_bytes_.fetch_add(size, std::memory_order_relaxed);
  // Release: a reader of this number also sees the publication before it.
  return retire_sequence_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::byte* DatablockRegistry::arena_allocate(std::size_t size, topo::NodeId node) {
  return static_cast<std::byte*>(arenas_.allocate(size, node));
}

void DatablockRegistry::arena_deallocate(std::byte* p, std::size_t size,
                                         topo::NodeId node) {
  arenas_.deallocate(p, size, node);
}

std::uint64_t DatablockRegistry::reclaim_retired(std::uint64_t sequence) {
  std::vector<DatablockPtr> live;
  {
    std::scoped_lock lock(blocks_mutex_);
    live.reserve(blocks_.size());
    for (auto& [id, weak] : blocks_) {
      if (auto p = weak.lock()) live.push_back(std::move(p));
    }
  }
  std::uint64_t freed = 0;
  for (auto& b : live) freed += b->reclaim_retired(sequence);
  retired_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

MigrationReport DatablockRegistry::migrate_toward(
    const std::vector<std::uint32_t>& node_weights, std::uint64_t byte_budget) {
  MigrationReport report;
  const std::uint32_t nodes = node_count();
  NS_REQUIRE(node_weights.size() == nodes, "one weight per NUMA node");
  if (byte_budget == 0) return report;
  std::uint64_t weight_sum = 0;
  for (auto w : node_weights) weight_sum += w;
  const std::uint64_t total = total_bytes();
  if (weight_sum == 0 || total == 0) return report;

  // Residency surplus per node against the weight-proportional target. A
  // positive surplus donates, a negative one receives.
  std::vector<std::int64_t> surplus(nodes);
  for (topo::NodeId n = 0; n < nodes; ++n) {
    const auto desired = static_cast<std::int64_t>(
        static_cast<double>(total) * node_weights[n] / static_cast<double>(weight_sum));
    surplus[n] = static_cast<std::int64_t>(bytes_on_node(n)) - desired;
  }

  // Snapshot the live set (shared_ptrs pin candidates; the lock is not held
  // across the copies), hottest blocks first — migrated bytes should be the
  // bytes the tasks actually stream.
  std::vector<DatablockPtr> candidates;
  {
    std::scoped_lock lock(blocks_mutex_);
    candidates.reserve(blocks_.size());
    for (auto& [id, weak] : blocks_) {
      if (auto p = weak.lock()) candidates.push_back(std::move(p));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const DatablockPtr& a, const DatablockPtr& b) {
              return a->touches() > b->touches();
            });

  std::uint64_t budget = byte_budget;
  for (auto& block : candidates) {
    if (budget == 0) break;
    // A fault rule can abort the pass between blocks — the "migrator was
    // preempted" case; accounting must already be consistent here.
    if (inject::fire("datablock.migrate.abort")) break;
    const topo::NodeId from = block->node();
    if (surplus[from] <= 0) continue;
    const auto to = static_cast<topo::NodeId>(
        std::min_element(surplus.begin(), surplus.end()) - surplus.begin());
    if (surplus[to] >= 0 || to == from) break;  // balanced enough
    const auto size = static_cast<std::int64_t>(block->size_bytes());
    // Strict-improvement guard (bounded churn): moving this block must
    // shrink the donor's surplus by more than it overshoots the receiver.
    if (size >= surplus[from] - surplus[to]) continue;
    if (static_cast<std::uint64_t>(size) > budget) {
      ++report.deferred;
      continue;
    }
    block->move_to(to);
    // Crash point for the fault sweep: a death here — after one block's
    // move+accounting completed atomically, before the next — must leave
    // per-node byte accounting consistent and the daemon un-wedged.
    inject::fire_die("datablock.migrate.die", nullptr, 49);
    budget -= static_cast<std::uint64_t>(size);
    surplus[from] -= size;
    surplus[to] += size;
    ++report.blocks_moved;
    report.bytes_moved += static_cast<std::uint64_t>(size);
  }
  return report;
}

}  // namespace numashare::rt
