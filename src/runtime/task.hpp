// Task node: one unit of work plus its dependency bookkeeping.
//
// Ownership protocol: the Runtime's TaskPool (task_pool.hpp) owns every live
// TaskNode — each node lives in a pool slot carved from a per-worker slab;
// queues and events hold raw pointers. A node becomes ready when its pending
// count hits zero, is executed by exactly one worker, and is released back
// to its owning shard after its completion event fires. The pool's shutdown
// sweep reclaims tasks whose dependencies never fired.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "runtime/event.hpp"
#include "topology/machine.hpp"

namespace numashare::rt {

class Runtime;

inline constexpr topo::NodeId kAnyNode = topo::kInvalidNode;
inline constexpr std::uint32_t kExternalWorker = ~0u;

/// Passed to every task body; identifies where it runs and gives access to
/// the runtime for nested spawns.
struct TaskContext {
  Runtime& runtime;
  std::uint32_t worker_id;  // the executing worker
  topo::NodeId node;        // node of the executing worker
};

using TaskFn = std::function<void(TaskContext&)>;

struct TaskSlot;

struct TaskNode {
  TaskNode(TaskFn f, std::uint32_t deps, topo::NodeId affinity_hint, TaskSlot* s,
           topo::NodeId footprint_home = kAnyNode, std::uint64_t footprint = 0)
      : fn(std::move(f)), pending(deps), affinity(affinity_hint),
        footprint_node(footprint_home), footprint_bytes(footprint),
        done(std::make_shared<Event>()), slot(s) {}

  TaskFn fn;
  std::atomic<std::uint32_t> pending;
  /// Preferred execution node (data locality); kAnyNode = no preference.
  topo::NodeId affinity;
  /// Resident-data footprint, derived by spawn_with_data from the declared
  /// accesses: the node holding most of this task's datablock bytes and how
  /// many bytes live there. A thief on another node would pull that much
  /// across a link — the steal-penalty and poach-threshold input.
  /// kAnyNode/0 for tasks spawned without data.
  topo::NodeId footprint_node;
  std::uint64_t footprint_bytes;
  /// One-shot poach veto: set when a cross-node thief bounced this task back
  /// to its footprint node, so the second acquisition always proceeds
  /// (liveness: a task is never re-homed twice).
  bool poach_skipped = false;
  /// Satisfied after fn returns — the task's output event in OCR terms.
  /// The one remaining per-task heap allocation: callers hold the EventPtr
  /// beyond the task's life, so it cannot live in the recycled slot.
  EventPtr done;
  /// Back-pointer to the pool slot this node lives in (see task_pool.hpp).
  TaskSlot* slot;
  /// Ready-queue entry timestamp for sampled handoff-latency measurement
  /// (obs::now_ns at enqueue_ready). 0 = this task was not sampled.
  std::uint64_t submit_ns = 0;
};

}  // namespace numashare::rt
