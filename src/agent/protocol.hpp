// The agent <-> runtime wire protocol (paper Figure 1).
//
// The agent "receives information about the execution from the runtimes
// (number of tasks executed, number of running threads, etc.) and it issues
// commands instructing the runtimes to use a specified number of threads."
//
// Commands carry the paper's options 1 (a total thread count) and 3 (thread
// counts per NUMA node); option 2, blocking named cores, stays a local
// runtime control (rt::Runtime::set_blocked_cores) that no policy sends.
//
// Both message types are trivially copyable PODs with fixed-size payloads, so
// they live in the lock-free SPSC rings of an agent::ShmChannel, whether its
// segment is shared between processes or privately mapped in one.
#pragma once

#include <cstdint>
#include <type_traits>

namespace numashare::agent {

inline constexpr std::uint32_t kMaxNodes = 16;

enum class CommandType : std::uint32_t {
  kSetTotalThreads = 1,  // option 1
  kSetNodeThreads = 3,   // option 3
  kClearControls = 4,
  /// §III.A: "there should be a way to ... influence where the application
  /// stores its data". The agent *suggests*; the application decides whether
  /// and when to migrate (it alone knows its phase boundaries).
  kSuggestDataHome = 5,
};

struct Command {
  CommandType type = CommandType::kClearControls;
  std::uint32_t total_threads = 0;
  std::uint32_t node_count = 0;
  std::uint32_t node_threads[kMaxNodes] = {};
  /// kSuggestDataHome payload (kMaxNodes = no suggestion).
  std::uint32_t suggested_home = kMaxNodes;
  /// Monotonic per-channel sequence; lets the runtime detect gaps.
  std::uint64_t seq = 0;
  /// Compliance epoch: monotonically increasing per app, stamped on every
  /// thread-target command (kSetTotalThreads / kSetNodeThreads /
  /// kClearControls). The runtime echoes the newest epoch it
  /// has *fully enacted* (all surplus threads actually blocked) back in
  /// Telemetry::enacted_epoch, which is what lets the arbiter distinguish a
  /// slow-but-cooperating client from one that ignores commands. 0 on
  /// non-thread-target commands (kSuggestDataHome is advisory).
  std::uint64_t epoch = 0;
  /// Issue timestamp: obs::now_ns() (CLOCK_MONOTONIC ns — comparable across
  /// processes on one machine) at the moment the sender stamped the epoch.
  /// The runtime adapter measures issue -> enactment-ack against it, the
  /// command-enactment-lag histogram. 0 = sender did not stamp (the adapter
  /// then falls back to its own receipt time).
  std::uint64_t issued_ns = 0;
  /// Daemon incarnation that issued this command (registry header's
  /// arbiter_generation). A client that has observed a newer incarnation
  /// discards commands stamped with an older one — the fence that keeps a
  /// pre-crash grant from ever being enacted after failback. 0 = sender is
  /// not generation-aware (in-process agent); always accepted.
  std::uint64_t arbiter_generation = 0;
};
static_assert(std::is_trivially_copyable_v<Command>);

/// The fence RuntimeAdapter::pump() applies: `command` was issued by an
/// older daemon incarnation than the newest the receiver has seen.
inline bool command_is_stale(const Command& command, std::uint64_t known_generation) {
  return command.arbiter_generation != 0 && command.arbiter_generation < known_generation;
}

/// Telemetry::enacted_target when no thread-target command has constrained
/// the runtime (or the newest one lifted all controls): "uncontrolled".
inline constexpr std::uint32_t kUnconstrained = 0xffffffffu;

struct Telemetry {
  std::uint64_t seq = 0;
  double timestamp = 0.0;  // sender's monotonic seconds
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_spawned = 0;
  /// Application-defined progress units (e.g. iterations).
  std::uint64_t progress = 0;
  std::uint32_t total_workers = 0;
  std::uint32_t running_threads = 0;
  std::uint32_t blocked_threads = 0;
  std::uint32_t node_count = 0;
  std::uint32_t running_per_node[kMaxNodes] = {};
  std::uint64_t ready_queue_depth = 0;
  std::uint64_t outstanding_tasks = 0;
  /// Cumulative application-accounted work and traffic (report_work).
  double gflop_done = 0.0;
  double gbytes_moved = 0.0;
  /// Arithmetic intensity estimate (FLOPs/byte): either app-declared or
  /// derived by the adapter from the work/traffic counters; 0 = unknown.
  /// Feeds the model-guided policy.
  double ai_estimate = 0.0;
  /// Optional NUMA-bad home node (kMaxNodes = "NUMA-perfect / unknown").
  std::uint32_t data_home_node = kMaxNodes;
  /// Command-compliance ack: the newest Command::epoch whose thread target
  /// the runtime has fully enacted (running threads at or under the target),
  /// and that target itself (kUnconstrained = no active constraint). 0 =
  /// nothing enacted yet. The daemon compares this against the epoch it
  /// last commanded and quarantines clients that stay behind past the
  /// enactment deadline.
  std::uint64_t enacted_epoch = 0;
  std::uint32_t enacted_target = kUnconstrained;
  /// Scheduler-latency watchdog report: commanded-online workers whose
  /// heartbeat is silent past the deadline — the OS is not scheduling them.
  /// Nonzero tells the daemon "this app is behind because it is *starved*,
  /// not because it ignores commands", and compliance escalation holds off.
  /// 0 when the watchdog is disabled or all workers are being scheduled.
  std::uint32_t stalled_workers = 0;
  /// Cumulative datablock migration traffic (reallocation-tick moves plus
  /// explicit move_to calls): how much the runtime has actually shifted data
  /// chasing the allocation. Lets the daemon weigh placement churn against
  /// the throughput it buys.
  std::uint64_t blocks_migrated = 0;
  std::uint64_t bytes_migrated = 0;
};
static_assert(std::is_trivially_copyable_v<Telemetry>);

}  // namespace numashare::agent
