// Foreign-workload detection: find the processes that consume CPU but do
// not link this runtime, and estimate where (which NUMA nodes) they run.
//
// The paper's arbiter only commands cooperating applications; everything
// else on the machine is invisible to it and silently distorts the model's
// predictions. The scanner closes that gap: it is the daemon's query of the
// OS CPU load (the paper's agent "periodically queries the operating system
// to check the actual CPU load"), at per-CPU and per-process granularity:
//
//   <root>/stat            per-cpu "cpuN ..." lines -> busy cores per node
//   <root>/<pid>/stat      utime/stime deltas       -> cores consumed by pid
//   <root>/<pid>/status    Name: / Cpus_allowed:    -> identity + placement
//
// The procfs root is a constructor parameter so tests and benches can
// script whole fleets of fake processes through a temp directory
// (tests/support/procfs_writer) — the parsing and attribution logic is
// identical against the real /proc.
//
// Node attribution: a pid's measured CPU share is split across NUMA nodes
// proportionally to how many of each node's cores its Cpus_allowed mask
// admits. A process affined to one node is charged entirely there; an
// unrestricted process is spread by node size. This is an estimate (the
// kernel does not export per-node runtime cheaply), but it is exactly the
// quantity the fence (foreign/fence) later makes true by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/machine.hpp"

namespace numashare::foreign {

/// One non-participant process as the scanner sees it after a scan.
struct ForeignProcess {
  std::int32_t pid = 0;
  std::string name;                 // /proc/<pid>/status Name: (comm)
  double cpu_cores = 0.0;           // EWMA-smoothed cores consumed
  std::vector<double> node_cores;   // cpu_cores split per NUMA node
  std::uint64_t allowed_mask = 0;   // low 64 bits of Cpus_allowed (0 = unknown)
};

struct ScannerOptions {
  /// Procfs root. Tests point this at a scripted temp tree.
  std::string proc_root = "/proc";
  /// Clock ticks per second for utime/stime (0 = sysconf(_SC_CLK_TCK)).
  std::uint64_t ticks_per_second = 0;
};

/// Result of one scan pass.
struct ScanResult {
  /// Foreign processes above the kMinCores floor (scanner.cpp), largest
  /// first, at most kMaxProcesses of them.
  std::vector<ForeignProcess> processes;
  /// Measured busy cores per NUMA node from the per-cpu stat lines. This
  /// includes participants and is the scanner's ground truth for "how hot is
  /// this node" independent of per-process attribution.
  std::vector<double> node_busy_cores;
};

class ForeignScanner {
 public:
  ForeignScanner(const topo::Machine& machine, ScannerOptions options = {});

  /// Mark pids whose CPU time must not be classified as foreign: the daemon
  /// itself plus every registered client. Replaces the previous set.
  void set_participants(const std::unordered_set<std::int32_t>& pids);

  /// Take one sample at `now_seconds` (monotonic, caller-supplied so tests
  /// and the simulator control time). The first call only primes counters
  /// and returns nullopt; later calls return deltas over the elapsed time.
  std::optional<ScanResult> scan(double now_seconds);

  const ScannerOptions& options() const { return options_; }

 private:
  struct CpuCounters {
    std::uint64_t busy = 0;
    std::uint64_t total = 0;
  };
  struct PidCounters {
    std::uint64_t cpu_ticks = 0;   // utime + stime at last scan
    double ewma_cores = 0.0;
    bool seen_this_scan = false;
  };

  std::vector<CpuCounters> read_per_cpu() const;
  /// Parse <root>/<pid>/stat; returns utime+stime, or nullopt when the
  /// process vanished mid-scan (always possible, never an error).
  std::optional<std::uint64_t> read_pid_ticks(std::int32_t pid) const;
  bool read_pid_status(std::int32_t pid, std::string* name,
                       std::uint64_t* allowed_mask) const;
  std::vector<double> attribute_nodes(double cores, std::uint64_t allowed_mask) const;

  const topo::Machine& machine_;
  ScannerOptions options_;
  std::uint64_t tps_ = 100;
  std::unordered_set<std::int32_t> participants_;
  bool primed_ = false;
  double last_scan_seconds_ = 0.0;
  std::vector<CpuCounters> prev_cpu_;
  std::unordered_map<std::int32_t, PidCounters> prev_pids_;
};

}  // namespace numashare::foreign
