// Scripted fake procfs trees for the foreign tests and bench_foreign.
//
// The ForeignScanner is pure parsing over a directory tree; this writer
// produces that tree in a temp directory so a test can stage an entire fleet
// of fake processes — names, affinity masks, CPU-time trajectories — and
// step them tick by tick. The files it writes use the exact /proc layouts
// the scanner parses (per-cpu stat lines, <pid>/stat field 14/15,
// <pid>/status Name:/Cpus_allowed:), so the parsing code has no test-only
// branches.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace numashare::foreign {

class ProcfsWriter {
 public:
  /// Creates a fresh temp directory; removed (recursively) on destruction.
  ProcfsWriter();
  ~ProcfsWriter();

  ProcfsWriter(const ProcfsWriter&) = delete;
  ProcfsWriter& operator=(const ProcfsWriter&) = delete;

  std::string root() const { return root_.string(); }

  /// Write <root>/stat with one aggregate line plus one line per cpu.
  /// busy/idle are cumulative clock ticks per cpu.
  void set_cpu_times(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                         busy_idle_per_cpu);

  /// Create or update a fake process: <root>/<pid>/stat and /status.
  /// `cpu_ticks` is cumulative utime+stime (split evenly between the two
  /// fields); `allowed_mask` is the Cpus_allowed bitmask (0 = all ff).
  void set_process(std::int32_t pid, const std::string& name, std::uint64_t cpu_ticks,
                   std::uint64_t allowed_mask = 0);

  /// Remove a fake process's directory, as if it exited.
  void remove_process(std::int32_t pid);

 private:
  std::filesystem::path root_;
};

}  // namespace numashare::foreign
