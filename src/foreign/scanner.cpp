#include "foreign/scanner.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace numashare::foreign {

namespace fs = std::filesystem;

namespace {

/// Processes consuming fewer cores than this are dropped from results —
/// shells, monitors and the daemon itself should not perturb the model.
constexpr double kMinCores = 0.05;
/// EWMA smoothing factor for per-process CPU shares: a new process reads
/// half its first measured share, and a spike decays by half per scan.
constexpr double kEwmaAlpha = 0.5;
/// Hard cap on tracked foreign processes, largest consumers kept first.
constexpr std::size_t kMaxProcesses = 32;

bool all_digits(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Parse the trailing hex word of a "Cpus_allowed: ff,ffffffff" line into the
/// low 64 bits. Comma-grouped words are concatenated most-significant first.
std::uint64_t parse_allowed_mask(const std::string& text) {
  std::uint64_t mask = 0;
  for (const char c : text) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else if (c == ',') continue;
    else return 0;  // malformed: treat as unknown, fall back to node-size split
    mask = (mask << 4) | static_cast<std::uint64_t>(digit);
  }
  return mask;
}

}  // namespace

ForeignScanner::ForeignScanner(const topo::Machine& machine, ScannerOptions options)
    : machine_(machine), options_(std::move(options)) {
  if (options_.ticks_per_second != 0) {
    tps_ = options_.ticks_per_second;
  } else {
#if defined(__linux__)
    const long tick = ::sysconf(_SC_CLK_TCK);
    tps_ = tick > 0 ? static_cast<std::uint64_t>(tick) : 100;
#else
    tps_ = 100;
#endif
  }
}

void ForeignScanner::set_participants(const std::unordered_set<std::int32_t>& pids) {
  participants_ = pids;
}

std::vector<ForeignScanner::CpuCounters> ForeignScanner::read_per_cpu() const {
  std::vector<CpuCounters> out;
  std::ifstream in(options_.proc_root + "/stat");
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    // Per-cpu lines are "cpuN ..."; the aggregate line is "cpu  ..." (no N).
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    const std::string index_text = label.substr(3);
    if (!all_digits(index_text)) continue;
    const auto cpu = static_cast<std::size_t>(std::stoul(index_text));
    if (out.size() <= cpu) out.resize(cpu + 1);
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t value = 0;
    int index = 0;
    CpuCounters counters;
    while (fields >> value && index < 8) {
      counters.total += value;
      if (index != 3 && index != 4) counters.busy += value;  // not idle/iowait
      ++index;
    }
    if (index >= 4) out[cpu] = counters;
  }
  return out;
}

std::optional<std::uint64_t> ForeignScanner::read_pid_ticks(std::int32_t pid) const {
  std::ifstream in(options_.proc_root + "/" + std::to_string(pid) + "/stat");
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  // comm may contain spaces and parens; fields resume after the LAST ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(line.substr(close + 1));
  // state ppid pgrp session tty tpgid flags minflt cminflt majflt cmajflt
  // utime stime ... -> utime is token 12, stime token 13 after the paren.
  std::string token;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int i = 1; i <= 13 && (fields >> token); ++i) {
    if (i == 12) {
      if (!all_digits(token)) return std::nullopt;
      utime = std::stoull(token);
    } else if (i == 13) {
      if (!all_digits(token)) return std::nullopt;
      stime = std::stoull(token);
      return utime + stime;
    }
  }
  return std::nullopt;
}

bool ForeignScanner::read_pid_status(std::int32_t pid, std::string* name,
                                     std::uint64_t* allowed_mask) const {
  std::ifstream in(options_.proc_root + "/" + std::to_string(pid) + "/status");
  if (!in) return false;
  std::string line;
  bool have_name = false;
  while (std::getline(in, line)) {
    if (line.rfind("Name:", 0) == 0) {
      auto start = line.find_first_not_of(" \t", 5);
      *name = start == std::string::npos ? "" : line.substr(start);
      have_name = true;
    } else if (line.rfind("Cpus_allowed:", 0) == 0) {
      auto start = line.find_first_not_of(" \t", 13);
      if (start != std::string::npos) *allowed_mask = parse_allowed_mask(line.substr(start));
    }
  }
  return have_name;
}

std::vector<double> ForeignScanner::attribute_nodes(double cores,
                                                    std::uint64_t allowed_mask) const {
  std::vector<double> out(machine_.node_count(), 0.0);
  std::vector<double> weight(machine_.node_count(), 0.0);
  double total = 0.0;
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    double w = 0.0;
    for (const auto core : machine_.node(n).cores) {
      if (allowed_mask == 0 || core >= 64 || ((allowed_mask >> core) & 1u)) w += 1.0;
    }
    weight[n] = w;
    total += w;
  }
  if (total <= 0.0) {
    // Mask admits none of our cores (or the machine is empty): spread by
    // node size so the load is at least priced somewhere.
    for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
      weight[n] = static_cast<double>(machine_.cores_in_node(n));
      total += weight[n];
    }
  }
  if (total <= 0.0) return out;
  for (topo::NodeId n = 0; n < machine_.node_count(); ++n) {
    out[n] = cores * weight[n] / total;
  }
  return out;
}

std::optional<ScanResult> ForeignScanner::scan(double now_seconds) {
  const auto cpu_now = read_per_cpu();

  // Enumerate candidate pids: numeric directories under the root.
  std::vector<std::int32_t> pids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.proc_root, ec)) {
    if (ec) break;
    if (!entry.is_directory(ec)) continue;
    const std::string stem = entry.path().filename().string();
    if (!all_digits(stem)) continue;
    const auto pid = static_cast<std::int32_t>(std::stoul(stem));
    if (pid > 0 && participants_.find(pid) == participants_.end()) pids.push_back(pid);
  }

  for (auto& [pid, counters] : prev_pids_) counters.seen_this_scan = false;

  const bool primed = primed_;
  const double elapsed = now_seconds - last_scan_seconds_;

  std::vector<ForeignProcess> processes;
  for (const auto pid : pids) {
    const auto ticks = read_pid_ticks(pid);
    if (!ticks) continue;  // vanished between readdir and open
    auto [it, inserted] = prev_pids_.try_emplace(pid);
    auto& prev = it->second;
    prev.seen_this_scan = true;
    if (inserted || !primed || elapsed <= 0.0 || *ticks < prev.cpu_ticks) {
      // New pid, first scan, or a counter regression (pid reuse): prime only.
      prev.cpu_ticks = *ticks;
      if (inserted) prev.ewma_cores = 0.0;
      continue;
    }
    const double delta_seconds =
        static_cast<double>(*ticks - prev.cpu_ticks) / static_cast<double>(tps_);
    prev.cpu_ticks = *ticks;
    const double raw_cores = delta_seconds / elapsed;
    prev.ewma_cores = kEwmaAlpha * raw_cores + (1.0 - kEwmaAlpha) * prev.ewma_cores;
    if (prev.ewma_cores < kMinCores) continue;

    ForeignProcess process;
    process.pid = pid;
    if (!read_pid_status(pid, &process.name, &process.allowed_mask)) {
      process.name = "pid-" + std::to_string(pid);
    }
    process.cpu_cores = prev.ewma_cores;
    process.node_cores = attribute_nodes(process.cpu_cores, process.allowed_mask);
    processes.push_back(std::move(process));
  }

  // Forget processes that disappeared — their EWMA must not resurrect them.
  for (auto it = prev_pids_.begin(); it != prev_pids_.end();) {
    if (!it->second.seen_this_scan) it = prev_pids_.erase(it);
    else ++it;
  }

  std::sort(processes.begin(), processes.end(),
            [](const ForeignProcess& a, const ForeignProcess& b) {
              if (a.cpu_cores != b.cpu_cores) return a.cpu_cores > b.cpu_cores;
              return a.pid < b.pid;
            });
  if (processes.size() > kMaxProcesses) processes.resize(kMaxProcesses);

  // Per-node busy cores from the per-cpu lines. A counter that went
  // backwards (CPU hotplug, a rewritten procfs tree) contributes nothing
  // rather than an underflowed delta.
  std::vector<double> node_busy(machine_.node_count(), 0.0);
  if (primed && elapsed > 0.0) {
    for (const auto& core : machine_.cores()) {
      if (core.id >= cpu_now.size() || core.id >= prev_cpu_.size()) continue;
      const auto& now_c = cpu_now[core.id];
      const auto& prev_c = prev_cpu_[core.id];
      if (now_c.busy < prev_c.busy || now_c.total < prev_c.total) continue;
      const auto busy_delta = now_c.busy - prev_c.busy;
      const auto total_delta = now_c.total - prev_c.total;
      if (total_delta == 0) continue;
      node_busy[core.node] +=
          static_cast<double>(busy_delta) / static_cast<double>(total_delta);
    }
  }

  prev_cpu_ = cpu_now;
  last_scan_seconds_ = now_seconds;
  if (!primed) {
    primed_ = true;
    return std::nullopt;
  }

  ScanResult result;
  result.processes = std::move(processes);
  result.node_busy_cores = std::move(node_busy);
  return result;
}

}  // namespace numashare::foreign
