#include "support/procfs_writer.hpp"

#include <unistd.h>

#include <atomic>
#include <fstream>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace numashare::foreign {

namespace fs = std::filesystem;

namespace {
std::atomic<int> g_counter{0};
}  // namespace

ProcfsWriter::ProcfsWriter() {
  root_ = fs::temp_directory_path() /
          ns_format("numashare-proc-{}-{}", ::getpid(),
                    g_counter.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  fs::create_directories(root_, ec);
  NS_REQUIRE(!ec, "failed to create fake procfs root");
}

ProcfsWriter::~ProcfsWriter() {
  std::error_code ec;
  fs::remove_all(root_, ec);
}

void ProcfsWriter::set_cpu_times(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& busy_idle_per_cpu) {
  std::ofstream out(root_ / "stat");
  std::uint64_t busy_sum = 0;
  std::uint64_t idle_sum = 0;
  for (const auto& [busy, idle] : busy_idle_per_cpu) {
    busy_sum += busy;
    idle_sum += idle;
  }
  // user nice system idle iowait irq softirq steal: put all busy in user.
  out << "cpu  " << busy_sum << " 0 0 " << idle_sum << " 0 0 0 0 0 0\n";
  for (std::size_t cpu = 0; cpu < busy_idle_per_cpu.size(); ++cpu) {
    out << "cpu" << cpu << " " << busy_idle_per_cpu[cpu].first << " 0 0 "
        << busy_idle_per_cpu[cpu].second << " 0 0 0 0 0 0\n";
  }
}

void ProcfsWriter::set_process(std::int32_t pid, const std::string& name,
                               std::uint64_t cpu_ticks, std::uint64_t allowed_mask) {
  const fs::path dir = root_ / std::to_string(pid);
  std::error_code ec;
  fs::create_directories(dir, ec);
  NS_REQUIRE(!ec, "failed to create fake process directory");

  const std::uint64_t utime = cpu_ticks / 2;
  const std::uint64_t stime = cpu_ticks - utime;
  {
    // Real field layout; the comm deliberately contains a space and parens
    // to keep the scanner's last-')' parsing honest.
    std::ofstream out(dir / "stat");
    out << pid << " (" << name << ") S 1 1 1 0 -1 4194304 100 0 0 0 " << utime << " "
        << stime << " 0 0 20 0 1 0 100 1000000 100 18446744073709551615\n";
  }
  {
    std::ofstream out(dir / "status");
    out << "Name:\t" << name << "\n";
    out << "State:\tS (sleeping)\n";
    out << "Pid:\t" << pid << "\n";
    if (allowed_mask == 0) {
      out << "Cpus_allowed:\tffffffff,ffffffff\n";
    } else {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%llx",
                    static_cast<unsigned long long>(allowed_mask));
      out << "Cpus_allowed:\t" << hex << "\n";
    }
  }
}

void ProcfsWriter::remove_process(std::int32_t pid) {
  std::error_code ec;
  fs::remove_all(root_ / std::to_string(pid), ec);
}

}  // namespace numashare::foreign
