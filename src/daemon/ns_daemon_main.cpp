// numashared — the standalone arbitration daemon.
//
//   numashared [flags]
//     --registry=/name            registry segment name (default /numashare-registry)
//     --journal=path              JSONL event journal (default: none)
//     --policy=model|fair         decision policy (default model)
//     --machine=probe             discover the host topology (default)
//     --machine=NxC:gflops:bw[:link]  symmetric machine, e.g. 4x8:10:32:10
//     --period-ms=N               tick period (default 10)
//     --heartbeat-timeout-ms=N    eviction and claim-reclaim timeout (default 2000)
//     --snapshot-every=N          journal snapshot cadence in ticks (default 100)
//     --enactment-deadline-ms=N   compliance deadline before laggard; scales the
//                                 quarantine and probe windows (default 1000)
//     --checkpoint-every=N        journal checkpoint cadence in ticks (default 1000)
//     --compact-after=N           rotate the journal past N lines (default 4096)
//     --fsync=none|checkpoint|every-write  journal durability (default checkpoint)
//     --foreign                   arbitrate foreign (non-participant) workloads
//     --foreign-enforce           enforce fences with sched_setaffinity (needs
//                                 ownership/CAP_SYS_NICE; default: advisory)
//     --foreign-scan-ticks=N      foreign scan cadence in daemon ticks (default 10)
//     --foreign-proc-root=path    procfs root for the scanner (default /proc)
//     --duration-s=X              exit after X seconds (default: run until signal)
//     --verbose                   info-level logging
//
// A numeric flag must be a whole number (no trailing text); the period,
// heartbeat timeout and enactment deadline must be positive, and a bad
// value exits with the usage message and code 2.
//
// Applications join through nsd::FailoverClient (see examples/daemon_app.cpp)
// and are free to come and go; crashes are detected by heartbeat loss and
// evicted, with cores redistributed to the survivors. SIGTERM/SIGINT shut
// down in order: clients retired, final checkpoint flushed, daemon-stop
// journaled — never dying mid-write.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "agent/policies.hpp"
#include "common/logging.hpp"
#include "daemon/daemon.hpp"
#include "topology/discovery.hpp"

using namespace numashare;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: numashared [--registry=/name] [--journal=path]\n"
               "                  [--policy=model|fair]\n"
               "                  [--machine=probe|NxC:gflops:bw[:link]]\n"
               "                  [--period-ms=N] [--heartbeat-timeout-ms=N]\n"
               "                  [--snapshot-every=N] [--enactment-deadline-ms=N]\n"
               "                  [--checkpoint-every=N] [--compact-after=N]\n"
               "                  [--fsync=none|checkpoint|every-write]\n"
               "                  [--foreign] [--foreign-enforce]\n"
               "                  [--foreign-scan-ticks=N] [--foreign-proc-root=path]\n"
               "                  [--duration-s=X] [--verbose]\n");
  return 2;
}

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

/// The named flag's value (or `fallback`) parsed whole as a finite number.
/// Empty text, non-numeric text, trailing text ("10ms"), a negative value
/// and, when `positive`, zero are reported on stderr and yield nullopt.
std::optional<double> number_flag(int argc, char** argv, const std::string& name,
                                  const std::string& fallback, bool positive) {
  const std::string text = flag_value(argc, argv, name, fallback);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < 0.0 || (positive && value == 0.0)) {
    std::fprintf(stderr, "error: %s wants a %s number, got '%s'\n", name.c_str(),
                 positive ? "positive" : "non-negative", text.c_str());
    return std::nullopt;
  }
  return value;
}

/// The named flag's value (or `fallback`) parsed whole as a count: digits
/// only, at most `max`, and above 0 when `positive`. Anything else is
/// reported on stderr and yields nullopt.
std::optional<std::uint64_t> count_flag(int argc, char** argv, const std::string& name,
                                        const std::string& fallback, bool positive,
                                        std::uint64_t max = ~std::uint64_t{0}) {
  const std::string text = flag_value(argc, argv, name, fallback);
  char* end = nullptr;
  errno = 0;
  // strtoull skips whitespace and negates a leading '-': insist on a digit.
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) || errno != 0 ||
      end != text.c_str() + text.size() || (positive && value == 0) || value > max) {
    std::fprintf(stderr, "error: %s wants a %s count, got '%s'\n", name.c_str(),
                 positive ? "positive" : "non-negative", text.c_str());
    return std::nullopt;
  }
  return value;
}

/// "4x8:10:32:10" -> symmetric(4, 8, 10 GFLOPS, 32 GB/s, 10 GB/s).
std::optional<topo::Machine> parse_machine(const std::string& spec) {
  if (spec == "probe") return topo::discover_host_or_flat();
  std::uint32_t nodes = 0, cores = 0;
  double gflops = 0.0, bandwidth = 0.0, link = 0.0;
  const int got = std::sscanf(spec.c_str(), "%ux%u:%lf:%lf:%lf", &nodes, &cores, &gflops,
                              &bandwidth, &link);
  if (got < 4 || nodes == 0 || cores == 0) return std::nullopt;
  return topo::Machine::symmetric(nodes, cores, gflops, bandwidth, link, "cli-machine");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
  }

  Logger::instance().set_level(has_flag(argc, argv, "--verbose") ? LogLevel::kInfo
                                                                 : LogLevel::kWarn);

  const auto machine = parse_machine(flag_value(argc, argv, "--machine", "probe"));
  if (!machine) {
    std::fprintf(stderr, "error: bad --machine spec\n");
    return usage();
  }

  const std::string policy_name = flag_value(argc, argv, "--policy", "model");
  agent::PolicyPtr policy;
  if (policy_name == "model") {
    policy = std::make_unique<agent::ModelGuidedPolicy>();
  } else if (policy_name == "fair") {
    policy = std::make_unique<agent::FairSharePolicy>();
  } else {
    std::fprintf(stderr, "error: unknown policy '%s'\n", policy_name.c_str());
    return usage();
  }

  nsd::DaemonOptions options;
  options.registry_name = flag_value(argc, argv, "--registry", nsd::kDefaultRegistryName);
  options.journal_path = flag_value(argc, argv, "--journal", "");
  constexpr bool kPositive = true;
  // The loop sleeps the period as nanoseconds; keep that in int64 range.
  constexpr std::uint64_t kMaxPeriodMs = std::numeric_limits<std::int64_t>::max() / 1'000'000;
  const auto period_ms = count_flag(argc, argv, "--period-ms", "10", kPositive, kMaxPeriodMs);
  const auto heartbeat_timeout_ms =
      number_flag(argc, argv, "--heartbeat-timeout-ms", "2000", kPositive);
  const auto enactment_deadline_ms =
      number_flag(argc, argv, "--enactment-deadline-ms", "1000", kPositive);
  const auto duration_s = number_flag(argc, argv, "--duration-s", "0", !kPositive);
  const auto snapshot_every = count_flag(argc, argv, "--snapshot-every", "100", !kPositive);
  const auto checkpoint_every = count_flag(argc, argv, "--checkpoint-every", "1000", !kPositive);
  const auto compact_after = count_flag(argc, argv, "--compact-after", "4096", !kPositive);
  const auto foreign_scan_ticks = count_flag(argc, argv, "--foreign-scan-ticks", "10", !kPositive);
  if (!period_ms || !heartbeat_timeout_ms || !enactment_deadline_ms || !duration_s ||
      !snapshot_every || !checkpoint_every || !compact_after || !foreign_scan_ticks) {
    return usage();
  }
  options.period_us = static_cast<std::int64_t>(*period_ms) * 1000;
  options.heartbeat_timeout_s = *heartbeat_timeout_ms / 1000.0;
  options.enactment_deadline_s = *enactment_deadline_ms / 1000.0;
  options.snapshot_every_ticks = *snapshot_every;
  options.checkpoint_every_ticks = *checkpoint_every;
  options.compact_after_lines = *compact_after;
  options.foreign_scan_every_ticks = *foreign_scan_ticks;
  bool fsync_ok = false;
  options.fsync_policy =
      nsd::parse_fsync_policy(flag_value(argc, argv, "--fsync", "checkpoint"), &fsync_ok);
  if (!fsync_ok) {
    std::fprintf(stderr, "error: bad --fsync value\n");
    return usage();
  }
  options.foreign_enabled =
      has_flag(argc, argv, "--foreign") || has_flag(argc, argv, "--foreign-enforce");
  options.foreign.enforce_fences = has_flag(argc, argv, "--foreign-enforce");
  options.foreign.scanner.proc_root = flag_value(argc, argv, "--foreign-proc-root", "/proc");

  nsd::Daemon daemon(*machine, std::move(policy), options);
  std::string error;
  if (!daemon.init(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  signal(SIGINT, handle_signal);
  signal(SIGTERM, handle_signal);

  std::printf("numashared: registry %s, %u nodes x %u cores, policy %s%s%s\n",
              options.registry_name.c_str(), machine->node_count(),
              machine->core_count() / std::max(1u, machine->node_count()),
              policy_name.c_str(), options.journal_path.empty() ? "" : ", journal ",
              options.journal_path.c_str());
  std::fflush(stdout);

  daemon.start();
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    if (*duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >=
            *duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Orderly shutdown: retire clients, flush a final checkpoint, journal
  // daemon-stop, fsync — SIGTERM/SIGINT never leave a half-written tail.
  daemon.shutdown();

  const auto& stats = daemon.stats();
  std::printf("numashared: %llu ticks, %llu joins, %llu leaves, %llu evictions, "
              "%llu reallocations, %zu stale segments cleaned\n",
              static_cast<unsigned long long>(stats.ticks),
              static_cast<unsigned long long>(stats.joins),
              static_cast<unsigned long long>(stats.leaves),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.reallocations),
              stats.stale_segments_cleaned);
  return 0;
}
