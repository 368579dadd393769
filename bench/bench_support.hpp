// Shared scaffolding for the experiment benches.
//
// Every bench binary does two things:
//   1. prints its paper reproduction (the same rows/series the paper
//      reports, next to the paper's published values), then
//   2. runs google-benchmark timings for the machinery involved.
// A bench must run argument-free and exit cleanly ("for b in bench/*; do
// $b; done" is the documented driver).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/table.hpp"

namespace numashare::bench {

inline void print_header(const std::string& experiment_id, const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void print_section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// "reproduced X vs paper Y (delta Z%)" line with a PASS/SHAPE marker.
inline void print_comparison(const std::string& label, double reproduced, double paper,
                             double tolerance_percent) {
  const double delta = paper != 0.0 ? (reproduced - paper) / paper * 100.0 : 0.0;
  const bool ok = paper == 0.0 || std::abs(delta) <= tolerance_percent;
  std::printf("  %-42s %10s (paper: %8s, delta %+6.2f%%) %s\n", label.c_str(),
              fmt_compact(reproduced, 2).c_str(), fmt_compact(paper, 2).c_str(), delta,
              ok ? "[OK]" : "[SHAPE]");
}

inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// --- numashare-bench/1 -------------------------------------------------------
//
// The one document format the gated benches emit and
// scripts/check_bench_json.py validates (docs/OBSERVABILITY.md "Bench
// format"): result rows plus declarative gates whose verdicts are derived
// from the rows, never stored.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// NS_BENCH_QUICK=1: trimmed iteration counts for smoke runs.
inline bool quick_mode() {
  const char* q = std::getenv("NS_BENCH_QUICK");
  return q != nullptr && q[0] != '\0' && q[0] != '0';
}

/// A result row: a scalar `value`, or a latency distribution in ns.
struct Row {
  std::string name;
  std::string scenario;
  std::string unit;
  double value = 0.0;
  bool distribution = false;  ///< p50..max (plus count when non-zero) replace value
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  std::optional<bool> estimated{};  ///< value is an estimate, not a measurement
};

/// Which runs a gate's verdict counts on.
enum class Enforce {
  kAlways,           ///< every run: deterministic arithmetic
  kFull,             ///< quick=false
  kFullUnsanitized,  ///< quick=false and sanitized=false: wall-time gates
};

inline const char* to_string(Enforce enforce) {
  switch (enforce) {
    case Enforce::kAlways: return "always";
    case Enforce::kFull: return "full";
    case Enforce::kFullUnsanitized: return "full_unsanitized";
  }
  return "?";
}

/// `metric op bound`, where bound is `limit`, or scale * ref + offset when
/// `ref` is set. Rows are addressed as "name@scenario", plus ".p99" (or
/// ".p50", ".p999", ".max") for a distribution.
struct Gate {
  std::string metric;
  std::string op;  ///< "<=", ">=" or "=="
  double limit = 0.0;
  std::string ref{};
  double scale = 1.0;
  double offset = 0.0;
  Enforce enforce = Enforce::kAlways;
};

/// The value a row address names; nullopt when the row (or field) is absent.
inline std::optional<double> lookup(const std::vector<Row>& rows, const std::string& address) {
  const auto at = address.find('@');
  const auto dot = address.find('.', at);
  if (at == std::string::npos) return std::nullopt;
  const std::string name = address.substr(0, at);
  const std::string scenario = address.substr(at + 1, dot == std::string::npos ? dot : dot - at - 1);
  const std::string field = dot == std::string::npos ? "value" : address.substr(dot + 1);
  for (const Row& row : rows) {
    if (row.name != name || row.scenario != scenario) continue;
    if (!row.distribution) return field == "value" ? std::optional(row.value) : std::nullopt;
    if (field == "p50") return row.p50;
    if (field == "p99") return row.p99;
    if (field == "p999") return row.p999;
    if (field == "max") return row.max;
    return std::nullopt;
  }
  return std::nullopt;
}

struct Verdict {
  bool enforced = false;  ///< the gate counts for this run's quick/sanitized mode
  bool measured = false;  ///< every row the gate names is present
  bool pass = false;      ///< measured and the comparison holds
  double actual = 0.0;
  double bound = 0.0;
};

inline Verdict evaluate(const Gate& gate, const std::vector<Row>& rows, bool quick,
                        bool sanitized) {
  Verdict v;
  v.enforced = gate.enforce == Enforce::kAlways ||
               (gate.enforce == Enforce::kFull && !quick) ||
               (gate.enforce == Enforce::kFullUnsanitized && !quick && !sanitized);
  const auto actual = lookup(rows, gate.metric);
  const auto ref = gate.ref.empty() ? std::optional(0.0) : lookup(rows, gate.ref);
  v.measured = actual.has_value() && ref.has_value();
  if (!v.measured) return v;
  v.actual = *actual;
  v.bound = gate.ref.empty() ? gate.limit : gate.scale * *ref + gate.offset;
  v.pass = (gate.op == "<=" && v.actual <= v.bound) || (gate.op == ">=" && v.actual >= v.bound) ||
           (gate.op == "==" && v.actual == v.bound);
  return v;
}

namespace detail {
/// Set by Report::emit when an `always` gate fails; NUMASHARE_BENCH_MAIN
/// turns it into the exit status.
inline bool g_always_gate_failed = false;

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}
}  // namespace detail

/// Collects one bench's rows and gates and writes them as a numashare-bench/1
/// document to NS_BENCH_OUT (default: the bench's own BENCH_<layer>.json).
class Report {
 public:
  Report(std::string bench, std::string default_out, std::string protocol)
      : bench_(std::move(bench)),
        default_out_(std::move(default_out)),
        protocol_(std::move(protocol)) {}

  void add(std::string name, std::string scenario, std::string unit, double value,
           std::optional<bool> estimated = std::nullopt) {
    Row row{std::move(name), std::move(scenario), std::move(unit), value};
    row.estimated = estimated;
    rows_.push_back(std::move(row));
  }

  /// A distribution row from an obs::HistogramSnapshot; an empty one (nothing
  /// observed, e.g. no steals on one worker) adds nothing.
  template <typename Snapshot>
  void add_distribution(std::string name, std::string scenario, const Snapshot& snap) {
    if (snap.count == 0) return;
    Row row{std::move(name), std::move(scenario), "ns"};
    row.distribution = true;
    row.count = snap.count;
    row.p50 = snap.percentile(50.0);
    row.p99 = snap.percentile(99.0);
    row.p999 = snap.percentile(99.9);
    row.max = static_cast<double>(snap.max_ns);
    rows_.push_back(std::move(row));
  }

  void gate(Gate gate) { gates_.push_back(std::move(gate)); }

  /// Writes the document and prints every gate's verdict. Only a failed
  /// `always` gate fails the run: timing gates are replayed by the checker
  /// on committed documents, so a loaded host cannot fail a smoke run.
  void emit() const {
    const char* env = std::getenv("NS_BENCH_OUT");
    const std::string path = env != nullptr && env[0] != '\0' ? env : default_out_;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_.c_str(), path.c_str());
      detail::g_always_gate_failed = true;
      return;
    }
    std::fprintf(f, "{\n  \"schema\": \"numashare-bench/1\",\n");
    std::fprintf(f, "  \"bench\": %s,\n", detail::json_string(bench_).c_str());
    std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
    std::fprintf(f, "  \"sanitized\": %s,\n", kSanitized ? "true" : "false");
    std::fprintf(f, "  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"protocol\": %s,\n", detail::json_string(protocol_).c_str());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "    {\"name\": %s, \"scenario\": %s, \"unit\": %s, ",
                   detail::json_string(r.name).c_str(), detail::json_string(r.scenario).c_str(),
                   detail::json_string(r.unit).c_str());
      if (!r.distribution) {
        std::fprintf(f, "\"value\": %.3f", r.value);
      } else {
        if (r.count != 0) std::fprintf(f, "\"count\": %llu, ", static_cast<unsigned long long>(r.count));
        std::fprintf(f, "\"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f, \"max\": %.3f", r.p50,
                     r.p99, r.p999, r.max);
      }
      if (r.estimated) std::fprintf(f, ", \"estimated\": %s", *r.estimated ? "true" : "false");
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gates\": [\n");
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      std::fprintf(f, "    {\"metric\": %s, \"op\": %s, ", detail::json_string(g.metric).c_str(),
                   detail::json_string(g.op).c_str());
      if (g.ref.empty()) {
        std::fprintf(f, "\"limit\": %.10g, ", g.limit);
      } else {
        std::fprintf(f, "\"ref\": %s, \"scale\": %.10g, ", detail::json_string(g.ref).c_str(),
                     g.scale);
        if (g.offset != 0.0) std::fprintf(f, "\"offset\": %.10g, ", g.offset);
      }
      std::fprintf(f, "\"enforce\": \"%s\"}%s\n", to_string(g.enforce),
                   i + 1 < gates_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    std::printf("\nwrote %s (%zu results)\n", path.c_str(), rows_.size());
    for (const Gate& g : gates_) {
      const Verdict v = evaluate(g, rows_, quick_mode(), kSanitized);
      const char* scope = v.enforced ? "" : ", not enforced";
      if (v.measured) {
        std::printf("  gate %s: %.6g %s %.6g %s (%s%s)\n", g.metric.c_str(), v.actual,
                    g.op.c_str(), v.bound, v.pass ? "PASS" : "FAIL", to_string(g.enforce), scope);
      } else {
        std::printf("  gate %s: not measured (%s%s)\n", g.metric.c_str(), to_string(g.enforce),
                    scope);
      }
      if (g.enforce == Enforce::kAlways && !v.pass) detail::g_always_gate_failed = true;
    }
  }

 private:
  std::string bench_;
  std::string default_out_;
  std::string protocol_;
  std::vector<Row> rows_;
  std::vector<Gate> gates_;
};

}  // namespace numashare::bench

/// Standard main: reproduction printout first, then the timings. Exits
/// non-zero when the bench's report failed an `always` gate.
#define NUMASHARE_BENCH_MAIN(reproduce_fn)                                 \
  int main(int argc, char** argv) {                                        \
    reproduce_fn();                                                        \
    const int status = ::numashare::bench::run_benchmarks(argc, argv);     \
    return status != 0 ? status                                            \
                       : (::numashare::bench::detail::g_always_gate_failed \
                              ? 1                                          \
                              : 0);                                        \
  }
