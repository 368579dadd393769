// Execution tracing: what actually happened, on which worker, when.
//
// A Tracer collects spans (task executions, blocking episodes), instants
// (control changes, agent commands) and counters into per-thread buffers
// with a single-writer fast path, then exports either
//  * Chrome trace-event JSON (load in chrome://tracing or Perfetto), or
//  * an ASCII per-thread timeline for terminal-only sessions.
//
// Names and categories are interned string literals (const char*) so the
// record path does no allocation; buffers are bounded and drop-counting.
//
// Concurrent-export contract. Export is intended after the traced workload
// quiesces (the usual pattern: run, wait_idle, export), but exporting WHILE
// threads record is defined behaviour: each thread buffer's storage is
// reserved to capacity up front (push_back never reallocates), and readers
// take only the `committed` prefix — a release-store made after each push —
// so a racy snapshot sees a memory-safe, self-consistent prefix of every
// buffer, never torn events. Events recorded after the snapshot's prefix
// loads are simply absent from that export.
//
// Drop accounting. When a thread's buffer fills, further events from that
// thread are dropped and counted (never silently lost). The counter is
// surfaced in every export: dropped() on the live tracer, a top-level
// "dropped" field in to_chrome_json(), and a trailing summary line in
// ascii_timeline() — so a reader of the artifact alone can tell a quiet
// trace from a truncated one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace numashare::trace {

enum class Phase : std::uint8_t {
  kSpan,     // complete event with duration
  kInstant,  // point event
  kCounter,  // named value over time
};

struct Event {
  const char* name = "";
  const char* category = "";
  Phase phase = Phase::kInstant;
  double start_us = 0.0;
  double duration_us = 0.0;  // spans only
  double value = 0.0;        // counters only
  std::uint32_t thread = 0;  // logical lane (worker id / app-defined)
};

class Tracer;

/// RAII span: records [construction, destruction) as one complete event.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* category, std::uint32_t thread);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  std::uint32_t thread_;
  double start_us_;
};

class Tracer {
 public:
  /// `capacity_per_thread` bounds each thread's buffer; overflow events are
  /// dropped and counted.
  explicit Tracer(std::size_t capacity_per_thread = 1u << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since tracer construction (the exported clock).
  double now_us() const;

  void instant(const char* name, const char* category, std::uint32_t thread);
  void counter(const char* name, const char* category, std::uint32_t thread, double value);
  /// Record a complete span directly (Span uses this).
  void span(const char* name, const char* category, std::uint32_t thread, double start_us,
            double duration_us);

  /// All recorded events, merged and sorted by start time.
  std::vector<Event> snapshot() const;
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON (one process; `thread` becomes tid).
  std::string to_chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

  /// Terminal timeline: one row per lane, `width` columns (at least 8)
  /// spanning the recorded interval; span glyphs keyed by the first letter
  /// of the name. Rendered by trace::render_timeline (convert.hpp).
  std::string ascii_timeline(std::size_t width = 72) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();
  void append(const Event& event);

  std::size_t capacity_;
  double origin_us_;
  /// Process-unique id: thread-local buffer caches key on it, so a new
  /// Tracer at a recycled address can never alias a stale cache entry.
  std::uint64_t id_;
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace numashare::trace
