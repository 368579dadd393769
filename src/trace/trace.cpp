#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "trace/convert.hpp"

namespace numashare::trace {

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) { events.reserve(capacity); }
  std::vector<Event> events;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::size_t> committed{0};  // readable prefix for racy export
};

namespace {
std::atomic<std::uint64_t> tracer_ids{1};
}

Tracer::Tracer(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread), origin_us_(steady_us()),
      id_(tracer_ids.fetch_add(1, std::memory_order_relaxed)) {
  NS_REQUIRE(capacity_ > 0, "tracer capacity must be positive");
}

Tracer::~Tracer() = default;

double Tracer::now_us() const { return steady_us() - origin_us_; }

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // One buffer slot per (tracer, thread) pair; the thread caches its slot
  // keyed by the tracer's process-unique id.
  thread_local std::vector<std::pair<std::uint64_t, ThreadBuffer*>> cache;
  for (auto& [tracer_id, buffer] : cache) {
    if (tracer_id == id_) return *buffer;
  }
  auto owned = std::make_unique<ThreadBuffer>(capacity_);
  ThreadBuffer* raw = owned.get();
  {
    std::scoped_lock lock(registry_mutex_);
    buffers_.push_back(std::move(owned));
  }
  cache.emplace_back(id_, raw);
  return *raw;
}

void Tracer::append(const Event& event) {
  auto& buffer = local_buffer();
  if (buffer.events.size() >= capacity_) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(event);
  buffer.committed.store(buffer.events.size(), std::memory_order_release);
}

void Tracer::instant(const char* name, const char* category, std::uint32_t thread) {
  Event event;
  event.name = name;
  event.category = category;
  event.phase = Phase::kInstant;
  event.start_us = now_us();
  event.thread = thread;
  append(event);
}

void Tracer::counter(const char* name, const char* category, std::uint32_t thread,
                     double value) {
  Event event;
  event.name = name;
  event.category = category;
  event.phase = Phase::kCounter;
  event.start_us = now_us();
  event.value = value;
  event.thread = thread;
  append(event);
}

void Tracer::span(const char* name, const char* category, std::uint32_t thread,
                  double start_us, double duration_us) {
  Event event;
  event.name = name;
  event.category = category;
  event.phase = Phase::kSpan;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.thread = thread;
  append(event);
}

std::vector<Event> Tracer::snapshot() const {
  std::vector<Event> out;
  {
    std::scoped_lock lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t n = buffer->committed.load(std::memory_order_acquire);
      out.insert(out.end(), buffer->events.begin(), buffer->events.begin() + n);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.start_us < b.start_us; });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::scoped_lock lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : snapshot()) {
    if (!first) out += ",";
    first = false;
    switch (event.phase) {
      case Phase::kSpan:
        out += ns_format(
            R"({"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{}})",
            event.name, event.category, fmt_compact(event.start_us, 3),
            fmt_compact(event.duration_us, 3), event.thread);
        break;
      case Phase::kInstant:
        out += ns_format(
            R"({"name":"{}","cat":"{}","ph":"i","ts":{},"s":"t","pid":1,"tid":{}})",
            event.name, event.category, fmt_compact(event.start_us, 3), event.thread);
        break;
      case Phase::kCounter:
        out += ns_format(
            R"({"name":"{}","cat":"{}","ph":"C","ts":{},"pid":1,"tid":{},"args":{"value":{}}})",
            event.name, event.category, fmt_compact(event.start_us, 3), event.thread,
            fmt_compact(event.value, 6));
        break;
    }
  }
  // Drop accounting travels with the export: buffers that filled mid-run
  // silently truncate the event stream, and a reader must be able to tell a
  // quiet trace from a lossy one without access to the live Tracer.
  out += ns_format("],\"dropped\":{}}", dropped());
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_chrome_json();
  return static_cast<bool>(out);
}

std::string Tracer::ascii_timeline(std::size_t width) const {
  // One renderer for live and exported traces: convert.cpp's, fed this
  // tracer's snapshot in the artifact's event form.
  ParsedTrace trace;
  trace.dropped = dropped();
  for (const auto& event : snapshot()) {
    const char phase = event.phase == Phase::kSpan      ? 'X'
                       : event.phase == Phase::kInstant ? 'i'
                                                        : 'C';
    trace.events.push_back({event.name, event.category, phase, event.start_us,
                            event.duration_us, event.value, event.thread});
  }
  return render_timeline(trace, width);
}

Span::Span(Tracer* tracer, const char* name, const char* category, std::uint32_t thread)
    : tracer_(tracer), name_(name), category_(category), thread_(thread),
      start_us_(tracer ? tracer->now_us() : 0.0) {}

Span::~Span() {
  if (tracer_ != nullptr) {
    tracer_->span(name_, category_, thread_, start_us_, tracer_->now_us() - start_us_);
  }
}

}  // namespace numashare::trace
