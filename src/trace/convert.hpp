// Offline trace tooling: parse exported Chrome-trace JSON back into events
// and render flame-graph / timeline views (tools/trace2flame).
//
// This is the read side of trace.cpp's export: it consumes the artifact, not
// the live Tracer, so it works on traces from other processes and other
// machines. The parser is deliberately minimal — it understands exactly the
// subset to_chrome_json() emits (flat object, "traceEvents" array of flat
// event objects, optional top-level "dropped" counter) plus harmless
// whitespace; it is not a general JSON library.
//
// Outputs:
//  * collapsed-stack ("folded") lines for flame-graph tooling — one line per
//    distinct lane;stack with its self-time weight in integer microseconds.
//    Span nesting is reconstructed per lane by interval containment, which
//    matches how Span RAII scopes nest on one thread. Dropped events are
//    surfaced as a synthetic "trace;(dropped-events) N" line so a flame
//    graph of a lossy trace says so on its face.
//  * an ASCII timeline of the parsed artifact; Tracer::ascii_timeline renders
//    the live tracer through the same function.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace numashare::trace {

/// An event re-read from an export. Unlike the live trace::Event, names are
/// owned strings: the artifact's string table is gone.
struct OwnedEvent {
  std::string name;
  std::string category;
  char phase = 'i';  // 'X' span, 'i' instant, 'C' counter
  double start_us = 0.0;
  double duration_us = 0.0;
  double value = 0.0;
  std::uint32_t thread = 0;
};

struct ParsedTrace {
  std::vector<OwnedEvent> events;
  /// The export's top-level drop counter (0 when the field is absent —
  /// traces written before drop surfacing).
  std::uint64_t dropped = 0;

  std::size_t span_count() const { return count_phase('X'); }
  std::size_t instant_count() const { return count_phase('i'); }
  std::size_t counter_count() const { return count_phase('C'); }

 private:
  std::size_t count_phase(char phase) const {
    std::size_t n = 0;
    for (const auto& e : events) n += e.phase == phase ? 1 : 0;
    return n;
  }
};

/// Parse a to_chrome_json() artifact. Returns false (and fills `error` when
/// given) on malformed input; on success `out` holds every event plus the
/// drop counter.
bool parse_chrome_json(std::string_view json, ParsedTrace& out,
                       std::string* error = nullptr);

/// Collapsed-stack flame format: "lane0;task 1234" lines, semicolon-joined
/// stacks, space, self-time weight in integer microseconds (rounded, minimum
/// 1 for a nonzero-duration span so short spans stay visible). Stacks nest
/// by per-lane interval containment. Instants and counters carry no
/// duration and are omitted. A nonzero drop counter appends a synthetic
/// "trace;(dropped-events) <N>" line weighted by the count.
std::string to_collapsed_stacks(const ParsedTrace& trace);

/// ASCII timeline of the parsed trace (span glyph = first letter, '!'
/// instants, trailing drop summary when the artifact recorded drops); widths
/// below 8 are clamped to 8. Tracer::ascii_timeline renders through it.
std::string render_timeline(const ParsedTrace& trace, std::size_t width = 72);

/// One-line inventory: event/span/instant/counter/lane/drop counts.
std::string summarize(const ParsedTrace& trace);

}  // namespace numashare::trace
