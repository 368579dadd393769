// Trace export round trip: Tracer -> to_chrome_json -> parse_chrome_json ->
// flame/timeline renderings. Also pins the two artifact-level contracts from
// trace.hpp: drop counters survive conversion, and exporting WHILE threads
// record yields a parseable, self-consistent prefix (run under TSan in CI).
#include "trace/convert.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace numashare::trace {
namespace {

OwnedEvent span_event(const char* name, std::uint32_t lane, double start_us,
                      double duration_us) {
  OwnedEvent e;
  e.name = name;
  e.phase = 'X';
  e.thread = lane;
  e.start_us = start_us;
  e.duration_us = duration_us;
  return e;
}

// --- round trip ------------------------------------------------------------

TEST(TraceConvert, RoundTripPreservesCountsAndKinds) {
  Tracer tracer;
  {
    Span a(&tracer, "task", "rt", 0);
    Span b(&tracer, "inner", "rt", 0);
  }
  {
    Span c(&tracer, "steal", "rt", 1);
  }
  tracer.instant("cmd", "agent", 0);
  tracer.instant("worker-stall", "watchdog", 1);
  tracer.counter("depth", "rt", 0, 5.0);

  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(parse_chrome_json(tracer.to_chrome_json(), parsed, &error)) << error;
  EXPECT_EQ(parsed.events.size(), 6u);
  EXPECT_EQ(parsed.span_count(), 3u);
  EXPECT_EQ(parsed.instant_count(), 2u);
  EXPECT_EQ(parsed.counter_count(), 1u);
  EXPECT_EQ(parsed.dropped, 0u);

  bool saw_counter = false;
  for (const auto& event : parsed.events) {
    if (event.phase == 'C') {
      saw_counter = true;
      EXPECT_EQ(event.name, "depth");
      EXPECT_DOUBLE_EQ(event.value, 5.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(TraceConvert, DropCounterPropagatesThroughEveryRendering) {
  Tracer tracer(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) tracer.instant("e", "t", 0);
  ASSERT_EQ(tracer.dropped(), 6u);

  ParsedTrace parsed;
  ASSERT_TRUE(parse_chrome_json(tracer.to_chrome_json(), parsed));
  EXPECT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.dropped, 6u);

  // A lossy trace must say so in every rendering, not just the JSON.
  EXPECT_NE(to_collapsed_stacks(parsed).find("trace;(dropped-events) 6"),
            std::string::npos);
  EXPECT_NE(render_timeline(parsed).find("dropped: 6 events"), std::string::npos);
  EXPECT_NE(summarize(parsed).find("6 dropped"), std::string::npos);
}

TEST(TraceConvert, PreDropArtifactsStillParse) {
  // Traces written before drop surfacing have no "dropped" field.
  ParsedTrace parsed;
  ASSERT_TRUE(parse_chrome_json(
      R"({"traceEvents":[{"name":"x","cat":"t","ph":"i","ts":1,"pid":1,"tid":0}]})",
      parsed));
  EXPECT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.dropped, 0u);
  EXPECT_EQ(to_collapsed_stacks(parsed).find("dropped"), std::string::npos);
}

// --- collapsed stacks ------------------------------------------------------

TEST(TraceConvert, CollapsedStacksNestByContainment) {
  // lane 0: parent [0,100) containing child [10,40) — parent self = 70.
  ParsedTrace trace;
  trace.events.push_back(span_event("parent", 0, 0.0, 100.0));
  trace.events.push_back(span_event("child", 0, 10.0, 30.0));
  const std::string folded = to_collapsed_stacks(trace);
  EXPECT_NE(folded.find("lane0;parent 70\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("lane0;parent;child 30\n"), std::string::npos) << folded;
}

TEST(TraceConvert, SiblingsAccumulateOneLine) {
  ParsedTrace trace;
  trace.events.push_back(span_event("outer", 0, 0.0, 100.0));
  trace.events.push_back(span_event("task", 0, 5.0, 20.0));
  trace.events.push_back(span_event("task", 0, 30.0, 20.0));
  const std::string folded = to_collapsed_stacks(trace);
  // Two sibling "task" spans fold into one weighted line.
  EXPECT_NE(folded.find("lane0;outer;task 40\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("lane0;outer 60\n"), std::string::npos) << folded;
}

TEST(TraceConvert, LanesAreIndependentStacks) {
  ParsedTrace trace;
  trace.events.push_back(span_event("a", 0, 0.0, 50.0));
  trace.events.push_back(span_event("b", 3, 0.0, 50.0));  // overlaps, other lane
  const std::string folded = to_collapsed_stacks(trace);
  EXPECT_NE(folded.find("lane0;a 50\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("lane3;b 50\n"), std::string::npos) << folded;
  EXPECT_EQ(folded.find("a;b"), std::string::npos) << folded;
}

TEST(TraceConvert, ShortSpansStayVisible) {
  ParsedTrace trace;
  trace.events.push_back(span_event("blip", 0, 0.0, 0.2));  // rounds to 0
  const std::string folded = to_collapsed_stacks(trace);
  // Nonzero-duration spans get a minimum weight of 1 rather than vanishing.
  EXPECT_NE(folded.find("lane0;blip 1\n"), std::string::npos) << folded;
}

// --- timeline / summary ----------------------------------------------------

TEST(TraceConvert, TimelineMatchesLiveRenderingRules) {
  ParsedTrace trace;
  trace.events.push_back(span_event("alpha", 0, 0.0, 50.0));
  OwnedEvent instant;
  instant.name = "cmd";
  instant.phase = 'i';
  instant.thread = 2;
  instant.start_us = 25.0;
  trace.events.push_back(instant);

  const std::string timeline = render_timeline(trace, 40);
  EXPECT_NE(timeline.find("lane 0"), std::string::npos);
  EXPECT_NE(timeline.find("lane 2"), std::string::npos);
  EXPECT_NE(timeline.find('a'), std::string::npos);  // span glyph
  EXPECT_NE(timeline.find('!'), std::string::npos);  // instant glyph
}

TEST(TraceConvert, EmptyTimeline) {
  ParsedTrace trace;
  EXPECT_NE(render_timeline(trace).find("no trace events"), std::string::npos);
}

// --- parser robustness -----------------------------------------------------

TEST(TraceConvert, RejectsMalformedInput) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(parse_chrome_json("", parsed, &error));
  EXPECT_FALSE(parse_chrome_json("[]", parsed, &error));
  EXPECT_FALSE(parse_chrome_json(R"({"traceEvents":42})", parsed, &error));
  EXPECT_FALSE(parse_chrome_json(R"({"traceEvents":[{"name":}]})", parsed, &error));
  EXPECT_FALSE(parse_chrome_json(R"({"dropped":-1})", parsed, &error));
  EXPECT_FALSE(parse_chrome_json(R"({} trailing)", parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceConvert, IgnoresUnknownFields) {
  // Forward compatibility: unknown top-level and event fields are skipped.
  ParsedTrace parsed;
  ASSERT_TRUE(parse_chrome_json(
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"x","cat":"t","ph":"X","ts":0,"dur":5,"pid":1,"tid":0,)"
      R"("args":{"note":"ignored","value":3},"sf":7}],"otherData":{"a":[1,2]}})",
      parsed));
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].phase, 'X');
  EXPECT_DOUBLE_EQ(parsed.events[0].value, 3.0);
}

// --- concurrent export (the memory-safe-prefix contract; TSan in CI) -------

TEST(TraceConvert, ExportDuringRecordingParsesToConsistentPrefix) {
  // Each export round releases one more fixed batch of events per writer
  // and parses while the writers record it, so the trace (and the parse
  // cost) grows by a bounded step per round, however fast the writers run.
  constexpr int kRounds = 25;
  constexpr int kEventsPerRound = 200;
  Tracer tracer;
  std::atomic<int> released{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tracer, &released, t] {
      for (int round = 0; round < kRounds; ++round) {
        while (released.load(std::memory_order_acquire) <= round) std::this_thread::yield();
        for (int e = 0; e < kEventsPerRound; ++e) {
          Span span(&tracer, "work", "mt", static_cast<std::uint32_t>(t));
          tracer.instant("tick", "mt", static_cast<std::uint32_t>(t));
        }
      }
    });
  }

  // Export repeatedly while writers are live: every artifact must parse and
  // hold a growing, self-consistent prefix of the recorded history.
  std::size_t last_count = 0;
  for (int round = 0; round < kRounds; ++round) {
    released.store(round + 1, std::memory_order_release);
    ParsedTrace parsed;
    std::string error;
    // EXPECT, not ASSERT: returning here would leave the writers waiting.
    EXPECT_TRUE(parse_chrome_json(tracer.to_chrome_json(), parsed, &error)) << error;
    EXPECT_GE(parsed.events.size(), last_count);
    last_count = parsed.events.size();
    for (const auto& event : parsed.events) {
      EXPECT_TRUE(event.name == "work" || event.name == "tick") << event.name;
    }
  }
  for (auto& w : writers) w.join();

  // After quiescence the artifact is complete: spans+instants add up.
  ParsedTrace final_parsed;
  ASSERT_TRUE(parse_chrome_json(tracer.to_chrome_json(), final_parsed));
  EXPECT_EQ(final_parsed.events.size() + final_parsed.dropped,
            tracer.snapshot().size() + tracer.dropped());
}

}  // namespace
}  // namespace numashare::trace
