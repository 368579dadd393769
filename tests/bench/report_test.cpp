#include <gtest/gtest.h>

#include <vector>

#include "bench_support.hpp"

namespace numashare::bench {
namespace {

std::vector<Row> rows() {
  Row tick{"tick", "active_1024", "ns"};
  tick.distribution = true;
  tick.p50 = 100.0;
  tick.p99 = 500.0;
  tick.p999 = 900.0;
  tick.max = 1000.0;
  return {{"blind", "bw", "gbps", 10.0},
          {"aware", "bw", "gbps", 14.0},
          {"capacity", "registry", "slots", 1024.0},
          tick};
}

Verdict full_run(const Gate& gate) { return evaluate(gate, rows(), false, false); }

TEST(BenchGate, LookupAddressesValuesAndPercentiles) {
  EXPECT_EQ(lookup(rows(), "aware@bw"), 14.0);
  EXPECT_EQ(lookup(rows(), "tick@active_1024.p99"), 500.0);
  EXPECT_EQ(lookup(rows(), "tick@active_1024.max"), 1000.0);
  EXPECT_FALSE(lookup(rows(), "aware@other").has_value());
  EXPECT_FALSE(lookup(rows(), "aware@bw.p99").has_value());
  EXPECT_FALSE(lookup(rows(), "tick@active_1024").has_value());
}

TEST(BenchGate, AtMost) {
  EXPECT_TRUE(full_run({.metric = "tick@active_1024.p99", .op = "<=", .limit = 500.0}).pass);
  EXPECT_FALSE(full_run({.metric = "tick@active_1024.p99", .op = "<=", .limit = 499.0}).pass);
}

TEST(BenchGate, AtLeastScaledReference) {
  EXPECT_TRUE(full_run({.metric = "aware@bw", .op = ">=", .ref = "blind@bw", .scale = 1.4}).pass);
  const Verdict v = full_run({.metric = "aware@bw", .op = ">=", .ref = "blind@bw", .scale = 1.3,
                              .offset = 1.5});
  EXPECT_FALSE(v.pass);
  EXPECT_DOUBLE_EQ(v.bound, 14.5);
  EXPECT_DOUBLE_EQ(v.actual, 14.0);
}

TEST(BenchGate, Equals) {
  EXPECT_TRUE(full_run({.metric = "capacity@registry", .op = "==", .limit = 1024.0}).pass);
  EXPECT_FALSE(full_run({.metric = "capacity@registry", .op = "==", .limit = 1023.0}).pass);
}

TEST(BenchGate, MissingRowIsUnmeasuredAndFails) {
  const Verdict v = full_run({.metric = "aware@gone", .op = ">=", .limit = 1.0});
  EXPECT_FALSE(v.measured);
  EXPECT_FALSE(v.pass);
  EXPECT_FALSE(full_run({.metric = "aware@bw", .op = ">=", .ref = "blind@gone"}).measured);
}

TEST(BenchGate, AlwaysIsEnforcedEverywhere) {
  const Gate pass{.metric = "aware@bw", .op = ">=", .limit = 14.0};
  const Gate fail{.metric = "aware@bw", .op = ">=", .limit = 15.0};
  for (const bool quick : {false, true}) {
    for (const bool sanitized : {false, true}) {
      EXPECT_TRUE(evaluate(pass, rows(), quick, sanitized).enforced);
      EXPECT_TRUE(evaluate(pass, rows(), quick, sanitized).pass);
      EXPECT_TRUE(evaluate(fail, rows(), quick, sanitized).enforced);
      EXPECT_FALSE(evaluate(fail, rows(), quick, sanitized).pass);
    }
  }
}

TEST(BenchGate, FullIsExemptOnlyInQuickRuns) {
  const Gate pass{.metric = "aware@bw", .op = "<=", .limit = 14.0, .enforce = Enforce::kFull};
  const Gate fail{.metric = "aware@bw", .op = "<=", .limit = 13.0, .enforce = Enforce::kFull};
  EXPECT_TRUE(evaluate(pass, rows(), false, false).pass);
  EXPECT_FALSE(evaluate(fail, rows(), false, false).pass);
  EXPECT_TRUE(evaluate(fail, rows(), false, false).enforced);
  EXPECT_TRUE(evaluate(fail, rows(), false, true).enforced);
  EXPECT_FALSE(evaluate(fail, rows(), true, false).enforced);
}

TEST(BenchGate, FullUnsanitizedIsExemptInQuickAndSanitizedRuns) {
  const Gate pass{.metric = "aware@bw", .op = "<=", .limit = 14.0,
                  .enforce = Enforce::kFullUnsanitized};
  const Gate fail{.metric = "aware@bw", .op = "<=", .limit = 13.0,
                  .enforce = Enforce::kFullUnsanitized};
  EXPECT_TRUE(evaluate(pass, rows(), false, false).pass);
  EXPECT_FALSE(evaluate(fail, rows(), false, false).pass);
  EXPECT_TRUE(evaluate(fail, rows(), false, false).enforced);
  EXPECT_FALSE(evaluate(fail, rows(), false, true).enforced);
  EXPECT_FALSE(evaluate(fail, rows(), true, false).enforced);
}

}  // namespace
}  // namespace numashare::bench
