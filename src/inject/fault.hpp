// Deterministic fault injection for the daemon/agent coordination path.
//
// The paper's architecture only works if the arbiter is strictly advisory:
// applications must degrade, never wedge, when the agent dies, stalls, or
// floods the rings. The happy-path tests cannot reach most failure
// interleavings (a client dying between two slot-claim CAS states, a
// command dropped mid-reallocation, a heartbeat stalling just under the
// eviction threshold) — this subsystem makes them reachable on purpose and
// on schedule.
//
// A FaultPlan is a list of rules parsed from a compact spec string:
//
//   "shm.cmd.drop@seq=7;client.die@site=post_claim"
//
// Each rule names a *site* (a dotted path baked into the coordination code)
// plus match/behaviour parameters. The plan is process-global: tests
// install it (in the parent before forking, or in a forked child for
// client-only faults) and the hooks consult it.
//
// Hooks are compiled into every build. They stay inert until a plan is
// installed: each entry point below first reads one atomic "armed" flag
// (one load and a not-taken branch) and only takes the plan mutex
// while a non-empty plan is armed. Production and tests therefore run the
// very same objects.
//
// Site catalog and grammar: docs/INJECT.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace numashare::inject {

/// Sentinel: rule matches any message sequence number.
inline constexpr std::uint64_t kAnySeq = ~0ull;

struct FaultRule {
  std::string site;   ///< dotted site path, e.g. "shm.cmd.drop"
  std::string where;  ///< named sub-site ("post_claim", "claiming"); empty = any
  std::uint64_t seq = kAnySeq;  ///< match one message seq (kAnySeq = all)
  std::uint64_t count = 1;      ///< fire at most this many times (0 = unlimited)
  std::uint64_t after = 0;      ///< skip the first N matching hits
  std::int64_t delay_us = 0;    ///< sleep duration for *.pause sites
  std::uint64_t ticks = 1;      ///< ops to hold a message for *.delay sites
  int exit_code = -1;           ///< _exit code override for *.die sites (< 0 = site default)
  std::uint64_t pct = 100;      ///< magnitude for value sites (foreign.balloon@pct=N)
};

struct FaultPlan {
  std::string spec;  ///< the original text, for failure reproduction messages
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
};

/// Parse a plan spec: clause (';' clause)*, clause = site ['@' k[=v] (',' k[=v])*].
/// Keys: seq, count, after, us, ticks, exit, pct (numeric); site / state (name).
/// Returns nullopt and sets `error` on malformed input, including numbers out
/// of their key's range (seq >= kAnySeq, exit > 255, a us/ms delay past
/// INT64_MAX microseconds, any value past UINT64_MAX).
std::optional<FaultPlan> parse_plan(const std::string& spec, std::string* error = nullptr);

/// Install (replace) the process-global plan. Rule counters reset.
void install_plan(const FaultPlan& plan);
/// parse_plan + install_plan in one step.
bool install_spec(const std::string& spec, std::string* error = nullptr);
/// Remove the plan; every hook goes quiet.
void clear_plan();
/// Spec text of the installed plan ("" when none).
std::string active_spec();

/// Cumulative firings of one site since the last install/clear.
std::uint64_t fires(const std::string& site);
/// Cumulative firings across all sites since the last install/clear.
std::uint64_t total_fires();

namespace detail {
/// True while a non-empty plan is installed (set by install_plan, cleared by
/// clear_plan). Held messages only exist while armed: install_plan drops them.
extern std::atomic<bool> armed;

// Mutex-guarded slow paths of the hooks below; called only while armed.
bool fire_armed(const char* site, std::uint64_t seq, const char* where);
bool fire_pause_armed(const char* site, const char* where);
void fire_die_armed(const char* site, const char* where, int default_exit_code);
bool fire_value_armed(const char* site, std::uint64_t* pct, const char* where);
bool hold_armed(const char* site, std::uint64_t seq, const void* bytes, std::size_t len);
void delay_tick_armed(const char* site);
bool take_ready_armed(const char* site, void* out, std::size_t len);
}  // namespace detail

/// True while a non-empty plan is installed. One atomic load, no lock.
inline bool plan_active() { return detail::armed.load(); }

// ---- hooks ---------------------------------------------------------------

/// True when a rule for `site` (matching `where`/`seq`, past its `after`
/// skip, within its `count` budget) fires now. A true return consumes one
/// firing. Thread-safe.
inline bool fire(const char* site, std::uint64_t seq = kAnySeq, const char* where = nullptr) {
  return plan_active() && detail::fire_armed(site, seq, where);
}

/// fire(), and when firing, sleep the rule's delay_us. Returns the firing.
inline bool fire_pause(const char* site, const char* where = nullptr) {
  return plan_active() && detail::fire_pause_armed(site, where);
}

/// fire(), and when firing, _exit() with the rule's exit code (or
/// `default_exit_code` when the rule does not override it).
inline void fire_die(const char* site, const char* where, int default_exit_code) {
  if (plan_active()) detail::fire_die_armed(site, where, default_exit_code);
}

/// fire(), and when firing, write the rule's `pct` magnitude into *pct.
/// Returns the firing; *pct is untouched when the site stays quiet. Used by
/// value sites (foreign.balloon@pct=N) where the rule carries how big the
/// injected effect should be, not just whether it happens.
inline bool fire_value(const char* site, std::uint64_t* pct, const char* where = nullptr) {
  return plan_active() && detail::fire_value_armed(site, pct, where);
}

/// Message hold for *.delay sites: when the rule fires, copy `len` bytes
/// into the pending store and return true (the caller suppresses the send).
inline bool hold(const char* site, std::uint64_t seq, const void* bytes, std::size_t len) {
  return plan_active() && detail::hold_armed(site, seq, bytes, len);
}

/// One transport op elapsed at `site`: age every held message by one tick.
inline void delay_tick(const char* site) {
  if (plan_active()) detail::delay_tick_armed(site);
}

/// Pop one aged-out held message for `site` into `out` (exactly `len`
/// bytes, which must match the held size). False when none is ready.
inline bool take_ready(const char* site, void* out, std::size_t len) {
  return plan_active() && detail::take_ready_armed(site, out, len);
}

}  // namespace numashare::inject
