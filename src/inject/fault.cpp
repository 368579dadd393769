#include "inject/fault.hpp"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "common/format.hpp"

namespace numashare::inject {

std::atomic<bool> detail::armed{false};

namespace {

/// A held message awaiting replay at a *.delay site.
struct HeldMessage {
  std::string site;
  std::vector<unsigned char> bytes;
  std::uint64_t remaining_ticks = 0;
};

/// Mutable per-rule match/fire counters, parallel to the plan's rules.
struct RuleState {
  std::uint64_t matches = 0;
  std::uint64_t fired = 0;
};

struct GlobalState {
  std::mutex mutex;
  FaultPlan plan;
  std::vector<RuleState> rule_states;
  std::vector<std::pair<std::string, std::uint64_t>> fire_counts;
  std::deque<HeldMessage> held;
};

GlobalState& state() {
  static GlobalState instance;
  return instance;
}

void count_fire_locked(GlobalState& g, const char* site) {
  for (auto& [name, n] : g.fire_counts) {
    if (name == site) {
      ++n;
      return;
    }
  }
  g.fire_counts.emplace_back(site, 1);
}

bool rule_matches(const FaultRule& rule, const char* site, std::uint64_t seq,
                  const char* where) {
  if (rule.site != site) return false;
  if (!rule.where.empty() && (where == nullptr || rule.where != where)) return false;
  if (rule.seq != kAnySeq && rule.seq != seq) return false;
  return true;
}

/// Core match-and-consume. Returns the index of the firing rule, or -1.
int fire_locked(GlobalState& g, const char* site, std::uint64_t seq, const char* where) {
  for (std::size_t i = 0; i < g.plan.rules.size(); ++i) {
    const auto& rule = g.plan.rules[i];
    if (!rule_matches(rule, site, seq, where)) continue;
    auto& rs = g.rule_states[i];
    ++rs.matches;
    if (rs.matches <= rule.after) continue;
    if (rule.count != 0 && rs.fired >= rule.count) continue;
    ++rs.fired;
    count_fire_locked(g, site);
    return static_cast<int>(i);
  }
  return -1;
}

/// Decimal digits only, no sign; false on overflow past `max`.
bool parse_u64(const std::string& text, std::uint64_t max, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Largest value a numeric key accepts (0 = not a numeric key). Past it a
/// number would mean something else: a seq equal to kAnySeq, an exit code
/// _exit truncates, a delay overflowing its signed microsecond count.
std::uint64_t numeric_max(const std::string& key) {
  constexpr auto kMaxUs = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (key == "seq") return kAnySeq - 1;
  if (key == "us") return kMaxUs;
  if (key == "ms") return kMaxUs / 1000;
  if (key == "exit") return 255;
  if (key == "count" || key == "after" || key == "ticks" || key == "pct") {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return 0;
}

bool valid_name(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

}  // namespace

std::optional<FaultPlan> parse_plan(const std::string& spec, std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<FaultPlan> {
    if (error) *error = what;
    return std::nullopt;
  };
  FaultPlan plan;
  plan.spec = spec;
  for (const auto& clause : split(spec, ';')) {
    if (clause.empty()) continue;  // tolerate "a;;b" and trailing ';'
    FaultRule rule;
    const auto at = clause.find('@');
    rule.site = clause.substr(0, at);
    if (!valid_name(rule.site)) {
      return fail(ns_format("bad site name '{}' in clause '{}'", rule.site, clause));
    }
    if (at != std::string::npos) {
      for (const auto& param : split(clause.substr(at + 1), ',')) {
        const auto eq = param.find('=');
        const std::string key = param.substr(0, eq);
        const std::string value = eq == std::string::npos ? "" : param.substr(eq + 1);
        std::uint64_t number = 0;
        if (const std::uint64_t max = numeric_max(key)) {
          if (!parse_u64(value, max, &number)) {
            return fail(ns_format("parameter '{}' needs a number in [0, {}] in clause '{}'",
                                  key, max, clause));
          }
        }
        if (key == "seq") rule.seq = number;
        else if (key == "count") rule.count = number;
        else if (key == "after") rule.after = number;
        else if (key == "us") rule.delay_us = static_cast<std::int64_t>(number);
        else if (key == "ms") rule.delay_us = static_cast<std::int64_t>(number) * 1000;
        else if (key == "ticks") rule.ticks = number;
        else if (key == "exit") rule.exit_code = static_cast<int>(number);
        else if (key == "pct") rule.pct = number;
        else if (key == "site" || key == "state") {
          if (!valid_name(value)) {
            return fail(ns_format("parameter '{}' needs a name in clause '{}'", key, clause));
          }
          rule.where = value;
        } else {
          return fail(ns_format("unknown parameter '{}' in clause '{}'", key, clause));
        }
      }
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

void install_plan(const FaultPlan& plan) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  g.plan = plan;
  g.rule_states.assign(g.plan.rules.size(), RuleState{});
  g.fire_counts.clear();
  g.held.clear();
  detail::armed.store(!g.plan.rules.empty());
}

bool install_spec(const std::string& spec, std::string* error) {
  const auto plan = parse_plan(spec, error);
  if (!plan) return false;
  install_plan(*plan);
  return true;
}

void clear_plan() { install_plan(FaultPlan{}); }

std::string active_spec() {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  return g.plan.spec;
}

std::uint64_t fires(const std::string& site) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  for (const auto& [name, n] : g.fire_counts) {
    if (name == site) return n;
  }
  return 0;
}

std::uint64_t total_fires() {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  std::uint64_t total = 0;
  for (const auto& [name, n] : g.fire_counts) total += n;
  return total;
}

bool detail::fire_armed(const char* site, std::uint64_t seq, const char* where) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  if (g.plan.rules.empty()) return false;
  return fire_locked(g, site, seq, where) >= 0;
}

bool detail::fire_pause_armed(const char* site, const char* where) {
  std::int64_t delay_us = 0;
  {
    auto& g = state();
    std::lock_guard lock(g.mutex);
    if (g.plan.rules.empty()) return false;
    const int index = fire_locked(g, site, kAnySeq, where);
    if (index < 0) return false;
    delay_us = g.plan.rules[static_cast<std::size_t>(index)].delay_us;
  }
  // Sleep outside the lock: other threads' hooks must stay live while this
  // one stalls (that is the whole point of a pause fault).
  if (delay_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  return true;
}

bool detail::fire_value_armed(const char* site, std::uint64_t* pct, const char* where) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  if (g.plan.rules.empty()) return false;
  const int index = fire_locked(g, site, kAnySeq, where);
  if (index < 0) return false;
  if (pct) *pct = g.plan.rules[static_cast<std::size_t>(index)].pct;
  return true;
}

void detail::fire_die_armed(const char* site, const char* where, int default_exit_code) {
  int code = -1;
  {
    auto& g = state();
    std::lock_guard lock(g.mutex);
    if (g.plan.rules.empty()) return;
    const int index = fire_locked(g, site, kAnySeq, where);
    if (index < 0) return;
    const int override_code = g.plan.rules[static_cast<std::size_t>(index)].exit_code;
    code = override_code >= 0 ? override_code : default_exit_code;
  }
  // _exit, not exit: a simulated crash must not run destructors (a real
  // SIGKILL would not), so shm segments and slots are left exactly as a
  // genuine death would leave them.
  _exit(code);
}

bool detail::hold_armed(const char* site, std::uint64_t seq, const void* bytes,
                        std::size_t len) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  if (g.plan.rules.empty()) return false;
  const int index = fire_locked(g, site, seq, nullptr);
  if (index < 0) return false;
  HeldMessage held;
  held.site = site;
  held.bytes.assign(static_cast<const unsigned char*>(bytes),
                    static_cast<const unsigned char*>(bytes) + len);
  held.remaining_ticks = g.plan.rules[static_cast<std::size_t>(index)].ticks;
  g.held.push_back(std::move(held));
  return true;
}

void detail::delay_tick_armed(const char* site) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  for (auto& held : g.held) {
    if (held.site == site && held.remaining_ticks > 0) --held.remaining_ticks;
  }
}

bool detail::take_ready_armed(const char* site, void* out, std::size_t len) {
  auto& g = state();
  std::lock_guard lock(g.mutex);
  for (auto it = g.held.begin(); it != g.held.end(); ++it) {
    if (it->site != site || it->remaining_ticks > 0) continue;
    if (it->bytes.size() != len) continue;  // size mismatch: not ours to pop
    std::memcpy(out, it->bytes.data(), len);
    g.held.erase(it);
    return true;
  }
  return false;
}

}  // namespace numashare::inject
