// nsbench — the end-to-end benchmark driver (README.md in this directory).
//
// Runs the production arbitration stack in one process through public entry
// points only: nsd::Daemon with a plain agent::ModelGuidedPolicy, registry
// slot claims, per-client agent::ShmChannel segments and, in task_dag, a real
// rt::Runtime behind an agent::RuntimeAdapter. Load comes from this one
// thread; the control workloads start no background thread at all (no
// Daemon::start, no heartbeat thread, no adapter thread) and step
// Daemon::tick on a virtual clock at the shipping 10 ms period, so the
// decision sequence is a pure function of --seed and only durations are
// wall-clock.
//
//   nsbench --workload task_dag|join_churn|fleet_steady --seed N --seconds S
//           [--trace 0|1] [--work-dir DIR]
//
// --seconds sizes a fixed, seeded amount of work (see Workload), so the same
// --seed and --seconds give the same inputs and decisions on any host.
//
// The last line on stdout is one JSON object: correct/attempted/failed plus
// every metric this run measured ({"value", "unit"}). A human-readable
// report, with the percentile and sample count behind each *_tail metric,
// goes to stderr. Exit status is non-zero when any output check failed.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/channel.hpp"
#include "agent/policies.hpp"
#include "agent/shm_channel.hpp"
#include "common/logging.hpp"
#include "core/optimizer.hpp"
#include "daemon/daemon.hpp"
#include "daemon/registry.hpp"
#include "runtime/runtime.hpp"
#include "sim/effects.hpp"
#include "sim/simulator.hpp"
#include "topology/machine.hpp"
#include "topology/presets.hpp"

using namespace numashare;

namespace {

constexpr double kPeriodS = 0.010;          // Daemon's shipping tick period
constexpr std::uint32_t kMaxEventPeriods = 40;  // an event not enacted by then fails
constexpr double kSimSeconds = 0.02;        // alloc_gflops simulation length
constexpr int kSetups = 21;                 // setups per run; setup_s is their median

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// The benchmark's own generator (splitmix64): inputs must not change when
/// the program's RNG does.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }
  std::uint32_t between(std::uint32_t lo, std::uint32_t hi) { return lo + below(hi - lo + 1); }
};

std::uint64_t mix64(std::uint64_t x) {
  Rng r{x};
  return r.next();
}

// ---------------------------------------------------------------- samples

/// Timing samples. Past kCapacity the values are a uniform reservoir over
/// everything added, so memory (and peak RSS) does not grow with speed.
struct Samples {
  static constexpr std::size_t kCapacity = 1u << 16;
  std::vector<double> values;
  std::uint64_t added = 0;
  bool sorted = false;
  Rng reservoir{0x5a3b1e5};

  void add(double v) {
    ++added;
    sorted = false;
    if (values.size() < kCapacity) {
      values.push_back(v);
    } else if (const std::uint64_t slot = reservoir.next() % added; slot < kCapacity) {
      values[slot] = v;
    }
  }
  /// How many samples were taken (the reservoir may hold fewer).
  std::size_t size() const { return static_cast<std::size_t>(added); }
  /// Nearest-rank percentile, p in (0, 100].
  double pct(double p) {
    if (values.empty()) return 0.0;
    if (!sorted) {
      std::sort(values.begin(), values.end());
      sorted = true;
    }
    const auto n = values.size();
    // Rank within the reservoir.
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return values[rank - 1];
  }
  double median() { return pct(50.0); }
  double mean() const {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  }
};

/// "_tail" = the highest ladder percentile up to `top` with at least ten
/// samples beyond it (falls back to the median when the run is too short).
/// Batches and reallocations stop at p95: on a 4-vCPU shared VM the p99 of
/// a 0.3 ms fork-join batch (four workers plus this thread) measures guest
/// scheduling and moved by a quarter between quiet runs; p95 moved by under
/// a tenth. Ticks go to p99 (kTickTailTop).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_of(Samples& s, double top) {
  static constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
  Tail t;
  t.samples = s.size();
  for (double p : kLadder) {
    if (p > top) continue;
    const auto n = s.size();
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10 || p == 50.0) {
      t.percentile = p;
      t.value = s.pct(p);
      t.beyond = n > rank ? n - rank : 0;
      return t;
    }
  }
  return t;
}

/// Ticks that send commands are 2-6% of all ticks and cost 50x an idle one,
/// so a p95 falls on the edge between the two and jumps with the seed's
/// share of decisions; p99 lies inside the deciding ticks.
constexpr double kTickTailTop = 99.0;

/// End-to-end timing samples, each tagged with the slice of the measured run
/// it fell in (see Window::end_slice).
struct Series {
  struct Entry {
    std::uint32_t slice;
    float value;
  };
  std::vector<Entry> entries;

  void add(std::uint32_t slice, double v) { entries.push_back({slice, static_cast<float>(v)}); }
  std::size_t size() const { return entries.size(); }
  /// Every sample scaled by its slice's factor.
  Samples scaled(const std::vector<double>& factor) const {
    Samples s;
    for (const auto& e : entries) s.add(static_cast<double>(e.value) * factor[e.slice]);
    return s;
  }
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder around every call the driver makes into a layer.
/// A span has a name, start, end, parent and request id (batch or event);
/// self time = duration minus the time covered by child spans. Durations are
/// aggregated per name and the first kStored spans are written out at exit.
class Tracer {
 public:
  bool on() const { return on_; }
  /// Recording starts with the measured window (off during setup/priming).
  void set_on(bool on) { on_ = on; }

  void open(const char* name, std::uint64_t request) {
    if (!on_) return;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back(Frame{name, request, ++next_id_, parent, wall_ns(), 0});
  }

  /// Closes the innermost span.
  void close() {
    if (!on_) return;
    const std::uint64_t end = wall_ns();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t duration = end - frame.start;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    Aggregate& agg = aggregate(frame.name);
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - std::min(duration, frame.child_ns);
    agg.durations.add(static_cast<double>(duration));
    if (stored_.size() < kStored) {
      stored_.push_back(
          Stored{frame.name, frame.request, frame.id, frame.parent, frame.start, end});
    } else {
      ++dropped_;
    }
  }

  /// Median duration of the named span in ns (0 when never recorded).
  double median_ns(const char* name) {
    for (auto& agg : aggregates_) {
      if (std::strcmp(agg.name, name) == 0) return agg.durations.median();
    }
    return 0.0;
  }
  std::uint64_t spans() const { return next_id_; }

  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\"kind\":\"meta\",\"spans\":%" PRIu64 ",\"stored\":%zu,"
                 "\"dropped\":%" PRIu64 "}\n",
                 next_id_, stored_.size(), dropped_);
    for (const auto& s : stored_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"req\":%" PRIu64 ",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                   s.name, s.id, s.parent, s.request, s.start, s.end);
    }
    std::fclose(f);
  }

  void report(std::FILE* out) const {
    if (!on_) return;
    std::fprintf(out, "  %-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& agg : aggregates_) {
      std::fprintf(out, "  %-28s %10" PRIu64 " %12.3f %12.3f\n", agg.name, agg.count,
                   static_cast<double>(agg.total_ns) / 1e6,
                   static_cast<double>(agg.self_ns) / 1e6);
    }
  }

 private:
  static constexpr std::size_t kStored = 100'000;
  struct Frame {
    const char* name;
    std::uint64_t request;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  struct Stored {
    const char* name;
    std::uint64_t request, id, parent, start, end;
  };
  struct Aggregate {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    Samples durations;
  };

  bool on_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Stored> stored_;
  /// Span names are string literals: look them up by address, in the
  /// order first seen (a handful of names; a map keyed by std::string cost
  /// more than the calls being timed).
  Aggregate& aggregate(const char* name) {
    for (auto& agg : aggregates_) {
      if (agg.name == name) return agg;
    }
    aggregates_.emplace_back();
    aggregates_.back().name = name;
    return aggregates_.back();
  }

  std::vector<Aggregate> aggregates_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request) : tracer_(tracer) {
    tracer_.open(name, request);
  }
  ~Span() { tracer_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// ---------------------------------------------------------------- results

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (reasons.size() < 20) reasons.push_back(what);
  }
};

struct Metric {
  double value;
  const char* unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Tail> tails;
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void tail(const std::string& name, Samples& s, const char* unit, double top = 95.0) {
    const Tail t = tail_of(s, top);
    tails[name] = t;
    set(name, t.value, unit);
  }
};

// ---------------------------------------------------------------- clients

/// A simulated client: it speaks the registry and ShmChannel protocol
/// exactly as nsd::DaemonClient + RuntimeAdapter do, but is driven from the
/// benchmark thread (DaemonClient::connect would block on the activation
/// that only our own next tick can perform). It enacts every command at
/// once and acks it in its next telemetry sample.
struct SimClient {
  std::string base;     // unique registry name
  double base_ai = 0.0;  // its phase-independent AI
  double ai = 0.0;       // arithmetic intensity it publishes now
  std::uint32_t slot = nsd::kMaxClients;
  std::uint64_t joining_word = 0;
  std::uint64_t active_word = 0;
  std::unique_ptr<agent::ShmChannel> channel;
  std::string app_name;  // the daemon's name for it (views / compliance_view)
  std::uint64_t telemetry_seq = 0;
  std::uint64_t enacted_epoch = 0;
  std::uint32_t enacted_target = agent::kUnconstrained;
  std::vector<std::uint32_t> node_threads;  // the newest allocation received
  std::uint64_t claim_ns = 0;     // when it claimed its slot (admission start)
  std::uint64_t leave_ns = 0;     // when it published kLeaving (retirement start)
  std::uint64_t leaving_word = 0;
  bool active() const { return channel != nullptr; }
};

/// One recorded decision: everything an out-of-band replay of the search
/// needs, captured when the tick that issued it returned.
struct Decision {
  std::vector<double> ai;
  std::vector<std::uint32_t> caps;
  model::Allocation allocation;
  bool full = false;
};

double ai_of(const agent::AppView& view) {
  return view.has_telemetry ? view.latest.ai_estimate : 0.0;
}

// ---------------------------------------------------------------- harness

/// The daemon plus the client side of the registry, built once per setup.
/// Names are unique per process and instance so back-to-back runs never
/// collide; the destructor unlinks every segment and the journal.
class Harness {
 public:
  Harness(const Options& options, Tracer& tracer, topo::Machine machine, int instance,
          bool virtual_clock)
      : tracer_(tracer), machine_(std::move(machine)), virtual_clock_(virtual_clock) {
    const auto pid = static_cast<unsigned>(::getpid());
    registry_name_ = "/nsb-" + std::to_string(pid) + "-" + std::to_string(instance);
    journal_path_ = options.work_dir + "/nsb-" + std::to_string(pid) + "-" +
                    std::to_string(instance) + ".jsonl";
  }

  ~Harness() {
    clients_.clear();
    registry_.reset();
    daemon_.reset();  // shutdown: retires every client, unlinks channels + registry
    agent::cleanup_stale_segments(registry_name_);
    std::remove(journal_path_.c_str());
    std::remove((journal_path_ + ".1").c_str());
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool init(std::string* error) {
    std::remove(journal_path_.c_str());
    std::remove((journal_path_ + ".1").c_str());
    auto policy = std::make_unique<agent::ModelGuidedPolicy>();
    nsd::DaemonOptions daemon_options;
    daemon_options.registry_name = registry_name_;
    daemon_options.journal_path = journal_path_;
    daemon_ = std::make_unique<nsd::Daemon>(machine_, std::move(policy), daemon_options);
    if (!daemon_->init(error)) return false;
    auto& wrapper =
        dynamic_cast<nsd::AdvertisedAiPolicy&>(daemon_->arbitration_agent().policy());
    model_ = &dynamic_cast<agent::ModelGuidedPolicy&>(wrapper.inner());
    registry_ = nsd::Registry::open(registry_name_, error);
    return registry_ != nullptr;
  }

  nsd::Daemon& daemon() { return *daemon_; }
  agent::ModelGuidedPolicy& model() { return *model_; }
  const topo::Machine& machine() const { return machine_; }
  nsd::Registry& registry() { return *registry_; }
  double now() const { return virtual_clock_ ? virtual_now_ : monotonic_seconds(); }

  /// One Daemon::tick, timed. Records the wall duration into the tick
  /// samples (split by whether the tick sent commands) when measuring.
  std::uint32_t tick(std::uint64_t request) {
    if (virtual_clock_) virtual_now_ += kPeriodS;
    const double now_s = now();
    tracer_.open("daemon.tick", request);
    const std::uint64_t t0 = wall_ns();
    const std::uint32_t sent = daemon_->tick(now_s);
    const std::uint64_t t1 = wall_ns();
    tracer_.close();
    last_tick_end_ns_ = t1;
    // Retirement completes on the tick that frees the leaver's slot.
    for (std::size_t i = 0; i < leaving_.size();) {
      SimClient* c = leaving_[i];
      const auto word = registry_->slot(c->slot).state_word.load(std::memory_order_acquire);
      if (word == c->leaving_word) {
        ++i;
        continue;
      }
      if (measuring) retire_us.add(static_cast<double>(t1 - c->leave_ns) / 1e3);
      leaving_.erase(leaving_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (tracer_.on() && ++journal_polls_ % 64 == 0) {
      // Journal growth, polled every 64 ticks (fewer than the 4096 lines
      // that trigger a rotation); a rotation restarts the file, so after
      // one count the new file whole.
      const std::uint64_t size = journal_size();
      journal_bytes += size >= journal_seen_ ? size - journal_seen_ : size;
      journal_seen_ = size;
    }
    if (measuring) {
      const double us = static_cast<double>(t1 - t0) / 1e3;
      ticks.add(slice, us);
      (sent > 0 ? ticks_decide : ticks_idle).add(us);
    }
    if (sent > 0) record_decision();
    return sent;
  }

  // --- client protocol (registry + ShmChannel), each call one span.

  SimClient& add_client(const std::string& base, double ai) {
    clients_.push_back(std::make_unique<SimClient>());
    clients_.back()->base = base;
    clients_.back()->base_ai = ai;
    clients_.back()->ai = ai;
    return *clients_.back();
  }

  bool claim(SimClient& c, std::uint64_t request) {
    Span span(tracer_, "registry.claim", request);
    c.claim_ns = wall_ns();
    // Advertise no AI: the joiner is admitted on one tick and decided on
    // the next, after its first telemetry sample (as a RuntimeAdapter client
    // deriving its AI does), so admission and search are separate ticks.
    const auto claim = registry_->claim_slot(c.base, 0.0, agent::kMaxNodes);
    if (!claim) return false;
    c.slot = claim->index;
    c.joining_word = claim->joining_word;
    return true;
  }

  /// After a tick: has the daemon activated our claim? Then attach.
  bool try_activate(SimClient& c, std::uint64_t request) {
    if (c.active() || c.slot >= nsd::kMaxClients) return c.active();
    auto& slot = registry_->slot(c.slot);
    const std::uint64_t activated = nsd::next_word(c.joining_word, nsd::SlotState::kActive);
    if (slot.state_word.load(std::memory_order_acquire) != activated) return false;
    Span span(tracer_, "client.attach", request);
    const std::string channel_name(slot.channel_name,
                                   strnlen(slot.channel_name, sizeof(slot.channel_name)));
    c.channel = agent::ShmChannel::attach(channel_name);
    if (c.channel == nullptr) return false;
    c.active_word = activated;
    if (measuring) admit_us.add(static_cast<double>(last_tick_end_ns_ - c.claim_ns) / 1e3);
    const std::string prefix = c.base + "#" + std::to_string(c.slot) + ".";
    for (const auto& view : daemon_->arbitration_agent().views()) {
      if (view.name.compare(0, prefix.size(), prefix) == 0) c.app_name = view.name;
    }
    return true;
  }

  /// The client's per-period duties: apply commands, publish telemetry
  /// (carrying the ack), heartbeat.
  void service(SimClient& c, double ai, std::uint64_t request) {
    if (!c.active()) return;
    for (;;) {
      std::optional<agent::Command> command;
      {
        Span span(tracer_, "agent.shm_pop_command", request);
        command = c.channel->pop_command();
      }
      if (!command) break;
      if (command->type == agent::CommandType::kSetNodeThreads) {
        c.node_threads.assign(command->node_threads,
                              command->node_threads + command->node_count);
        std::uint32_t total = 0;
        for (auto t : c.node_threads) total += t;
        if (command->epoch > c.enacted_epoch) {
          c.enacted_epoch = command->epoch;
          c.enacted_target = total;
        }
      }
    }
    agent::Telemetry t;
    t.seq = ++c.telemetry_seq;
    t.timestamp = now();
    t.ai_estimate = ai;
    t.node_count = machine_.node_count();
    std::uint32_t running = 0;
    for (std::size_t n = 0; n < c.node_threads.size() && n < agent::kMaxNodes; ++n) {
      t.running_per_node[n] = c.node_threads[n];
      running += c.node_threads[n];
    }
    t.running_threads = running;
    t.total_workers = machine_.core_count();
    t.enacted_epoch = c.enacted_epoch;
    t.enacted_target = c.enacted_target;
    {
      Span span(tracer_, "agent.shm_push_telemetry", request);
      c.channel->push_telemetry(t);
    }
    heartbeat(c.slot);
  }

  void heartbeat(std::uint32_t slot) {
    registry_->slot(slot).heartbeat.fetch_add(1, std::memory_order_relaxed);
  }

  void leave(SimClient& c, std::uint64_t request) {
    if (!c.active()) return;
    Span span(tracer_, "client.leave", request);
    std::uint64_t expected = c.active_word;
    c.leave_ns = wall_ns();
    if (registry_->slot(c.slot).try_transition(expected, nsd::SlotState::kLeaving)) {
      nsd::raise_attention(registry_->header(), c.slot);
      c.leaving_word = expected;
      leaving_.push_back(&c);
    }
    drops_ += c.channel->commands_dropped() + c.channel->telemetry_dropped();
    c.channel.reset();
  }

  /// Every admitted client has acked the newest epoch it was commanded, as
  /// the daemon's compliance watchdog mirrors it into the registry slots.
  bool all_enacted(const std::vector<std::uint32_t>& slots) const {
    for (auto index : slots) {
      const auto& slot = registry_->slot(index);
      const auto commanded = slot.commanded_epoch.load(std::memory_order_relaxed);
      if (commanded == 0 || slot.enacted_epoch.load(std::memory_order_relaxed) < commanded) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t channel_drops() const {
    std::uint64_t drops = drops_;
    for (const auto& c : clients_) {
      if (c->active()) {
        drops += c->channel->commands_dropped() + c->channel->telemetry_dropped();
      }
    }
    return drops;
  }

  /// Journal growth is counted from here on (traced runs).
  void reset_journal_bytes() {
    journal_bytes = 0;
    journal_seen_ = journal_size();
  }

  std::uint64_t journal_size() const {
    struct stat st {};
    if (::stat(journal_path_.c_str(), &st) != 0) return 0;
    return static_cast<std::uint64_t>(st.st_size);
  }

  bool measuring = false;
  std::uint32_t slice = 0;  // the measured run's current slice
  Series ticks;             // µs
  Samples ticks_idle, ticks_decide;  // µs
  Samples admit_us;   // claim -> the tick that activated the slot returned
  Samples retire_us;  // kLeaving published -> the tick that freed the slot returned
  std::uint64_t journal_bytes = 0;  // appended while tracing
  std::vector<Decision> decisions;

 private:
  void record_decision() {
    Decision d;
    const auto& views = daemon_->arbitration_agent().views();
    bool capped = false;
    for (const auto& view : views) {
      d.ai.push_back(ai_of(view));
      d.caps.push_back(view.thread_cap);
      capped = capped || view.thread_cap != 0xffffffffu;
    }
    if (!capped) d.caps.clear();
    if (model_->last_allocation()) d.allocation = *model_->last_allocation();
    d.full = model_->last_search_kind() == agent::ModelGuidedPolicy::SearchKind::kFull;
    decisions.push_back(std::move(d));
  }

  Tracer& tracer_;
  topo::Machine machine_;
  bool virtual_clock_;
  double virtual_now_ = 1.0;
  std::string registry_name_;
  std::string journal_path_;
  std::unique_ptr<nsd::Daemon> daemon_;
  agent::ModelGuidedPolicy* model_ = nullptr;
  std::unique_ptr<nsd::Registry> registry_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  std::vector<SimClient*> leaving_;
  std::uint64_t drops_ = 0;
  std::uint64_t last_tick_end_ns_ = 0;
  std::uint64_t journal_seen_ = 0;
  std::uint64_t journal_polls_ = 0;
};

// ---------------------------------------------------------------- checks

std::vector<model::AppSpec> specs_for(const std::vector<double>& ai) {
  std::vector<model::AppSpec> specs;
  for (std::size_t a = 0; a < ai.size(); ++a) {
    specs.push_back(model::AppSpec::numa_perfect("app" + std::to_string(a), ai[a]));
  }
  return specs;
}

/// Out-of-band work after an event completed: verify the allocation every
/// client received, score it in the simulator, and (traced runs) replay the
/// search on the decision's exact inputs. Never inside a timed interval.
struct Checker {
  Harness& h;
  Failures& failures;
  Tracer& tracer;
  std::uint64_t sim_seed;   // the simulator's bandwidth jitter, from --seed
  Samples gflops;           // alloc_gflops per completed reallocation
  Samples candidates;       // count_candidates per decision
  std::uint64_t full_searches = 0;
  Samples search_ms, evaluated_ratio, bound_solves;

  /// `received[a]` = node_threads the client in agent view order a holds.
  void allocation(const std::vector<std::vector<std::uint32_t>>& received,
                  const std::vector<double>& ai, std::uint64_t event) {
    const auto& machine = h.machine();
    const auto& last = h.model().last_allocation();
    bool ok = last.has_value() && last->app_count() == received.size();
    std::vector<std::uint32_t> node_load(machine.node_count(), 0);
    model::Allocation alloc(static_cast<std::uint32_t>(received.size()), machine.node_count());
    for (std::size_t a = 0; ok && a < received.size(); ++a) {
      ok = received[a].size() == machine.node_count();
      std::uint32_t total = 0;
      for (topo::NodeId n = 0; ok && n < machine.node_count(); ++n) {
        alloc.set_threads(static_cast<model::AppId>(a), n, received[a][n]);
        node_load[n] += received[a][n];
        total += received[a][n];
      }
      ok = ok && total >= 1;
    }
    for (topo::NodeId n = 0; ok && n < machine.node_count(); ++n) {
      ok = node_load[n] <= machine.cores_in_node(n);
    }
    ok = ok && alloc == *last;
    failures.check(ok, "event " + std::to_string(event) +
                           ": received allocation is not the policy's valid last allocation");
    if (!ok) return;
    Span span(tracer, "sim.simulate", event);
    const auto m = sim::simulate_scenario(machine, specs_for(ai), alloc, sim::SimEffects{},
                                          kSimSeconds, sim_seed);
    gflops.add(m.total_gflops);
  }

  void decisions(std::uint64_t event) {
    for (auto& d : h.decisions) {
      const auto apps = static_cast<std::uint32_t>(d.ai.size());
      const auto count = model::count_candidates(h.machine(), apps, /*require_full=*/true,
                                                 /*min_threads_per_app=*/1);
      candidates.add(static_cast<double>(count));
      if (d.full) ++full_searches;
      if (!tracer.on()) continue;
      tracer.open("core.replay_search", event);
      const std::uint64_t t0 = wall_ns();
      const auto result = model::exhaustive_search(h.machine(), specs_for(d.ai),
                                                   model::Objective::kTotalGflops, true, 1,
                                                   d.caps);
      const std::uint64_t t1 = wall_ns();
      tracer.close();
      search_ms.add(static_cast<double>(t1 - t0) / 1e6);
      evaluated_ratio.add(count == 0 ? 0.0
                                     : static_cast<double>(result.evaluated) /
                                           static_cast<double>(count));
      bound_solves.add(static_cast<double>(result.bound_solves));
      failures.check(!d.full || result.allocation == d.allocation,
                     "event " + std::to_string(event) + ": replayed search disagrees");
    }
    h.decisions.clear();
  }
};

// ---------------------------------------------------------------- AI mix

/// Memory-bound-heavy AI mix (FLOP/byte): mostly 1/64..1/8, one app in
/// five compute-bound at 1 (AIs >= 0.25 tie every candidate at the compute
/// peak on the Skylake preset and prune nothing). Workloads draw seeded
/// permutations of this fixed multiset, so every seed sees the same mix.
constexpr double kAiMix[] = {1.0 / 64, 1.0 / 64, 1.0 / 32, 1.0 / 32, 1.0 / 16,
                             1.0 / 16, 1.0 / 8,  1.0 / 8,  1.0,      1.0};
constexpr std::size_t kAiMixSize = sizeof(kAiMix) / sizeof(kAiMix[0]);

std::vector<double> shuffled_mix(Rng& rng, std::size_t count) {
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = kAiMix[i % kAiMixSize];
  for (std::size_t i = count; i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(static_cast<std::uint32_t>(i))]);
  }
  return out;
}

/// A phase flip across the 10% drift gate: an app toggles between its base
/// AI and half of it (double for the smallest), so the mix stays put.
double flipped(double base) { return base <= 1.0 / 64 ? base * 2.0 : base / 2.0; }

// ---------------------------------------------------------------- workloads

/// Host speed, measured next to the control workloads. The VM's host is
/// shared, and other tenants slow this VM's cores by up to 1.8x, in bursts
/// of 0.1 s to over 20 s: across four 20 s fleet_steady runs the tick
/// median went from 1.14 to 1.81 us, and within one run the median of a
/// 0.1 s slice from 1.17 to 2.14 us. No run is long enough to average that
/// out. So the control workloads run a fixed kernel (xorshift steps and
/// atomic adds on a private line, nothing the program touches) every
/// kEveryNs, out of band, and their end-to-end timings are scaled by
/// kNominalNs / the kernel's median time in the same slice: times on a host
/// where the kernel takes kNominalNs. Per slice, the log of the kernel's
/// time and of the tick median correlated at 0.93; the scaling cut the
/// spread of fleet_steady's tick median across those runs from 0.43 to 0.12
/// (IQR/median). task_dag is not scaled: its runtime's idle workers share
/// the cores with this thread, so the kernel would time them too.
class HostProbe {
 public:
  static constexpr double kNominalNs = 12'000.0;  // the kernel on a quiet host

  /// Runs the kernel if kEveryNs passed since it last ran; returns the ns
  /// it took (0 when it did not run).
  std::uint64_t sample(std::uint32_t slice) {
    if (wall_ns() - last_ns_ < kEveryNs) return 0;
    const std::uint64_t ns = time_kernel();
    last_ns_ = wall_ns();
    times_.push_back({slice, static_cast<float>(ns)});
    return ns;
  }

  /// Runs the kernel once; returns the ns it took.
  std::uint64_t time_kernel() {
    const std::uint64_t t0 = wall_ns();
    std::uint64_t x = t0 | 1;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      counter_.fetch_add(x & 1, std::memory_order_relaxed);
    }
    sink_ = x;
    return wall_ns() - t0;
  }

  /// kNominalNs / the kernel's median time, per slice (a slice it never
  /// ran in takes the run's median).
  std::vector<double> factors(std::size_t slices) const {
    std::vector<Samples> per(slices);
    Samples all;
    for (const auto& t : times_) {
      if (t.slice < slices) per[t.slice].add(t.value);
      all.add(t.value);
    }
    std::vector<double> out(slices, 1.0);
    for (std::size_t i = 0; i < slices; ++i) {
      const double ns = per[i].size() > 0 ? per[i].median() : all.median();
      if (ns > 0) out[i] = kNominalNs / ns;
    }
    return out;
  }

  double median_ns() const {
    Samples all;
    for (const auto& t : times_) all.add(t.value);
    return all.median();
  }

 private:
  static constexpr std::uint64_t kEveryNs = 10'000'000;
  static constexpr int kSteps = 2000;
  std::atomic<std::uint64_t> counter_{0};
  std::uint64_t sink_ = 0;
  std::uint64_t last_ns_ = 0;
  std::vector<Series::Entry> times_;
};

/// What one measured run collects besides the harness's own tick samples.
/// The control workloads cut the run into slices of 0.1-0.2 s, the unit the
/// host probe scales by; task_dag's run is one slice.
struct Window {
  struct Slice {
    std::uint64_t work;
    std::uint64_t busy_ns;
  };

  Window(Harness& h, Failures& failures, Tracer& tracer, std::uint64_t sim_seed)
      : checker{h, failures, tracer, sim_seed, {}, {}, 0, {}, {}, {}},
        slice_start_ns_(wall_ns()) {}

  std::uint32_t slice() const { return static_cast<std::uint32_t>(slices.size()); }

  /// Ends the current slice; `work` is what throughput_per_s counts, for
  /// the whole run so far.
  void end_slice(std::uint64_t work) {
    const std::uint64_t now = wall_ns();
    slices.push_back({work - slice_work_, now - slice_start_ns_ - (oob_ns - slice_oob_ns_)});
    slice_start_ns_ = now;
    slice_oob_ns_ = oob_ns;
    slice_work_ = work;
    checker.h.slice = slice();
  }

  /// Control workloads: the host probe, out of band.
  void probe() { oob_ns += host.sample(slice()); }

  Checker checker;
  HostProbe host;
  Series realloc_ms;         // trigger -> enacted, per event
  Series batch_ms;           // a DAG batch (task_dag) or one control period
  std::vector<Slice> slices;
  std::uint64_t tasks = 0;   // task_dag: tasks retired
  std::uint64_t events = 0;  // events enacted
  std::uint64_t oob_ns = 0;  // out-of-band checks and probes, not busy time

 private:
  std::uint64_t slice_start_ns_;
  std::uint64_t slice_oob_ns_ = 0;
  std::uint64_t slice_work_ = 0;
};

/// A workload is set up (timed, several times), primed with a fixed amount
/// of unmeasured work, then runs a fixed, seeded amount of measured work.
/// That amount is sized from --seconds with a constant rate, so the same
/// --seed and --seconds give the same inputs and decisions on any host; the
/// rates make a run take about --seconds on a 4-vCPU x86-64 VM.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool setup(int instance) = 0;
  virtual void teardown() = 0;
  virtual void prime() = 0;
  virtual void run(Window& w) = 0;
  virtual Harness& harness() = 0;
};

std::uint64_t sized(double seconds, double per_second) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(seconds * per_second)));
}

double ms_since(std::uint64_t t0, std::uint64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

/// What join_churn and fleet_steady share: simulated clients on the paper's
/// 4x20 Skylake preset, stepped one 10 ms period at a time, and one control
/// event at a time (the trigger, then periods until every commanded client
/// has enacted it).
class ControlLoop {
 public:
  enum class Kind { kJoin, kLeave, kFlip };

  /// `jitter`: relative AI noise every client adds to each telemetry sample.
  ControlLoop(const Options& options, Tracer& tracer, Failures& failures, double jitter)
      : options_(options), tracer_(tracer), failures_(failures), jitter_(jitter) {}

  /// Daemon init, initial admissions, first decision enacted.
  bool setup(int instance, const std::vector<double>& initial_ai, std::uint64_t jitter_seed) {
    harness_ = std::make_unique<Harness>(options_, tracer_, topo::paper_skylake_machine(),
                                         instance, /*virtual_clock=*/true);
    std::string error;
    if (!harness_->init(&error)) {
      std::fprintf(stderr, "nsbench: daemon init failed: %s\n", error.c_str());
      return false;
    }
    members_.clear();
    next_client_ = 0;
    jitter_rng_ = Rng{jitter_seed};
    for (double ai : initial_ai) {
      SimClient& c = new_client(ai);
      if (!harness_->claim(c, 0)) return false;
      members_.push_back(&c);
    }
    // Admit, first telemetry, decide, ack: a handful of periods.
    for (int p = 0; p < 10; ++p) period(0, nullptr);
    for (auto* c : members_) {
      if (!c->active()) return false;
    }
    if (!harness_->all_enacted(slots())) return false;
    harness_->decisions.clear();
    return true;
  }

  void teardown() { harness_.reset(); }
  Harness& harness() { return *harness_; }
  std::vector<SimClient*>& members() { return members_; }
  SimClient& new_client(double ai) {
    return harness_->add_client("c" + std::to_string(next_client_++), ai);
  }

  /// One 10 ms control period: every member's client duties, then the tick,
  /// then activation of pending joiners. Returns the commands sent. With a
  /// window, the period's wall time is a batch_ms sample.
  std::uint32_t period(std::uint64_t request, Window* w) {
    const std::uint64_t t0 = wall_ns();
    for (auto* c : members_) {
      const double noise = jitter_ * (2.0 * jitter_rng_.uniform() - 1.0);
      harness_->service(*c, c->ai * (1.0 + noise), request);
    }
    const std::uint32_t sent = harness_->tick(request);
    for (auto* c : members_) {
      if (!c->active()) harness_->try_activate(*c, request);
    }
    if (w != nullptr) {
      w->batch_ms.add(w->slice(), ms_since(t0, wall_ns()));
      w->probe();
    }
    return sent;
  }

  /// One event on `subject`. With a window, its latency, the output checks
  /// and the replayed decisions go there (out of band); without one it only
  /// counts towards error_rate.
  void play(Kind kind, SimClient& subject, std::uint64_t event, Window* w) {
    harness_->decisions.clear();
    tracer_.open("event", event);
    const std::uint64_t t0 = wall_ns();
    bool triggered = true;
    switch (kind) {
      case Kind::kJoin:
        triggered = harness_->claim(subject, event);
        members_.push_back(&subject);
        break;
      case Kind::kLeave:
        harness_->leave(subject, event);
        members_.erase(std::find(members_.begin(), members_.end(), &subject));
        break;
      case Kind::kFlip:
        subject.ai = subject.ai == subject.base_ai ? flipped(subject.base_ai) : subject.base_ai;
        break;
    }
    // The clients that must ack: after a leave or a flip the members now
    // admitted; after a join every member, the joiner once it is in.
    const auto survivors = slots();
    bool decided = false;
    bool done = false;
    std::uint64_t t1 = t0;
    for (std::uint32_t p = 0; triggered && p < kMaxEventPeriods && !done; ++p) {
      decided = period(event, w) > 0 || decided;
      if (decided && subject.active() == (kind != Kind::kLeave) &&
          harness_->all_enacted(kind == Kind::kJoin ? slots() : survivors)) {
        t1 = wall_ns();
        done = true;
      }
    }
    tracer_.close();
    ++failures_.attempted;
    failures_.check(triggered && done, "event " + std::to_string(event) +
                                           " not enacted within " +
                                           std::to_string(kMaxEventPeriods) + " periods");
    if (w == nullptr) return;
    const std::uint64_t oob0 = wall_ns();
    if (done) {
      w->realloc_ms.add(w->slice(), ms_since(t0, t1));
      ++w->events;
      verify(w->checker, event);
    }
    w->checker.decisions(event);
    w->oob_ns += wall_ns() - oob0;
  }

 private:
  std::vector<std::uint32_t> slots() const {
    std::vector<std::uint32_t> out;
    for (auto* c : members_) {
      if (c->active()) out.push_back(c->slot);
    }
    return out;
  }

  /// Compliance and allocation checks for the event just completed.
  void verify(Checker& checker, std::uint64_t event) {
    auto& daemon = harness_->daemon();
    const auto& views = daemon.arbitration_agent().views();
    std::vector<std::vector<std::uint32_t>> received(views.size());
    std::vector<double> ai(views.size(), 0.0);
    bool ok = views.size() == members_.size();
    for (auto* c : members_) {
      const auto view = daemon.compliance_view(c->app_name);
      ok = ok && view && view->health == nsd::ClientHealth::kHealthy &&
           view->enacted_epoch == view->commanded_epoch && view->commanded_epoch > 0;
      const auto index = daemon.arbitration_agent().find_app(c->app_name);
      if (index >= views.size()) {
        ok = false;
        continue;
      }
      received[index] = c->node_threads;
      ai[index] = c->ai;  // the phase AI, without telemetry jitter
    }
    failures_.check(ok, "event " + std::to_string(event) + ": compliance view disagrees");
    if (ok) checker.allocation(received, ai, event);
  }

  const Options& options_;
  Tracer& tracer_;
  Failures& failures_;
  double jitter_;
  Rng jitter_rng_{0};
  std::unique_ptr<Harness> harness_;
  std::vector<SimClient*> members_;
  std::uint64_t next_client_ = 0;
};

/// join_churn: membership cycles 2 -> 12 -> 2 with AI phase flips past the
/// drift gate, so every event runs the full model search inline in
/// Daemon::tick.
class JoinChurn final : public Workload {
 public:
  using Kind = ControlLoop::Kind;

  JoinChurn(const Options& options, Tracer& tracer, Failures& failures)
      : loop_(options, tracer, failures, /*jitter=*/0.0),
        rng_{options.seed * 0x9e3779b97f4a7c15ull + 1},
        rounds_(sized(options.seconds, kCyclesPerSecond / kCycles)) {}

  /// Ends with a warm-up: four joiners admitted, decided and retired.
  bool setup(int instance) override {
    if (!loop_.setup(instance, {1.0 / 32, 1.0 / 8}, 0)) return false;
    Rng warmup_rng{0};
    play(warmup_, nullptr, warmup_rng);
    return true;
  }
  void teardown() override { loop_.teardown(); }
  Harness& harness() override { return loop_.harness(); }
  void prime() override { play(plans_[0], nullptr, rng_); }

  /// Whole rounds only: every round plays each cycle of the library once,
  /// in seeded order, so every run covers the same memberships and AIs.
  void run(Window& w) override {
    loop_.harness().measuring = true;
    std::vector<std::size_t> order(plans_.size());
    for (std::uint64_t round = 0; round < rounds_; ++round) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.below(static_cast<std::uint32_t>(i))]);
      }
      for (std::size_t i : order) play(plans_[i], &w, rng_);
    }
    w.end_slice(w.events);
  }


 private:
  static constexpr std::size_t kCycles = 3;       // cycles in the library (one round)
  static constexpr std::uint64_t kSliceEvents = 6;  // about 0.2 s
  static constexpr double kCyclesPerSecond = 0.75;

  /// One membership cycle: grow 2 -> 12 and shrink back (last in, first
  /// out) with three AI flips per half. Flips never come before the first
  /// join or after the last leave, so one of the cycle's joiners is always
  /// there to flip.
  struct CyclePlan {
    std::vector<Kind> events;
    std::vector<double> joiner_ai;         // one per join, from the fixed mix
    std::vector<std::uint32_t> flip_pick;  // one per flip: which joiner
  };

  /// The fixed library of cycles. It comes from a constant seed: the search
  /// cost of one event varies tenfold with the AIs of the members, so runs
  /// with different --seed must replay the same cycles (in a seeded order)
  /// to be comparable at all.
  static std::vector<CyclePlan> make_plans() {
    Rng rng{0xc7c1e5};
    std::vector<CyclePlan> plans(kCycles);
    for (auto& plan : plans) {
      for (Kind kind : {Kind::kJoin, Kind::kLeave}) {
        std::vector<Kind> half(10, kind);
        for (int f = 0; f < 3; ++f) {
          const auto slots = static_cast<std::uint32_t>(half.size());
          const std::uint32_t at = kind == Kind::kJoin ? 1 + rng.below(slots) : rng.below(slots);
          half.insert(half.begin() + at, Kind::kFlip);
        }
        plan.events.insert(plan.events.end(), half.begin(), half.end());
      }
      plan.joiner_ai = shuffled_mix(rng, 10);
      for (int f = 0; f < 6; ++f) plan.flip_pick.push_back(static_cast<std::uint32_t>(rng.next()));
    }
    return plans;
  }

  /// Plays one cycle, with 4-12 idle periods after each event. The gaps are
  /// a seeded permutation of a fixed multiset, so every run has as many
  /// ticks and the tick tail is the same percentile of the same decisions.
  void play(const CyclePlan& plan, Window* w, Rng& rng) {
    auto& members = loop_.members();
    const std::size_t initial = members.size();
    std::vector<std::uint32_t> gaps(plan.events.size());
    for (std::size_t i = 0; i < gaps.size(); ++i) gaps[i] = 4 + static_cast<std::uint32_t>(i % 9);
    for (std::size_t i = gaps.size(); i > 1; --i) {
      std::swap(gaps[i - 1], gaps[rng.below(static_cast<std::uint32_t>(i))]);
    }
    std::size_t joined = 0, flips = 0, next = 0;
    for (Kind kind : plan.events) {
      SimClient* subject = nullptr;
      if (kind == Kind::kJoin) {
        subject = &loop_.new_client(plan.joiner_ai[joined++]);
      } else if (kind == Kind::kLeave) {
        subject = members.back();  // the way down mirrors the way up
      } else {
        // Only this cycle's joiners flip, so every cycle starts from the
        // same membership.
        subject = members[initial + plan.flip_pick[flips++] % (members.size() - initial)];
      }
      loop_.play(kind, *subject, ++event_, w);
      for (std::uint32_t idle = gaps[next++]; idle > 0; --idle) loop_.period(0, w);
      if (w != nullptr && event_ % kSliceEvents == 0) w->end_slice(w->events);
    }
  }

  ControlLoop loop_;
  Rng rng_;
  std::uint64_t rounds_;
  std::vector<CyclePlan> plans_ = make_plans();
  const CyclePlan warmup_{{Kind::kJoin, Kind::kJoin, Kind::kJoin, Kind::kJoin, Kind::kLeave,
                           Kind::kLeave, Kind::kLeave, Kind::kLeave},
                          {1.0 / 64, 1.0 / 16, 1.0 / 8, 1.0},
                          {}};
  std::uint64_t event_ = 0;
};

/// fleet_steady: 20 fixed clients heartbeat and send jittered telemetry
/// every period; now and then one client's AI crosses the drift gate.
class FleetSteady final : public Workload {
 public:
  FleetSteady(const Options& options, Tracer& tracer, Failures& failures)
      : loop_(options, tracer, failures, /*jitter=*/0.04),
        rng_{options.seed * 0x9e3779b97f4a7c15ull + 2},
        events_(sized(options.seconds, kEventsPerSecond)) {}

  /// Ends with a warm-up of kWarmupPeriods periods.
  bool setup(int instance) override {
    Rng mix_rng{rng_.state ^ 0x5e7u};
    if (!loop_.setup(instance, shuffled_mix(mix_rng, 20), rng_.state ^ 0x11773u)) return false;
    for (int p = 0; p < kWarmupPeriods; ++p) loop_.period(0, nullptr);
    return true;
  }
  void teardown() override { loop_.teardown(); }
  Harness& harness() override { return loop_.harness(); }
  void prime() override {
    for (int p = 0; p < kPrimePeriods; ++p) loop_.period(0, nullptr);
  }

  /// Each event: 20-60 quiet periods, then one seeded client flips its AI.
  void run(Window& w) override {
    loop_.harness().measuring = true;
    auto& members = loop_.members();
    for (std::uint64_t event = 1; event <= events_; ++event) {
      for (std::uint32_t quiet = rng_.between(20, 60); quiet > 0; --quiet) loop_.period(0, &w);
      SimClient& subject = *members[rng_.below(static_cast<std::uint32_t>(members.size()))];
      loop_.play(ControlLoop::Kind::kFlip, subject, event, &w);
      if (event % kSliceEvents == 0) w.end_slice(loop_.harness().ticks.size());
    }
    w.end_slice(loop_.harness().ticks.size());
  }


 private:
  static constexpr double kEventsPerSecond = 2500.0;
  static constexpr std::uint64_t kSliceEvents = 250;  // about 0.1 s
  static constexpr int kWarmupPeriods = 200;
  static constexpr int kPrimePeriods = 20'000;

  ControlLoop loop_;
  Rng rng_;
  std::uint64_t events_;
};

// ---------------------------------------------------------------- task_dag

/// Per-worker checksum accumulators (padded: no line shared by workers).
struct alignas(64) PaddedSum {
  std::atomic<std::uint64_t> value{0};
};

/// One seeded batch: `fanout` independent external tasks plus `roots`
/// nested binary fork-join trees of depth `depth`; every task folds a hash
/// of `work` xorshift steps into the checksum.
struct DagBatch {
  std::uint64_t seed = 0;
  std::uint32_t fanout = 0, roots = 0, depth = 0, work = 0;
  std::array<PaddedSum, 8> sums;

  std::uint64_t value(std::uint64_t id) const {
    std::uint64_t x = mix64(seed ^ (id * 0x2545f4914f6cdd1dull)) | 1;
    for (std::uint32_t i = 0; i < work; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  }
  void add(const rt::TaskContext& ctx, std::uint64_t v) {
    const std::uint32_t slot = ctx.worker_id == rt::kExternalWorker ? 7 : ctx.worker_id % 7;
    sums[slot].value.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t tasks() const {
    return fanout + roots * ((2ull << depth) - 1 + (1ull << depth) - 1);
  }
  /// The checksum computed sequentially from the same ids.
  std::uint64_t expected() const {
    std::uint64_t sum = 0;
    for (std::uint32_t f = 0; f < fanout; ++f) sum += value(fan_id(f));
    for (std::uint32_t r = 0; r < roots; ++r) {
      for (std::uint64_t node = 1; node < (2ull << depth); ++node) {
        sum += value(tree_id(r, node));
        if (node < (1ull << depth)) sum += value(tree_id(r, node) ^ kJoinTag);
      }
    }
    return sum;
  }
  std::uint64_t observed() const {
    std::uint64_t sum = 0;
    for (const auto& s : sums) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }
  static constexpr std::uint64_t kJoinTag = 1ull << 62;
  static std::uint64_t fan_id(std::uint32_t f) { return (1ull << 61) | f; }
  static std::uint64_t tree_id(std::uint32_t root, std::uint64_t node) {
    return (static_cast<std::uint64_t>(root) << 48) | node;
  }
};

void tree_task(DagBatch* b, rt::TaskContext& ctx, std::uint32_t root, std::uint64_t node,
               std::uint32_t depth) {
  b->add(ctx, b->value(DagBatch::tree_id(root, node)));
  if (depth == 0) return;
  auto left = ctx.runtime.spawn([b, root, node, depth](rt::TaskContext& c) {
    tree_task(b, c, root, 2 * node, depth - 1);
  });
  auto right = ctx.runtime.spawn([b, root, node, depth](rt::TaskContext& c) {
    tree_task(b, c, root, 2 * node + 1, depth - 1);
  });
  ctx.runtime.spawn(
      [b, root, node](rt::TaskContext& c) {
        b->add(c, b->value(DagBatch::tree_id(root, node) ^ DagBatch::kJoinTag));
      },
      {left, right});
}

/// task_dag: one runtime client (4 workers) on a 2-node x 2-core daemon
/// machine and a simulated peer joining and leaving on a seeded schedule,
/// so the model re-partitions the runtime 4 <-> 2 workers.
class DagWorkload final : public Workload {
 public:
  DagWorkload(const Options& options, Tracer& tracer, Failures& failures)
      : options_(options), tracer_(tracer), failures_(failures),
        rng_{options.seed * 0x9e3779b97f4a7c15ull + 3},
        events_(sized(options.seconds, kEventsPerSecond)) {}

  static topo::Machine machine() {
    return topo::Machine::symmetric(2, 2, /*core_peak_gflops=*/1.0, /*node_bandwidth=*/10.0,
                                    /*link_bandwidth=*/5.0, "bench-2x2");
  }

  /// Daemon init, the runtime's admission, runtime start, first decision
  /// enacted and 30 warm-up batches.
  bool setup(int instance) override {
    harness_ = std::make_unique<Harness>(options_, tracer_, machine(), instance,
                                         /*virtual_clock=*/false);
    std::string error;
    if (!harness_->init(&error)) {
      std::fprintf(stderr, "nsbench: daemon init failed: %s\n", error.c_str());
      return false;
    }
    rt::RuntimeOptions runtime_options;
    runtime_options.name = "dag";
    runtime_ = std::make_unique<rt::Runtime>(machine(), runtime_options);
    // The runtime client joins exactly like a DaemonClient would.
    const auto claim = harness_->registry().claim_slot("dag", 0.0, agent::kMaxNodes);
    if (!claim) return false;
    runtime_slot_ = claim->index;
    harness_->tick(0);
    auto& slot = harness_->registry().slot(runtime_slot_);
    if (slot.state_word.load(std::memory_order_acquire) !=
        nsd::next_word(claim->joining_word, nsd::SlotState::kActive)) {
      return false;
    }
    runtime_channel_ = agent::ShmChannel::attach(
        std::string(slot.channel_name, strnlen(slot.channel_name, sizeof(slot.channel_name))));
    if (runtime_channel_ == nullptr) return false;
    adapter_ =
        std::make_unique<agent::RuntimeAdapter>(*runtime_, *runtime_channel_, kRuntimeAi);
    peer_ = nullptr;
    peer_state_ = PeerState::kAway;
    batch_rng_ = Rng{rng_.state ^ 0xba7c4u};
    for (int b = 0; b < 30; ++b) {
      if (!batch(0)) return false;
      control(0);
    }
    return harness_->all_enacted({runtime_slot_});
  }

  void teardown() override {
    adapter_.reset();
    runtime_.reset();
    runtime_channel_.reset();
    harness_.reset();
  }

  Harness& harness() override { return *harness_; }
  rt::Runtime& runtime() { return *runtime_; }
  std::uint64_t channel_drops() const {
    return harness_->channel_drops() + runtime_channel_->commands_dropped() +
           runtime_channel_->telemetry_dropped();
  }

  void prime() override {
    for (int b = 0; b < kPrimeBatches; ++b) {
      ++failures_.attempted;
      failures_.check(batch(0), "priming batch: checksum mismatch");
      control(0);
    }
  }

  /// Each event: 8-24 batches, then the peer joins or leaves, then batches
  /// until the runtime and the peer have enacted the new split.
  void run(Window& w) override {
    harness_->measuring = true;
    for (std::uint64_t event = 1; event <= events_; ++event) {
      for (std::uint32_t b = rng_.between(8, 24); b > 0; --b) step(0, w);
      play(event, w);
    }
    w.end_slice(w.tasks);  // one slice: task_dag is not scaled (HostProbe)
  }


 private:
  enum class PeerState { kAway, kPresent };
  static constexpr double kRuntimeAi = 0.5;
  static constexpr double kEventsPerSecond = 140.0;
  static constexpr int kPrimeBatches = 1000;

  /// One closed-loop iteration: a batch, then the control work before the
  /// next one. Returns the commands the tick sent.
  std::uint32_t step(std::uint64_t request, Window& w) {
    ++batch_id_;
    const std::uint64_t b0 = wall_ns();
    const bool ok = batch(request, &w.tasks);
    w.batch_ms.add(w.slice(), ms_since(b0, wall_ns()));
    ++failures_.attempted;
    failures_.check(ok, "batch " + std::to_string(batch_id_) + ": checksum mismatch");
    return control(request);
  }

  void play(std::uint64_t event, Window& w) {
    ++failures_.attempted;
    harness_->decisions.clear();
    tracer_.open("event", event);
    const std::uint64_t t0 = wall_ns();
    bool triggered = true;
    if (peer_state_ == PeerState::kAway) {
      peer_ = &harness_->add_client("peer" + std::to_string(event),
                                    kAiMix[rng_.below(kAiMixSize)]);
      triggered = harness_->claim(*peer_, event);
      if (triggered) peer_state_ = PeerState::kPresent;
    } else {
      harness_->leave(*peer_, event);
      peer_state_ = PeerState::kAway;
    }
    bool decided = false;
    bool done = false;
    std::uint64_t t1 = t0;
    for (std::uint32_t p = 0; triggered && p < kMaxEventPeriods && !done; ++p) {
      decided = step(event, w) > 0 || decided;
      if (decided && enacted()) {
        t1 = wall_ns();
        done = true;
      }
    }
    tracer_.close();
    failures_.check(done, "event " + std::to_string(event) + " not enacted");
    if (!done) return;
    w.realloc_ms.add(w.slice(), ms_since(t0, t1));
    ++w.events;
    const std::uint64_t oob0 = wall_ns();
    verify(w.checker, event);
    w.checker.decisions(event);
    w.oob_ns += wall_ns() - oob0;
  }

  /// The runtime and (when present and admitted) the peer acked the newest
  /// epoch the daemon commanded them.
  bool enacted() const {
    if (peer_state_ == PeerState::kPresent) {
      return peer_->active() && harness_->all_enacted({runtime_slot_, peer_->slot});
    }
    return harness_->all_enacted({runtime_slot_});
  }

  /// Seeded nested fork-join batch plus external fan-out; blocks in
  /// wait_idle while the runtime's workers run it.
  bool batch(std::uint64_t request, std::uint64_t* tasks = nullptr) {
    auto b = std::make_unique<DagBatch>();
    b->seed = batch_rng_.next();
    b->fanout = batch_rng_.between(16, 48);
    b->roots = batch_rng_.between(2, 4);
    b->depth = batch_rng_.between(5, 6);
    b->work = batch_rng_.between(32, 128);
    DagBatch* raw = b.get();
    for (std::uint32_t f = 0; f < raw->fanout; ++f) {
      Span span(tracer_, "runtime.spawn", request);
      runtime_->spawn(
          [raw, f](rt::TaskContext& c) { raw->add(c, raw->value(DagBatch::fan_id(f))); });
    }
    for (std::uint32_t r = 0; r < raw->roots; ++r) {
      Span span(tracer_, "runtime.spawn", request);
      runtime_->spawn([raw, r](rt::TaskContext& c) { tree_task(raw, c, r, 1, raw->depth); });
    }
    {
      Span span(tracer_, "runtime.wait_idle", request);
      runtime_->wait_idle();
    }
    if (tasks != nullptr) *tasks += raw->tasks();
    return raw->observed() == raw->expected();
  }

  /// Between batches: tick on the wall clock, pump the adapter (applies the
  /// tick's commands, publishes the ack), serve the peer, heartbeat.
  std::uint32_t control(std::uint64_t request) {
    const std::uint32_t sent = harness_->tick(request);
    if (peer_ != nullptr && peer_state_ == PeerState::kPresent) {
      harness_->try_activate(*peer_, request);
    }
    {
      Span span(tracer_, "agent.pump", request);
      adapter_->pump();
    }
    if (peer_ != nullptr && peer_state_ == PeerState::kPresent) {
      harness_->service(*peer_, peer_->ai, request);
    }
    harness_->heartbeat(runtime_slot_);
    return sent;
  }

  void verify(Checker& checker, std::uint64_t event) {
    auto& daemon = harness_->daemon();
    const auto& views = daemon.arbitration_agent().views();
    std::vector<std::vector<std::uint32_t>> received(views.size());
    std::vector<double> ai(views.size(), 0.0);
    bool ok = views.size() == (peer_state_ == PeerState::kPresent ? 2u : 1u);
    for (std::size_t a = 0; ok && a < views.size(); ++a) {
      const auto view = daemon.compliance_view(views[a].name);
      ok = view && view->health == nsd::ClientHealth::kHealthy &&
           view->enacted_epoch == view->commanded_epoch;
      ai[a] = ai_of(views[a]);
      if (peer_state_ == PeerState::kPresent && views[a].name == peer_->app_name) {
        received[a] = peer_->node_threads;
      } else {
        received[a] = runtime_->running_per_node();  // what the runtime enacted
      }
    }
    failures_.check(ok, "event " + std::to_string(event) + ": compliance view disagrees");
    if (ok) checker.allocation(received, ai, event);
  }

  const Options& options_;
  Tracer& tracer_;
  Failures& failures_;
  Rng rng_;
  std::uint64_t events_;
  Rng batch_rng_{0};
  std::unique_ptr<Harness> harness_;
  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<agent::ShmChannel> runtime_channel_;
  std::unique_ptr<agent::RuntimeAdapter> adapter_;
  std::uint32_t runtime_slot_ = nsd::kMaxClients;
  SimClient* peer_ = nullptr;
  PeerState peer_state_ = PeerState::kAway;
  std::uint64_t batch_id_ = 0;
};

// ---------------------------------------------------------------- main

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") o.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--work-dir") o.work_dir = value;
    else return false;
  }
  return (argc % 2) == 1 && o.seconds > 0 &&
         (o.workload == "task_dag" || o.workload == "join_churn" ||
          o.workload == "fleet_steady");
}

/// Runtime-layer and adapter metrics (task_dag only; zero elsewhere).
void runtime_metrics(Report& r, DagWorkload* dag, const rt::MetricsSnapshot& before,
                     Tracer& tracer, std::uint64_t tasks) {
  if (dag == nullptr) {
    for (const char* name :
         {"runtime.spawn_ns", "runtime.handoff_p99_ns", "runtime.wake_p99_ns",
          "runtime.steal_p50_ns"}) {
      r.set(name, 0.0, "ns");
    }
    r.set("runtime.wait_idle_us", 0.0, "us");
    r.set("runtime.enact_lag_p50_us", 0.0, "us");
    r.set("runtime.enact_lag_p99_us", 0.0, "us");
    r.set("runtime.steals_per_task", 0.0, "ratio");
    r.set("runtime.failed_steal_ratio", 0.0, "ratio");
    r.set("runtime.policy_blocks", 0.0, "count");
    r.set("agent.pump_us", 0.0, "us");
    return;
  }
  const auto stats = dag->runtime().stats();
  const auto latency = dag->runtime().latency_snapshot();
  const double steals = static_cast<double>(stats.steals - before.steals);
  const double failed_rounds =
      static_cast<double>(stats.failed_steal_rounds - before.failed_steal_rounds);
  r.set("runtime.spawn_ns", tracer.median_ns("runtime.spawn"), "ns");
  r.set("runtime.wait_idle_us", tracer.median_ns("runtime.wait_idle") / 1e3, "us");
  r.set("runtime.handoff_p99_ns", latency.handoff.percentile(99.0), "ns");
  r.set("runtime.wake_p99_ns", latency.wake.percentile(99.0), "ns");
  r.set("runtime.steal_p50_ns", latency.steal.percentile(50.0), "ns");
  r.set("runtime.enact_lag_p50_us", latency.enact.percentile(50.0) / 1e3, "us");
  r.set("runtime.enact_lag_p99_us", latency.enact.percentile(99.0) / 1e3, "us");
  r.set("runtime.steals_per_task", tasks == 0 ? 0.0 : steals / static_cast<double>(tasks),
        "ratio");
  r.set("runtime.failed_steal_ratio",
        steals + failed_rounds == 0 ? 0.0 : failed_rounds / (steals + failed_rounds), "ratio");
  r.set("runtime.policy_blocks", static_cast<double>(stats.blocks - before.blocks), "count");
  r.set("agent.pump_us", tracer.median_ns("agent.pump") / 1e3, "us");
}

void print_json(const Report& r, const Failures& f) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              f.failed == 0 ? "true" : "false", f.attempted, f.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Options& o) {
  Logger::instance().set_level(LogLevel::kWarn);  // as numashared without --verbose
  Tracer tracer;
  Failures failures;
  Report r;

  std::unique_ptr<Workload> workload;
  DagWorkload* dag = nullptr;
  if (o.workload == "task_dag") {
    auto owned = std::make_unique<DagWorkload>(o, tracer, failures);
    dag = owned.get();
    workload = std::move(owned);
  } else if (o.workload == "join_churn") {
    workload = std::make_unique<JoinChurn>(o, tracer, failures);
  } else {
    workload = std::make_unique<FleetSteady>(o, tracer, failures);
  }

  // Set up several times; the median is setup_s, the last instance is kept.
  // The host probe runs before each setup, while no instance (and no
  // runtime worker) exists, and scales setup_s in every workload.
  Samples setup_s, setup_probe_ns;
  HostProbe setup_probe;
  for (int i = 0; i < kSetups; ++i) {
    setup_probe_ns.add(static_cast<double>(setup_probe.time_kernel()));
    const std::uint64_t s0 = wall_ns();
    const bool ok = workload->setup(i);
    const std::uint64_t s1 = wall_ns();
    if (!ok) {
      std::fprintf(stderr, "nsbench: setup %d failed\n", i);
      return 2;
    }
    setup_s.add(static_cast<double>(s1 - s0) / 1e9);
    if (i + 1 < kSetups) workload->teardown();
  }
  Harness& h = workload->harness();
  auto& agent = h.daemon().arbitration_agent();

  // Priming: a fixed amount of the workload, discarded, so the measured
  // run starts on a warm machine.
  workload->prime();
  h.decisions.clear();
  tracer.set_on(o.trace);

  // Baselines for the measured run.
  const auto stats0 = h.daemon().stats();
  const auto commands0 = agent.commands_sent();
  const auto telemetry0 = agent.telemetry_received();
  h.reset_journal_bytes();
  const auto runtime0 = dag != nullptr ? dag->runtime().stats() : rt::MetricsSnapshot{};

  Window w(h, failures, tracer, o.seed);
  const std::uint64_t start = wall_ns();
  workload->run(w);
  const std::uint64_t end = wall_ns();
  const double busy_s = static_cast<double>(end - start - std::min(end - start, w.oob_ns)) / 1e9;
  Checker& checker = w.checker;

  // End-of-run invariants: nobody lagged, nobody was evicted, no drops.
  const auto& stats = h.daemon().stats();
  const std::uint64_t drops = dag != nullptr ? dag->channel_drops() : h.channel_drops();
  ++failures.attempted;
  failures.check(stats.laggards == stats0.laggards, "laggards during the run");
  failures.check(stats.evictions == stats0.evictions, "evictions during the run");
  failures.check(drops == 0, "channel drops during the run");
  failures.check(w.realloc_ms.size() > 0, "no reallocation completed");

  // End-to-end, with each slice's timings scaled by its host factor (1 in
  // task_dag, which never probes).
  const std::vector<double> factor = w.host.factors(w.slices.size());
  std::uint64_t work = 0;
  double scaled_busy_ns = 0.0;
  for (std::size_t i = 0; i < w.slices.size(); ++i) {
    work += w.slices[i].work;
    scaled_busy_ns += static_cast<double>(w.slices[i].busy_ns) * factor[i];
  }
  Samples realloc_ms = w.realloc_ms.scaled(factor);
  Samples ticks_us = h.ticks.scaled(factor);
  Samples batch_ms = w.batch_ms.scaled(factor);
  r.set("setup_s", setup_s.median() * HostProbe::kNominalNs / setup_probe_ns.median(), "s");
  r.set("throughput_per_s", static_cast<double>(work) / (scaled_busy_ns / 1e9), "1/s");
  r.set("realloc_p50_ms", realloc_ms.median(), "ms");
  r.tail("realloc_tail_ms", realloc_ms, "ms");
  r.set("tick_p50_us", ticks_us.median(), "us");
  r.tail("tick_tail_us", ticks_us, "us", kTickTailTop);
  r.set("alloc_gflops", checker.gflops.mean(), "GFLOPS");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("batch_p50_ms", batch_ms.median(), "ms");
  r.tail("batch_tail_ms", batch_ms, "ms");
  r.set("error_rate",
        failures.attempted == 0 ? 0.0
                                : static_cast<double>(failures.failed) /
                                      static_cast<double>(failures.attempted),
        "ratio");

  // Per layer.
  runtime_metrics(r, dag, runtime0, tracer, w.tasks);
  r.set("agent.shm_push_telemetry_ns", tracer.median_ns("agent.shm_push_telemetry"), "ns");
  r.set("agent.shm_pop_command_ns", tracer.median_ns("agent.shm_pop_command"), "ns");
  r.set("agent.channel_drops", static_cast<double>(drops), "count");
  r.set("agent.commands_sent", static_cast<double>(agent.commands_sent() - commands0),
        "count");
  r.set("agent.telemetry_received",
        static_cast<double>(agent.telemetry_received() - telemetry0), "count");
  r.set("core.candidates", checker.candidates.mean(), "count");
  r.set("core.full_searches", static_cast<double>(checker.full_searches), "count");
  r.set("core.search_ms", checker.search_ms.median(), "ms");
  r.set("core.evaluated_ratio", checker.evaluated_ratio.mean(), "ratio");
  r.set("core.bound_solves", checker.bound_solves.mean(), "count");
  const double ticks = static_cast<double>(stats.ticks - stats0.ticks);
  r.set("daemon.tick_idle_us", h.ticks_idle.median(), "us");
  r.set("daemon.tick_decide_us", h.ticks_decide.median(), "us");
  r.set("daemon.admit_us", h.admit_us.median(), "us");
  r.set("daemon.retire_us", h.retire_us.median(), "us");
  const auto per_tick = [ticks](double count) { return ticks == 0 ? 0.0 : count / ticks; };
  r.set("daemon.journal_bytes", per_tick(static_cast<double>(h.journal_bytes)), "B/tick");
  r.set("daemon.attention_visits_per_tick",
        per_tick(static_cast<double>(stats.attention_visits - stats0.attention_visits)),
        "ratio");
  r.set("daemon.reallocations",
        static_cast<double>(stats.reallocations - stats0.reallocations), "count");
  r.set("daemon.laggards", static_cast<double>(stats.laggards - stats0.laggards), "count");
  r.set("trace.spans", static_cast<double>(tracer.spans()), "count");
  r.set("host.probe_ns", w.host.median_ns(), "ns");

  // Human report.
  std::fprintf(stderr, "nsbench %s seed %" PRIu64 " trace %d: %.2f s measured (%.2f s busy)\n",
               o.workload.c_str(), o.seed, o.trace ? 1 : 0,
               static_cast<double>(end - start) / 1e9, busy_s);
  std::fprintf(stderr,
               "  error_rate %" PRIu64 "/%" PRIu64 " (failed/attempted); events %" PRIu64
               ", ticks %zu, decisions %zu\n",
               failures.failed, failures.attempted, w.events, h.ticks.size(),
               checker.candidates.size());
  const char* unit_of_work = dag != nullptr                  ? "tasks retired (tasks_per_s)"
                             : o.workload == "fleet_steady" ? "daemon ticks"
                                                            : "control events enacted";
  std::fprintf(stderr, "  throughput_per_s counts %s\n", unit_of_work);
  if (w.host.median_ns() > 0) {
    std::fprintf(stderr, "  host probe median %.0f ns (nominal %.0f) over %zu slices\n",
                 w.host.median_ns(), HostProbe::kNominalNs, w.slices.size());
  }
  for (const auto& reason : failures.reasons) {
    std::fprintf(stderr, "  FAILED: %s\n", reason.c_str());
  }
  for (const auto& [name, t] : r.tails) {
    std::fprintf(stderr, "  %s = p%g over %zu samples (%zu beyond)\n", name.c_str(),
                 t.percentile, t.samples, t.beyond);
  }
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit);
  }
  tracer.report(stderr);
  tracer.write(o.work_dir + "/spans-" + o.workload + ".jsonl");

  print_json(r, failures);
  workload->teardown();
  return failures.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: nsbench --workload task_dag|join_churn|fleet_steady --seed N "
                 "--seconds S [--trace 0|1] [--work-dir DIR]\n");
    return 64;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsbench: %s\n", e.what());
    return 3;
  }
}
