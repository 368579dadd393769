#include "agent/agent.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/threading.hpp"
#include "obs/histogram.hpp"

namespace numashare::agent {

namespace {
/// EWMA smoothing for the per-app task rate.
constexpr double kRateAlpha = 0.3;
}  // namespace

Agent::Agent(topo::Machine machine, PolicyPtr policy, Options options)
    : machine_(std::move(machine)), policy_(std::move(policy)), options_(options) {
  NS_REQUIRE(policy_ != nullptr, "agent needs a policy");
  NS_REQUIRE(machine_.node_count() <= kMaxNodes, "machine exceeds protocol capacity");
}

Agent::~Agent() { stop(); }

std::size_t Agent::index_of_locked(const std::string& name) const {
  const auto it = index_by_name_.find(name);
  return it == index_by_name_.end() ? apps_.size() : it->second;
}

std::size_t Agent::add_app(std::string name, ShmChannel& channel) {
  std::lock_guard lock(membership_mutex_);
  // remove_app() is keyed by name; duplicates would make it ambiguous.
  NS_REQUIRE(index_by_name_.find(name) == index_by_name_.end(), "duplicate app name");
  apps_.push_back({.channel = &channel});
  index_by_name_.emplace(name, apps_.size() - 1);
  AppView view;
  view.name = std::move(name);
  views_.push_back(std::move(view));
  generation_.fetch_add(1, std::memory_order_relaxed);
  policy_->on_membership_change();
  return apps_.size() - 1;
}

bool Agent::remove_app(const std::string& name) {
  std::lock_guard lock(membership_mutex_);
  const std::size_t a = index_of_locked(name);
  if (a == apps_.size()) return false;
  index_by_name_.erase(name);
  apps_.erase(apps_.begin() + static_cast<std::ptrdiff_t>(a));
  views_.erase(views_.begin() + static_cast<std::ptrdiff_t>(a));
  // Every app after the erased one shifted down an index.
  for (std::size_t i = a; i < views_.size(); ++i) index_by_name_[views_[i].name] = i;
  generation_.fetch_add(1, std::memory_order_relaxed);
  policy_->on_membership_change();
  NS_LOG_INFO("agent", "removed app '{}' ({} remain)", name, apps_.size());
  return true;
}

std::size_t Agent::find_app(const std::string& name) const {
  std::lock_guard lock(membership_mutex_);
  return index_of_locked(name);
}

std::size_t Agent::app_count() const {
  std::lock_guard lock(membership_mutex_);
  return apps_.size();
}

bool Agent::set_app_thread_cap(const std::string& name, std::uint32_t cap) {
  std::lock_guard lock(membership_mutex_);
  const std::size_t a = index_of_locked(name);
  if (a == apps_.size()) return false;
  if (views_[a].thread_cap != cap) {
    views_[a].thread_cap = cap;
    // The machine just gained/lost administratively grantable cores;
    // cached partitions are stale. Not a membership change, though.
    policy_->on_membership_change();
  }
  return true;
}

void Agent::send(std::size_t a, const Directive& directive) {
  ManagedApp& app = apps_[a];
  AppView& view = views_[a];
  // No-op directive: nothing to build, nothing to send. The common steady
  // state at 1000+ clients is "no change for anyone", so return before the
  // (kMaxNodes-wide) Command below is even zero-initialized.
  if (directive.kind == Directive::Kind::kNone &&
      directive.suggested_data_home == kMaxNodes) {
    return;
  }
  // A data-home suggestion travels as its own command, independent of
  // whether a thread directive accompanies it.
  if (directive.suggested_data_home != kMaxNodes) {
    Command suggestion;
    suggestion.type = CommandType::kSuggestDataHome;
    suggestion.suggested_home = directive.suggested_data_home;
    suggestion.seq = ++app.command_seq;
    suggestion.arbiter_generation = arbiter_generation_.load(std::memory_order_relaxed);
    if (app.channel->push_command(suggestion)) {
      ++commands_sent_;
    } else {
      --app.command_seq;
    }
  }

  Command command;
  command.seq = ++app.command_seq;
  const std::uint32_t cap = view.thread_cap;
  switch (directive.kind) {
    case Directive::Kind::kNone:
      --app.command_seq;
      return;
    case Directive::Kind::kClear:
      if (cap != 0xffffffffu) {
        // A capped app must never be released to "unlimited": the clear
        // degrades to an explicit total at the cap until the watchdog
        // lifts it.
        command.type = CommandType::kSetTotalThreads;
        command.total_threads = cap;
      } else {
        command.type = CommandType::kClearControls;
      }
      break;
    case Directive::Kind::kTotalThreads:
      command.type = CommandType::kSetTotalThreads;
      command.total_threads = std::min(directive.total_threads, cap);
      break;
    case Directive::Kind::kNodeThreads: {
      NS_REQUIRE(directive.node_threads.size() == machine_.node_count(),
                 "directive node count mismatch");
      command.type = CommandType::kSetNodeThreads;
      command.node_count = static_cast<std::uint32_t>(directive.node_threads.size());
      std::uint32_t total = 0;
      for (std::size_t n = 0; n < directive.node_threads.size(); ++n) {
        command.node_threads[n] = directive.node_threads[n];
        total += directive.node_threads[n];
      }
      // Safety-net clamp for cap-unaware policies: shave surplus from the
      // highest node down, preserving the policy's placement preference for
      // the threads that survive.
      for (std::uint32_t n = command.node_count; total > cap && n > 0; --n) {
        const std::uint32_t cut = std::min(command.node_threads[n - 1], total - cap);
        command.node_threads[n - 1] -= cut;
        total -= cut;
      }
      break;
    }
  }
  // Every thread-target command carries a fresh compliance epoch; the
  // runtime acks the newest epoch it has fully enacted. The issue stamp is
  // the enactment-lag histogram's zero point.
  command.epoch = view.commanded_epoch + 1;
  command.issued_ns = obs::now_ns();
  command.arbiter_generation = arbiter_generation_.load(std::memory_order_relaxed);
  if (app.channel->push_command(command)) {
    ++commands_sent_;
    view.commanded_epoch = command.epoch;
  } else {
    // Backpressure: the runtime is not pumping. Dropping is deliberate — the
    // next tick recomputes a fresher command anyway. The epoch is not
    // consumed: an unpushed command can never be enacted, so counting it
    // commanded would mark the app non-compliant for our own drop.
    NS_LOG_WARN("agent", "command ring full for app '{}'", view.name);
    --app.command_seq;
  }
}

std::uint32_t Agent::step(double /*now*/) {
  std::lock_guard lock(membership_mutex_);
  // 1. Batched, sequence-coalesced ingest: one drain per channel consumes
  // the whole backlog and hands back only the newest sample (rates come
  // from deltas against the view's previous newest, so the intermediate
  // copies were always discarded anyway). Apps with nothing queued are
  // *clean* — their view is left untouched and no per-sample work runs at
  // all, which is what keeps the daemon tick proportional to activity at
  // 1000+ clients. Downstream, the model-guided policy's drift gates skip
  // the re-search outright, so a quiet membership also skips the partition
  // solve.
  Telemetry newest;  // hoisted: drain_newest overwrites it whole, and
                     // re-zeroing ~200 B per app would dominate a clean pass
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    ShmChannel& channel = *apps_[a].channel;
    auto& view = views_[a];
    const std::uint64_t drained = channel.drain_newest(newest);
    // Clean app: nothing arrived, and nothing can have been dropped either —
    // a drop needs a full ring, and a full ring means this drain returned
    // the whole backlog (drained >= capacity > 0). Skip all per-app work.
    if (drained == 0) continue;
    telemetry_received_ += drained;
    // Read the drop counter *after* the drain: a push that fails while we
    // advance the cursor lands in this tick's count instead of being
    // misattributed to the next tick's view.
    view.telemetry_dropped = channel.telemetry_dropped();
    // Acks only ratchet forward: a reordered stale sample (or one with the
    // ack stripped in transit) must not un-enact a previously-proven epoch.
    if (newest.enacted_epoch > view.enacted_epoch) {
      view.enacted_epoch = newest.enacted_epoch;
      view.enacted_target = newest.enacted_target;
    }
    // The rate is a delta against the previous sample, so it is taken
    // before that sample is overwritten; the EWMA starts from 0.
    if (view.has_telemetry) {
      const double dt = newest.timestamp - view.latest.timestamp;
      if (dt > 1e-9) {
        const double task_rate =
            static_cast<double>(newest.tasks_executed - view.latest.tasks_executed) / dt;
        view.task_rate = kRateAlpha * task_rate + (1.0 - kRateAlpha) * view.task_rate;
      }
    }
    view.latest = newest;
    view.has_telemetry = true;
  }

  // 2. Decide and command.
  const auto before = commands_sent_;
  const auto directives = policy_->decide(machine_, views_);
  NS_REQUIRE(directives.size() == apps_.size(), "policy must answer one directive per app");
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    send(a, directives[a]);
  }
  return static_cast<std::uint32_t>(commands_sent_ - before);
}

void Agent::start() {
  NS_REQUIRE(!running_.load(), "agent already running");
  running_.store(true);
  loop_thread_ = std::thread([this] {
    set_current_thread_name("ns-agent");
    while (running_.load(std::memory_order_acquire)) {
      step(monotonic_seconds());
      std::this_thread::sleep_for(std::chrono::microseconds(options_.period_us));
    }
  });
}

void Agent::stop() {
  if (!running_.exchange(false)) return;
  if (loop_thread_.joinable()) loop_thread_.join();
}

}  // namespace numashare::agent
