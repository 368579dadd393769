#include "agent/policies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "core/app_spec.hpp"

namespace numashare::agent {

namespace {

/// The producer-consumer policy's producer is the agent's first app, its
/// consumer the second.
constexpr std::size_t kProducer = 0;
constexpr std::size_t kConsumer = 1;

/// Foreign-load drift gates: re-optimize when any node's foreign busy cores
/// move by more than this many cores, or its foreign bandwidth by more than
/// this many GB/s, since the load priced into the last decision. Small
/// wobble below both thresholds is absorbed without a re-search.
constexpr double kForeignCoreDrift = 0.25;
constexpr GBps kForeignBwDrift = 2.0;

/// No policy starves an app below kMinThreadsPerApp threads. The
/// model-guided policy maximises total GFLOPS and re-runs the optimizer when
/// an AI estimate drifts by more than kAiDriftThreshold of its last value (a
/// changed data home always re-runs it).
constexpr std::uint32_t kMinThreadsPerApp = 1;
constexpr model::Objective kObjective = model::Objective::kTotalGflops;
constexpr double kAiDriftThreshold = 0.10;

}  // namespace

std::vector<Directive> FairSharePolicy::decide(const topo::Machine& machine,
                                               const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  if (views.empty()) return out;
  if (issued_ && last_app_count_ == views.size()) return out;

  std::vector<std::uint32_t> caps;
  for (const auto& view : views) caps.push_back(view.thread_cap);
  const auto allocation =
      model::fair_share(machine, static_cast<std::uint32_t>(views.size()), caps);
  for (std::uint32_t a = 0; a < views.size(); ++a) {
    if (flavor_ == Flavor::kTotalThreads) {
      out[a] = Directive::total(allocation.app_total(a));
      continue;
    }
    std::vector<std::uint32_t> per_node(machine.node_count());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) per_node[n] = allocation.threads(a, n);
    out[a] = Directive::per_node(std::move(per_node));
  }
  issued_ = true;
  last_app_count_ = views.size();
  return out;
}

std::vector<Directive> ProducerConsumerPolicy::decide(const topo::Machine& machine,
                                                      const std::vector<AppView>& views) {
  NS_REQUIRE(views.size() >= 2, "producer-consumer needs a producer and a consumer app");
  std::vector<Directive> out(views.size(), Directive::none());

  const auto& producer = views[kProducer];
  const auto& consumer = views[kConsumer];
  if (!producer.has_telemetry || !consumer.has_telemetry) return out;

  const std::uint32_t cores = machine.core_count();
  if (!initialized_) {
    producer_threads_ = cores / 2;
    consumer_threads_ = cores - producer_threads_;
    initialized_ = true;
    out[kProducer] = Directive::total(producer_threads_);
    out[kConsumer] = Directive::total(consumer_threads_);
    return out;
  }

  // The paper's [10] controller: keep the producer "only ahead by a small
  // number of iterations". Shift one thread per tick toward whichever side
  // is falling out of the band — gentle moves favour stability (§V).
  const std::uint64_t produced = producer.latest.progress;
  const std::uint64_t consumed = consumer.latest.progress;
  const std::uint64_t lead = produced > consumed ? produced - consumed : 0;

  std::int32_t shift = 0;  // positive = toward the consumer
  if (lead > options_.max_lead) shift = 1;
  else if (lead < options_.min_lead) shift = -1;
  if (shift == 0) return out;

  if (shift > 0 && producer_threads_ > kMinThreadsPerApp) {
    --producer_threads_;
    ++consumer_threads_;
  } else if (shift < 0 && consumer_threads_ > kMinThreadsPerApp) {
    ++producer_threads_;
    --consumer_threads_;
  } else {
    return out;
  }
  NS_LOG_DEBUG("agent", "producer-consumer lead={} -> producer={} consumer={}", lead,
               producer_threads_, consumer_threads_);
  out[kProducer] = Directive::total(producer_threads_);
  out[kConsumer] = Directive::total(consumer_threads_);
  return out;
}

void ModelGuidedPolicy::on_foreign_load(const model::ForeignLoad& load) {
  foreign_ = load;
  // Drift gate vs the load priced into the *last decision* (not the last
  // report): slow creep eventually crosses the threshold and re-searches.
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  const std::size_t nodes = std::max(
      std::max(foreign_.busy_cores.size(), decided_foreign_.busy_cores.size()),
      std::max(foreign_.bandwidth.size(), decided_foreign_.bandwidth.size()));
  for (std::size_t n = 0; n < nodes; ++n) {
    if (std::abs(at(foreign_.busy_cores, n) - at(decided_foreign_.busy_cores, n)) >
            kForeignCoreDrift ||
        std::abs(at(foreign_.bandwidth, n) - at(decided_foreign_.bandwidth, n)) >
            kForeignBwDrift) {
      foreign_dirty_ = true;
      return;
    }
  }
}

std::vector<Directive> ModelGuidedPolicy::decide(const topo::Machine& machine,
                                                 const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  // Zero apps is a legal state under dynamic membership (daemon with no
  // clients yet); the optimizer has nothing to do.
  if (views.empty()) return out;

  // An advertised home past the last node means NUMA-perfect.
  const auto home_of = [&](const AppView& view) {
    return view.latest.data_home_node < machine.node_count() ? view.latest.data_home_node
                                                             : kMaxNodes;
  };
  std::vector<double> ai(views.size(), 0.0);
  bool homes_changed = last_homes_.size() != views.size();
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (!views[a].has_telemetry || views[a].latest.ai_estimate <= 0.0) {
      return out;  // wait until every app has advertised an AI
    }
    ai[a] = views[a].latest.ai_estimate;
    homes_changed = homes_changed || home_of(views[a]) != last_homes_[a];
  }

  // Re-decide on AI drift, on foreign drift, and whenever an app's data
  // home changed: the allocation is priced at the homes advertised now.
  const auto steady = [&](double now, double last) {
    return std::abs(now - last) <= kAiDriftThreshold * last;
  };
  if (!foreign_dirty_ && !homes_changed && ai.size() == last_ai_.size() &&
      std::equal(ai.begin(), ai.end(), last_ai_.begin(), steady)) {
    return out;
  }

  std::vector<model::AppSpec> specs;
  std::vector<std::uint32_t> homes;
  for (std::size_t a = 0; a < views.size(); ++a) {
    homes.push_back(home_of(views[a]));
    specs.push_back(homes[a] != kMaxNodes
                        ? model::AppSpec::numa_bad(views[a].name, ai[a], homes[a])
                        : model::AppSpec::numa_perfect(views[a].name, ai[a]));
  }

  // Administrative caps from the compliance watchdog (empty = none capped).
  std::vector<std::uint32_t> caps;
  for (const auto& view : views) caps.push_back(view.thread_cap);
  if (std::all_of(caps.begin(), caps.end(), [](auto cap) { return cap == 0xffffffffu; })) {
    caps.clear();
  }

  const auto started = std::chrono::steady_clock::now();
  const auto decision =
      model::decide(machine, specs, kObjective, kMinThreadsPerApp, caps, foreign_);
  const auto& allocation = decision.search.allocation;
  const double predicted = decision.search.solution.total_gflops;
  SearchStats stats;
  stats.kind = decision.exact_seed ? SearchKind::kFull : SearchKind::kRefine;
  stats.evaluated = decision.search.evaluated;
  stats.pruned = decision.search.pruned;
  stats.bound_solves = decision.search.bound_solves;
  stats.app_classes = decision.search.app_classes;
  stats.home_moves = decision.move ? 1 : 0;
  stats.truncated = decision.search.truncated;
  stats.search_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - started)
          .count();
  stats.predicted_gflops = predicted;
  last_search_ = stats;
  last_ai_ = ai;
  last_homes_ = std::move(homes);
  last_allocation_ = allocation;
  decided_foreign_ = foreign_;
  foreign_dirty_ = false;
  NS_LOG_INFO("agent", "model-guided allocation: {} ({} GFLOPS predicted)",
              allocation.to_string(), predicted);
  for (std::size_t a = 0; a < views.size(); ++a) {
    std::vector<std::uint32_t> per_node(machine.node_count());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      per_node[n] = allocation.threads(static_cast<model::AppId>(a), n);
    }
    out[a] = Directive::per_node(std::move(per_node));
  }
  if (decision.move) out[decision.move->app].suggested_data_home = decision.move->home;
  return out;
}

}  // namespace numashare::agent
