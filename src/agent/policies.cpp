#include "agent/policies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "core/app_spec.hpp"
#include "core/placement.hpp"

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

/// Round-robin waterfill of every node's cores honouring per-app caps
/// (AppView::thread_cap, set by the compliance watchdog). The round-robin
/// cursor carries over from node to node, so uncapped the totals are the
/// classic fair split — core_count/apps with the remainder to the first
/// apps — and every node is split as evenly as it can be; a capped app's
/// unreachable share flows to its peers instead of idling. With more apps
/// than cores, the first core_count() apps hold one core each and the rest
/// hold none.
model::Allocation fair_share(const topo::Machine& machine, const std::vector<AppView>& views) {
  const auto apps = static_cast<std::uint32_t>(views.size());
  model::Allocation allocation(apps, machine.node_count());
  std::vector<std::uint32_t> totals(apps, 0);
  std::uint32_t next = 0;  // the app the next core goes to, unless capped out
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    std::uint32_t budget = machine.cores_in_node(n);
    // A full cycle of capped-out apps means every app is capped: the
    // leftover cores idle.
    for (std::uint32_t skipped = 0; budget > 0 && skipped < apps; next = (next + 1) % apps) {
      if (totals[next] >= views[next].thread_cap) {
        ++skipped;
        continue;
      }
      allocation.set_threads(next, n, allocation.threads(next, n) + 1);
      ++totals[next];
      --budget;
      skipped = 0;
    }
  }
  return allocation;
}

}  // namespace

std::vector<Directive> FairSharePolicy::decide(const topo::Machine& machine,
                                               const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  if (views.empty()) return out;
  if (issued_ && last_app_count_ == views.size()) return out;

  const auto allocation = fair_share(machine, views);
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

  const std::uint32_t min_threads = options_.min_threads;
  if (shift > 0 && producer_threads_ > min_threads) {
    --producer_threads_;
    ++consumer_threads_;
  } else if (shift < 0 && consumer_threads_ > min_threads) {
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

  std::vector<double> ai(views.size(), 0.0);
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (!views[a].has_telemetry || views[a].latest.ai_estimate <= 0.0) {
      return out;  // wait until every app has advertised an AI
    }
    ai[a] = views[a].latest.ai_estimate;
  }

  if (!last_ai_.empty() && last_ai_.size() == ai.size() && !foreign_dirty_) {
    bool drifted = false;
    for (std::size_t a = 0; a < ai.size(); ++a) {
      if (std::abs(ai[a] - last_ai_[a]) > options_.ai_drift_threshold * last_ai_[a]) {
        drifted = true;
        break;
      }
    }
    if (!drifted) return out;
  }

  std::vector<model::AppSpec> specs;
  specs.reserve(views.size());
  for (std::size_t a = 0; a < views.size(); ++a) {
    const auto home = views[a].latest.data_home_node;
    if (home < machine.node_count()) {
      specs.push_back(model::AppSpec::numa_bad(views[a].name, ai[a], home));
    } else {
      specs.push_back(model::AppSpec::numa_perfect(views[a].name, ai[a]));
    }
  }

  // Administrative caps from the compliance watchdog. When any client is
  // capped the data-placement advisor is bypassed: a quarantined client is a
  // transient state, not worth migrating data over, and the capped
  // exhaustive search already re-grants the reclaimed cores.
  std::vector<std::uint32_t> caps;
  for (const auto& view : views) {
    if (view.thread_cap != 0xffffffffu) {
      caps.assign(views.size(), 0xffffffffu);
      for (std::size_t a = 0; a < views.size(); ++a) caps[a] = views[a].thread_cap;
      break;
    }
  }

  // The engine is chosen from the problem size alone. Up to kMaxSearchSolves
  // candidates the exact search runs; beyond it (e.g. 21+ apps on 20-core
  // nodes, where the per-app floor clamps to zero and the candidate count
  // explodes) a climb seeded with the cap-honouring fair share runs under
  // the same solve budget, so no decision can wedge the daemon tick.
  const bool exact =
      model::count_candidates(machine, static_cast<std::uint32_t>(views.size()),
                              /*require_full=*/true, options_.min_threads_per_app) <=
      model::kMaxSearchSolves;

  model::Allocation allocation;
  double predicted = 0.0;
  std::vector<std::uint32_t> suggested_home(views.size(), kMaxNodes);
  SearchStats stats;
  const auto started = std::chrono::steady_clock::now();
  if (!exact) {
    // Placement advice is skipped here: advise_joint runs one exhaustive
    // search per home variant.
    model::RefineOptions refine_options;
    refine_options.objective = options_.objective;
    refine_options.min_threads_per_app = options_.min_threads_per_app;
    refine_options.caps = caps;
    refine_options.foreign = foreign_;
    auto result =
        model::refine_search(machine, specs, fair_share(machine, views), refine_options);
    allocation = result.allocation;
    predicted = result.solution.total_gflops;
    stats.kind = SearchKind::kRefine;
    stats.evaluated = result.evaluated;
    stats.truncated = result.truncated;
  } else if (options_.advise_data_placement && caps.empty() && !foreign_.any()) {
    auto joint = model::advise_joint(machine, specs, options_.objective,
                                     options_.min_threads_per_app);
    allocation = joint.allocation;
    predicted = joint.solution.total_gflops;
    for (std::size_t a = 0; a < views.size(); ++a) {
      if (joint.apps[a].placement == model::Placement::kNumaBad &&
          joint.apps[a].home_node != specs[a].home_node) {
        suggested_home[a] = joint.apps[a].home_node;
      }
    }
    stats.kind = SearchKind::kFull;
    stats.evaluated = joint.evaluated;
    stats.pruned = joint.pruned;
    stats.bound_solves = joint.bound_solves;
    stats.app_classes = joint.app_classes;
    stats.placement_rounds = joint.placement_rounds;
  } else {
    auto result = model::exhaustive_search(machine, specs, options_.objective,
                                           /*require_full=*/true,
                                           options_.min_threads_per_app, caps, foreign_);
    allocation = result.allocation;
    predicted = result.solution.total_gflops;
    stats.evaluated = result.evaluated;
    stats.pruned = result.pruned;
    stats.bound_solves = result.bound_solves;
    stats.app_classes = result.app_classes;
    if (foreign_.any() && caps.empty()) {
      // Polish: the uniform candidate family cannot express "vacate one
      // node" (every app runs the same count on every node it uses), which
      // is precisely the right answer when a foreign hog occupies a node.
      // A hill-climb seeded from the full-search winner can drop/shift
      // threads off the hogged node; keep it only when it actually wins.
      model::RefineOptions polish;
      polish.objective = options_.objective;
      polish.min_threads_per_app = options_.min_threads_per_app;
      polish.foreign = foreign_;
      auto polished = model::refine_search(machine, specs, allocation, polish);
      stats.evaluated += polished.evaluated;
      stats.truncated = polished.truncated;
      if (model::improves(polished.objective_value, result.objective_value)) {
        allocation = polished.allocation;
        predicted = polished.solution.total_gflops;
      }
    }
    stats.kind = SearchKind::kFull;
  }
  stats.search_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - started)
          .count();
  stats.predicted_gflops = predicted;
  last_search_ = stats;
  last_ai_ = ai;
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
    out[a].suggested_data_home = suggested_home[a];
  }
  return out;
}

}  // namespace numashare::agent
