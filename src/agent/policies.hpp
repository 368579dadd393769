// The concrete allocation policies the paper discusses.
//
//  * FairSharePolicy — "a simple core allocation strategy would be to give
//    each application a fair share of the cores, so that the total number of
//    worker threads across all applications is equal to the total number of
//    available CPU cores." Option-1 (total counts) or option-3 (per-node)
//    flavours.
//  * ProducerConsumerPolicy — the paper's [10] experiment: keep the producer
//    "only ahead by a small number of iterations" by shifting threads
//    between the two applications based on their progress counters.
//  * ModelGuidedPolicy — the NUMA-aware brain of §III: feed per-app
//    arithmetic intensities (self-advertised in telemetry) to the roofline
//    model and issue per-node thread targets. Every decision is one
//    model::decide (core/optimizer.hpp): exact or fair-share seed, one
//    climb within model::kMaxSearchSolves solves, and at most one
//    data-home suggestion for a NUMA-bad app. Threads are priced at the
//    data homes the apps advertise now.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agent/policy.hpp"
#include "core/optimizer.hpp"

namespace numashare::agent {

class FairSharePolicy final : public Policy {
 public:
  enum class Flavor { kTotalThreads, kPerNode };
  explicit FairSharePolicy(Flavor flavor = Flavor::kPerNode) : flavor_(flavor) {}

  const char* name() const override { return "fair-share"; }
  std::vector<Directive> decide(const topo::Machine& machine,
                                const std::vector<AppView>& views) override;
  void on_membership_change() override { issued_ = false; }

 private:
  Flavor flavor_;
  bool issued_ = false;
  std::size_t last_app_count_ = 0;
};

/// The producer is the agent's first app (index 0), the consumer its second.
struct ProducerConsumerOptions {
  /// Keep producer progress ahead of consumer progress within this band.
  std::uint64_t min_lead = 2;
  std::uint64_t max_lead = 8;
};

class ProducerConsumerPolicy final : public Policy {
 public:
  using Options = ProducerConsumerOptions;
  explicit ProducerConsumerPolicy(ProducerConsumerOptions options = {}) : options_(options) {}

  const char* name() const override { return "producer-consumer"; }
  std::vector<Directive> decide(const topo::Machine& machine,
                                const std::vector<AppView>& views) override;
  void on_membership_change() override { initialized_ = false; }

  std::uint32_t producer_threads() const { return producer_threads_; }

 private:
  ProducerConsumerOptions options_;
  bool initialized_ = false;
  std::uint32_t producer_threads_ = 0;
  std::uint32_t consumer_threads_ = 0;
};

class ModelGuidedPolicy final : public Policy {
 public:
  /// Which seed the last issued directives grew from (observability for
  /// tests and status tooling): kFull is the exact search, kRefine the
  /// fair share that replaces it above kMaxSearchSolves candidates.
  enum class SearchKind { kNone, kFull, kRefine };
  /// What the latest decision cost; the daemon journals it with each
  /// reallocation. The counters are model::decide's, summed over its seed,
  /// climb and placement advice.
  struct SearchStats {
    SearchKind kind = SearchKind::kNone;
    std::uint64_t evaluated = 0;  // model solves on whole allocations
    std::uint64_t pruned = 0;
    std::uint64_t bound_solves = 0;
    /// Classes of interchangeable apps the exact seed ran over; zero when
    /// the fair share seeded the decision.
    std::uint32_t app_classes = 0;
    /// Data-home moves the decision suggested: 1 when some NUMA-bad app was
    /// told a better home, else 0.
    std::uint32_t home_moves = 0;
    double predicted_gflops = 0.0;
    double search_us = 0.0;  // wall time of the whole decide
    bool truncated = false;  // the solve budget stopped the decision
  };

  const char* name() const override { return "model-guided"; }
  std::vector<Directive> decide(const topo::Machine& machine,
                                const std::vector<AppView>& views) override;
  void on_membership_change() override {
    last_ai_.clear();
    last_homes_.clear();
    last_allocation_.reset();
    last_search_ = {};
  }
  /// Price opaque background consumers into every subsequent search. A
  /// change beyond the foreign drift gates forces a re-search on the next
  /// decide() even when app AIs are steady.
  void on_foreign_load(const model::ForeignLoad& load) override;

  /// The allocation behind the last issued directives (empty before then).
  const std::optional<model::Allocation>& last_allocation() const { return last_allocation_; }
  SearchKind last_search_kind() const { return last_search_.kind; }
  const SearchStats& last_search() const { return last_search_; }

 private:
  std::vector<double> last_ai_;
  std::vector<std::uint32_t> last_homes_;  // data homes priced into the last decision
  std::optional<model::Allocation> last_allocation_;
  SearchStats last_search_;
  model::ForeignLoad foreign_;          // latest reported load
  model::ForeignLoad decided_foreign_;  // load priced into the last decision
  bool foreign_dirty_ = false;          // drifted past the gates since then
};

}  // namespace numashare::agent
