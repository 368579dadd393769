// Equivalence property suite for the streaming branch-and-bound search: on
// randomized machines (symmetric and lopsided), app mixes (NUMA-perfect /
// NUMA-bad / serial fractions), objectives, constraint flavours,
// administrative caps and foreign load, exhaustive_search must select
// exactly the allocation and objective value the materialize-then-evaluate
// brute force selects. A second family draws the daemon's scale (up to 12
// NUMA-perfect apps on up to 4x20 cores), where the search scores uniform
// candidates one node class at a time, plus near misses that must not; half
// of that family draws tie-heavy mixes from three AI values.
// Both engines evaluate candidates through the same solver arithmetic and
// replace the incumbent by the same improves() rule, so the comparison is
// exact (==), not approximate — any admissibility bug in the pruning bounds
// shows up as a hard mismatch here. Problems with repeated app specs are the
// one refinement: the search visits only the class-sorted member of each
// orbit of interchangeable apps, so it is held exactly to the brute force
// over those candidates, and to the unrestricted brute force within the
// improvement margin (the two walk different candidates, so their
// incumbents may settle on different points of a near-tie).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "support/search_reference.hpp"
#include "topology/machine.hpp"

namespace numashare::model {
namespace {

struct Problem {
  topo::Machine machine;
  std::vector<AppSpec> apps;
  bool require_full = false;
  std::uint32_t min_per_app = 0;
  std::vector<std::uint32_t> caps;
  ForeignLoad foreign;
};

Problem random_problem(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto nodes = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  const auto cores = 2 + static_cast<std::uint32_t>(rng.uniform_u64(7));
  Problem p;
  p.machine = topo::Machine::symmetric(nodes, cores, rng.uniform(0.25, 16.0),
                                       rng.uniform(4.0, 150.0), rng.uniform(0.5, 40.0));
  if (rng.uniform() < 0.3) {
    // Lopsided: bolt on a node with its own core count, peak and bandwidth,
    // plus random links to and from every existing node. Exercises the
    // smallest-node budget, the heterogeneous Amdahl cap and the
    // asymmetric-bandwidth flat bounds.
    const auto extra = p.machine.add_node(1 + static_cast<std::uint32_t>(rng.uniform_u64(8)),
                                          rng.uniform(0.25, 16.0), rng.uniform(4.0, 150.0));
    for (topo::NodeId n = 0; n < extra; ++n) {
      p.machine.set_link_bandwidth(n, extra, rng.uniform(0.5, 40.0));
      p.machine.set_link_bandwidth(extra, n, rng.uniform(0.5, 40.0));
    }
  }
  const auto total_nodes = p.machine.node_count();
  const auto n_apps = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  for (std::uint32_t a = 0; a < n_apps; ++a) {
    const double ai = rng.uniform(0.05, 16.0);
    if (rng.uniform() < 0.35) {
      p.apps.push_back(AppSpec::numa_bad(
          "bad", ai, static_cast<topo::NodeId>(rng.uniform_u64(total_nodes))));
    } else {
      p.apps.push_back(AppSpec::numa_perfect("perfect", ai));
    }
    if (rng.uniform() < 0.25) {
      p.apps.back().serial_fraction = rng.uniform(0.05, 0.7);
    }
  }
  p.require_full = rng.uniform() < 0.5;
  p.min_per_app = static_cast<std::uint32_t>(rng.uniform_u64(3));
  if (rng.uniform() < 0.3) {
    p.caps.assign(n_apps, 0xffffffffu);
    for (auto& cap : p.caps) {
      if (rng.uniform() < 0.6) {
        cap = static_cast<std::uint32_t>(rng.uniform_u64(p.machine.core_count() + 1));
      }
    }
  }
  return p;
}

constexpr Objective kObjectives[] = {Objective::kTotalGflops, Objective::kMinAppGflops,
                                     Objective::kProportionalFairness};

class SearchEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SearchEquivalence,
                         ::testing::Range<std::uint64_t>(1000, 1064));

/// Apps the search treats as one class: the same spec, the name aside.
bool interchangeable(const AppSpec& x, const AppSpec& y) {
  return x.ai == y.ai && x.placement == y.placement && x.home_node == y.home_node &&
         x.serial_fraction == y.serial_fraction;
}

/// Index of the previous app interchangeable with app a, or a itself when
/// a opens its class.
std::uint32_t class_prev(const std::vector<AppSpec>& apps, std::uint32_t a) {
  for (std::uint32_t p = a; p-- > 0;) {
    if (interchangeable(apps[p], apps[a])) return p;
  }
  return a;
}

std::uint32_t app_classes(const std::vector<AppSpec>& apps) {
  std::uint32_t classes = 0;
  for (std::uint32_t a = 0; a < apps.size(); ++a) classes += class_prev(apps, a) == a;
  return classes;
}

/// Caps switch app classes off, so only uncapped problems search them.
bool searches_classes(const Problem& p) {
  return p.caps.empty() && app_classes(p.apps) < p.apps.size();
}

/// The member of a uniform candidate's orbit the class-aware search visits:
/// each class's counts sorted ascending in app order. A candidate with a
/// row that is not node-constant (a node permutation) comes back as is: the
/// search keeps every node permutation.
Allocation class_sorted(const std::vector<AppSpec>& apps, const Allocation& alloc) {
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  const auto nodes_n = alloc.node_count();
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = 1; n < nodes_n; ++n) {
      if (alloc.threads(a, n) != alloc.threads(a, 0)) return alloc;
    }
  }
  Allocation out = alloc;
  for (AppId a = 0; a < apps_n; ++a) {
    if (class_prev(apps, a) != a) continue;
    std::vector<AppId> members;
    std::vector<std::uint32_t> counts;
    for (AppId b = a; b < apps_n; ++b) {
      if (!interchangeable(apps[a], apps[b])) continue;
      members.push_back(b);
      counts.push_back(alloc.threads(b, 0));
    }
    std::sort(counts.begin(), counts.end());
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (topo::NodeId n = 0; n < nodes_n; ++n) out.set_threads(members[i], n, counts[i]);
    }
  }
  return out;
}

/// Distance in representable doubles between x and y.
std::uint64_t ulp_distance(double x, double y) {
  const auto key = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t kx = key(x);
  const std::int64_t ky = key(y);
  return kx > ky ? static_cast<std::uint64_t>(kx - ky) : static_cast<std::uint64_t>(ky - kx);
}

/// How far a class-sorted candidate may score from its orbit's best member:
/// the objectives are symmetric in interchangeable apps, so only the order
/// of the additions behind a score differs. This suite sees at most 1.
constexpr std::uint64_t kMaxClassUlps = 8;

/// True when x and y differ by at most the improvement margin, relative to
/// the larger magnitude: how far two winners of the same problem may sit
/// apart when the search and the brute force walk different candidates.
bool within_margin(double x, double y) {
  return std::abs(x - y) <= kImprovementMargin * std::max(std::abs(x), std::abs(y));
}

/// Holds exhaustive_search to the brute force on `p` under `objective`, and
/// returns the search's result for its cost counters.
SearchResult expect_matches_brute_force(const Problem& p, Objective objective,
                                        std::uint64_t seed) {
  const auto reference = exhaustive_search_reference(
      p.machine, p.apps, objective, p.require_full, p.min_per_app, p.caps, p.foreign);
  const auto pruned = exhaustive_search(p.machine, p.apps, objective, p.require_full,
                                        p.min_per_app, p.caps, p.foreign);
  const std::string where =
      std::string("objective ") + to_string(objective) + " seed " + std::to_string(seed);
  EXPECT_EQ(pruned.app_classes, p.caps.empty() ? app_classes(p.apps) : p.apps.size()) << where;
  // Exact, not approximate: both engines run identical solver arithmetic
  // on the candidates they do evaluate, and pruning may only remove
  // candidates that provably cannot improve on the incumbent. With
  // repeated specs, the candidates are the class-sorted ones.
  const auto exact =
      !searches_classes(p)
          ? reference
          : exhaustive_search_reference(
                p.machine, p.apps, objective, p.require_full, p.min_per_app, p.caps, p.foreign,
                [&](const Allocation& c) { return class_sorted(p.apps, c) == c; });
  EXPECT_EQ(pruned.objective_value, exact.objective_value) << where;
  EXPECT_TRUE(pruned.allocation == exact.allocation)
      << where << "\npruned " << pruned.allocation.to_string() << "\nreference "
      << exact.allocation.to_string();
  EXPECT_LE(pruned.evaluated, exact.evaluated);
  if (searches_classes(p)) {
    // The symmetry argument (docs/MODEL.md §7 "App classes"): the brute
    // force's winner, class-sorted, scores within a few ulps of it, so the
    // search's winner is within the improvement margin of the brute
    // force's; when the two tie bitwise, it is the search's winner too.
    EXPECT_TRUE(within_margin(pruned.objective_value, reference.objective_value))
        << where << ": " << pruned.objective_value << " vs " << reference.objective_value;
    const auto canonical = class_sorted(p.apps, reference.allocation);
    const double canonical_value =
        score(solve(p.machine, p.apps, canonical, {.foreign = p.foreign}), objective);
    EXPECT_LE(ulp_distance(canonical_value, reference.objective_value), kMaxClassUlps) << where;
    if (canonical_value == reference.objective_value) {
      EXPECT_EQ(pruned.objective_value, reference.objective_value) << where;
      EXPECT_TRUE(pruned.allocation == canonical)
          << where << "\npruned " << pruned.allocation.to_string() << "\nsorted reference "
          << canonical.to_string();
    }
  }
  if (!p.caps.empty()) {
    // Caps disable pruning (the re-grant breaks per-app bound
    // admissibility) and app classes (it runs in app order): every
    // candidate except deduped permutation twins is evaluated, exactly like
    // the reference.
    EXPECT_EQ(pruned.evaluated + pruned.deduped, reference.evaluated);
    EXPECT_EQ(pruned.pruned, 0u);
  }
  return pruned;
}

TEST_P(SearchEquivalence, PrunedMatchesBruteForce) {
  const auto p = random_problem(GetParam());
  for (const auto objective : kObjectives) expect_matches_brute_force(p, objective, GetParam());
}

/// The node-class family: what the daemon decides, and the near misses
/// that must take the per-node solve instead.
enum class Shape {
  kNodeClass,          // symmetric, all NUMA-perfect, node-identical foreign, no caps
  kOneNumaBad,         // ... but one app keeps its data on one node
  kOneNodeForeign,     // ... but one node's foreign load differs
  kCapped,             // ... but with administrative caps
  kAsymmetricNode,     // ... but with a bolted-on node of its own shape
};

/// Candidate ceiling per drawn problem: the brute force materializes and
/// solves every candidate, and the search-equiv label also runs under
/// ASan/UBSan.
constexpr std::uint64_t kMaxNodeClassCandidates = 8000;

/// Which corner a tie-heavy draw forces; the other draws leave all to rng.
enum class Corner { kPartial, kNoFloor, kForeign, kDrawn };

/// `ties` draws every AI from a 3-value multiset, one value satisfied at the
/// baseline share: many candidates then tie (apps of one AI swap counts,
/// satisfied apps run at the compute cap), which exercises the pruning
/// margin against the closed-form bound.
Problem node_class_problem(std::uint64_t seed, Shape shape, bool ties, Corner corner) {
  Xoshiro256 rng(seed);
  Problem p;
  std::uint32_t nodes = 0;
  std::uint32_t cores = 0;
  std::uint32_t n_apps = 0;
  do {
    nodes = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
    cores = 8 + static_cast<std::uint32_t>(rng.uniform_u64(13));
    n_apps = 4 + static_cast<std::uint32_t>(rng.uniform_u64(std::min(cores, 12u) - 3));
    p.require_full = rng.uniform() < 0.7 && corner != Corner::kPartial;
    // The daemon keeps every app running with one thread per node.
    p.min_per_app = rng.uniform() < 0.75 ? 1 : static_cast<std::uint32_t>(rng.uniform_u64(3));
    if (corner == Corner::kNoFloor) p.min_per_app = 0;
    p.machine = topo::Machine::symmetric(nodes, cores, rng.uniform(0.25, 16.0),
                                         rng.uniform(4.0, 150.0), rng.uniform(0.5, 40.0));
  } while (count_candidates(p.machine, n_apps, p.require_full, p.min_per_app) >
           kMaxNodeClassCandidates);
  // Per-thread demand from 1/8 to 16 times the per-core baseline share, so
  // a mix spans satisfied, water-filled and starved apps.
  const double peak = p.machine.core(0).peak_gflops;
  const double baseline = p.machine.node(0).memory_bandwidth / cores;
  double multiset[3] = {};
  if (ties) {
    multiset[0] = peak / (baseline * std::exp2(rng.uniform(-3.0, 0.0)));
    multiset[1] = peak / (baseline * std::exp2(rng.uniform(-3.0, 4.0)));
    multiset[2] = peak / (baseline * std::exp2(rng.uniform(-3.0, 4.0)));
  }
  for (std::uint32_t a = 0; a < n_apps; ++a) {
    const double ai = ties ? multiset[rng.uniform_u64(3)]
                           : peak / (baseline * std::exp2(rng.uniform(-3.0, 4.0)));
    p.apps.push_back(AppSpec::numa_perfect("perfect", ai));
    if (rng.uniform() < 0.3) p.apps.back().serial_fraction = rng.uniform(0.05, 0.7);
  }
  if (shape == Shape::kAsymmetricNode) {
    const auto extra = p.machine.add_node(1 + static_cast<std::uint32_t>(rng.uniform_u64(20)),
                                          rng.uniform(0.25, 16.0), rng.uniform(4.0, 150.0));
    for (topo::NodeId n = 0; n < extra; ++n) {
      p.machine.set_link_bandwidth(n, extra, rng.uniform(0.5, 40.0));
      p.machine.set_link_bandwidth(extra, n, rng.uniform(0.5, 40.0));
    }
  }
  const auto total_nodes = p.machine.node_count();
  // Node-identical foreign load (either vector may be empty).
  if (rng.uniform() < 0.5 || corner == Corner::kForeign) {
    p.foreign.busy_cores.assign(total_nodes, rng.uniform(0.0, cores));
  }
  if (rng.uniform() < 0.5 || corner == Corner::kForeign) {
    p.foreign.bandwidth.assign(total_nodes,
                               rng.uniform(0.0, p.machine.node(0).memory_bandwidth));
  }
  switch (shape) {
    case Shape::kNodeClass:
    case Shape::kAsymmetricNode:
      break;
    case Shape::kOneNumaBad: {
      auto& app = p.apps[rng.uniform_u64(n_apps)];
      app = AppSpec::numa_bad("bad", app.ai, static_cast<topo::NodeId>(rng.uniform_u64(nodes)));
      break;
    }
    case Shape::kOneNodeForeign: {
      const auto odd = static_cast<topo::NodeId>(rng.uniform_u64(total_nodes));
      if (rng.uniform() < 0.5) {
        p.foreign.busy_cores.resize(total_nodes, 0.0);
        p.foreign.busy_cores[odd] += rng.uniform(0.5, cores);
      } else {
        p.foreign.bandwidth.resize(total_nodes, 0.0);
        p.foreign.bandwidth[odd] += rng.uniform(1.0, p.machine.node(0).memory_bandwidth);
      }
      break;
    }
    case Shape::kCapped:
      p.caps.assign(n_apps, 0xffffffffu);
      for (auto& cap : p.caps) {
        if (rng.uniform() < 0.6) {
          cap = static_cast<std::uint32_t>(rng.uniform_u64(p.machine.core_count() + 1));
        }
      }
      break;
  }
  return p;
}

class NodeClassEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, NodeClassEquivalence,
                         ::testing::Range<std::uint64_t>(2000, 2048));

TEST_P(NodeClassEquivalence, MatchesBruteForce) {
  // Half the seeds draw node-class problems; the rest cycle through the
  // four fall-back shapes. Half of each (blocks of eight seeds) are
  // tie-heavy, and those cycle through forcing a partial allocation, no
  // per-app floor and node-identical foreign load on both axes.
  const std::uint64_t seed = GetParam();
  const Shape shape = seed % 2 == 0 ? Shape::kNodeClass : static_cast<Shape>(1 + (seed / 2) % 4);
  const bool ties = (seed / 8) % 2 == 0;
  const Corner corner = ties ? static_cast<Corner>((seed / 2) % 4) : Corner::kDrawn;
  const auto p = node_class_problem(seed, shape, ties, corner);
  for (const auto objective : kObjectives) expect_matches_brute_force(p, objective, seed);
}

TEST(NodeClassSearch, IdleCoreCanWin) {
  // The winner leaves one core idle: that core's baseline bandwidth earns
  // more in the water-fill pool than on another thread of either app. The
  // closed-form bound must price an idle core (b * aimax); without that
  // term the search cuts the winner and returns a full allocation.
  Problem p;
  p.machine = topo::Machine::symmetric(1, 6, 2.45, 143.0, 10.0);
  p.apps = {AppSpec::numa_perfect("a", 0.03), AppSpec::numa_perfect("b", 0.05)};
  p.apps[1].serial_fraction = 0.4;
  const auto result = expect_matches_brute_force(p, Objective::kTotalGflops, 0);
  EXPECT_EQ(result.allocation.total(), 5u);
}

/// The paper's 4x20 Skylake preset with NUMA-perfect apps of the given AIs,
/// every core granted and every app kept running (75 582 candidates for 12
/// apps).
Problem skylake(const std::vector<double>& ais) {
  Problem p;
  p.machine = topo::Machine::symmetric(4, 20, 0.29, 100.0, 10.0);
  for (const double ai : ais) p.apps.push_back(AppSpec::numa_perfect("perfect", ai));
  p.require_full = true;
  p.min_per_app = 1;
  return p;
}

/// The shipping shape's twelve AIs in an order join_churn's membership
/// really reaches (search_solves@4x20x12_churn).
const std::vector<double> kJoinChurnOrder = {1.0 / 32, 1.0 / 8,  1.0,      1.0 / 64,
                                             1.0 / 8,  1.0 / 32, 1.0 / 2,  1.0 / 32,
                                             1.0 / 16, 1.0 / 8,  1.0 / 64, 1.0 / 16};

// The cost gates below are deterministic solve counts, pinned at what the
// search spends with app classes and the improvement margin: the
// closed-form node bound, the class floors and the plateau cuts only remove
// partial solves and evaluations.

TEST(NodeClassSearch, ShippingShape) {
  // What the daemon decides at its largest join_churn membership, in the
  // order the scale bench commits (search_solves@4x20x12): five classes of
  // sizes 3, 3, 2, 2 and 2. 7 782 solves without app classes and 1 028
  // without the improvement margin.
  const auto p = skylake({1.0 / 32, 1.0 / 8, 1.0 / 64, 1.0 / 64, 1.0 / 32, 1.0 / 32, 1.0 / 16,
                          1.0 / 16, 1.0 / 8, 1.0 / 8, 1.0, 1.0});
  const auto result = expect_matches_brute_force(p, Objective::kTotalGflops, 0);
  EXPECT_EQ(result.app_classes, 5u);
  EXPECT_LE(result.evaluated + result.bound_solves, 11u);
}

TEST(NodeClassSearch, JoinChurnOrder) {
  // The same shape in the join_churn order, which costs the search more
  // than the committed order: 104 767 solves without the closed-form bound,
  // 61 457 without app classes and 6 011 without the improvement margin.
  const auto p = skylake(kJoinChurnOrder);
  const auto result = expect_matches_brute_force(p, Objective::kTotalGflops, 0);
  EXPECT_EQ(result.app_classes, 6u);
  EXPECT_LE(result.evaluated + result.bound_solves, 114u);
}

TEST(NodeClassSearch, PlateauPrefix) {
  // The first seven apps of the join_churn order: every winner sits on the
  // plateau at the machine's compute peak (4 x 20 x 0.29 GFLOPS), where
  // every bound equals the incumbent. Cutting only bounds strictly below
  // it walked the whole plateau, 7 092 solves, for a winner 3 ulps higher.
  const auto p = skylake({kJoinChurnOrder.begin(), kJoinChurnOrder.begin() + 7});
  const auto result = expect_matches_brute_force(p, Objective::kTotalGflops, 0);
  EXPECT_DOUBLE_EQ(result.objective_value, 4 * 20 * 0.29);
  EXPECT_LE(result.evaluated + result.bound_solves, 6u);
}

TEST(NodeClassSearch, WinnerJustPastTheMargin) {
  // A compute-bound app with c threads and a memory-bound one with 8 - c
  // share one 8-core node. The compute app's threads draw 0.01 GB/s each,
  // so the total is c + min(8 - c, ai * (10 - 0.01 c)), and the memory
  // app's AI puts c = 3 at 8 (1 - 1e-8): ten margins below the
  // compute-peak plateau that c >= 4 reaches. The bounds over c = 4 equal
  // the plateau, so a cut that fires even 1e-8 relative too early keeps
  // c = 3; the random families above do not notice one 1e-4 too early.
  constexpr double kGap = 1e-8;
  Problem p;
  p.machine = topo::Machine::symmetric(1, 8, 1.0, 10.0, 5.0);
  p.apps = {AppSpec::numa_perfect("compute", 100.0),
            AppSpec::numa_perfect("memory", (5.0 - 8 * kGap) / 9.97)};
  p.require_full = true;
  p.min_per_app = 1;
  const auto runner_up = Allocation::uniform_per_node(p.machine, {3, 5});
  ASSERT_NEAR(solve(p.machine, p.apps, runner_up).total_gflops, 8 * (1 - kGap), 1e-12);
  const auto result = expect_matches_brute_force(p, Objective::kTotalGflops, 0);
  EXPECT_EQ(result.allocation.threads(0, 0), 4u);
  EXPECT_DOUBLE_EQ(result.objective_value, 8.0);
}

/// True when every class's counts are non-decreasing in app order.
bool sorted_within_classes(const std::vector<AppSpec>& apps, const Allocation& alloc) {
  for (AppId a = 0; a < apps.size(); ++a) {
    const AppId p = class_prev(apps, a);
    if (p != a && alloc.app_total(a) < alloc.app_total(p)) return false;
  }
  return true;
}

TEST(AppClassSearch, WinnerSortedWithinClasses) {
  // Under every objective the winner is the class-sorted member of its
  // orbit, on the node-class path (tie-heavy seeds and the join_churn
  // order) as on the solve_into path (the same seeds with one app made
  // NUMA-bad, its class mates with it).
  std::vector<Problem> problems;
  for (std::uint64_t seed = 2000; seed < 2008; ++seed) {
    problems.push_back(node_class_problem(seed, Shape::kNodeClass, /*ties=*/true, Corner::kDrawn));
    auto bad = problems.back();
    for (auto& app : bad.apps) {
      if (app.ai == bad.apps[0].ai) app = AppSpec::numa_bad("bad", app.ai, 0);
    }
    problems.push_back(std::move(bad));
  }
  problems.push_back(skylake(kJoinChurnOrder));
  std::uint32_t with_classes = 0;
  for (const auto& p : problems) {
    with_classes += searches_classes(p);
    for (const auto objective : kObjectives) {
      const auto result = exhaustive_search(p.machine, p.apps, objective, p.require_full,
                                            p.min_per_app, p.caps, p.foreign);
      EXPECT_TRUE(sorted_within_classes(p.apps, result.allocation))
          << to_string(objective) << "\n" << result.allocation.to_string();
    }
  }
  EXPECT_GE(with_classes, problems.size() - 2);
}

TEST(AppClassSearch, CapsEvaluateEveryCandidate) {
  // Twins under caps: the re-grant hands shaved threads out in app order, so
  // swapping the twins' counts changes the capped allocation. Classes are
  // off and every candidate is evaluated, as without twins.
  Problem p;
  p.machine = topo::Machine::symmetric(2, 8, 1.0, 20.0, 5.0);
  p.apps = {AppSpec::numa_perfect("a", 0.1), AppSpec::numa_perfect("b", 0.1),
            AppSpec::numa_perfect("c", 2.0)};
  p.min_per_app = 1;
  p.caps = {3, 0xffffffffu, 5};
  for (const auto objective : kObjectives) {
    const auto result = expect_matches_brute_force(p, objective, 0);
    EXPECT_EQ(result.app_classes, 3u);
    EXPECT_EQ(result.evaluated, count_candidates(p.machine, 3, p.require_full, p.min_per_app));
  }
}

/// `p` and a copy whose last app's AI is one ulp off, which breaks its
/// class: the class-aware search must walk a smaller tree on `p`, and both
/// searches must match the brute force.
void expect_class_cuts(const Problem& p) {
  auto split = p;
  split.apps.back().ai = std::nextafter(split.apps.back().ai, 1e9);
  ASSERT_TRUE(searches_classes(p));
  ASSERT_EQ(app_classes(split.apps), app_classes(p.apps) + 1);
  for (const auto objective : kObjectives) {
    const auto twins = expect_matches_brute_force(p, objective, 0);
    const auto distinct = expect_matches_brute_force(split, objective, 0);
    // Leaves reached plus subtrees cut: what the search walked.
    EXPECT_LT(twins.visited + twins.pruned, distinct.visited + distinct.pruned)
        << to_string(objective);
  }
}

TEST(AppClassSearch, NumaBadTwinsShareAHome) {
  // NUMA-bad apps take the per-node solve_into path; twins homed on the
  // same node form one class.
  Problem p;
  p.machine = topo::Machine::symmetric(2, 10, 1.0, 30.0, 8.0);
  p.apps = {AppSpec::numa_perfect("p", 0.5), AppSpec::numa_bad("x", 0.08, 1),
            AppSpec::numa_bad("y", 0.08, 1)};
  p.min_per_app = 1;
  expect_class_cuts(p);
  // The same AI homed elsewhere is another class.
  p.apps[2].home_node = 0;
  EXPECT_EQ(exhaustive_search(p.machine, p.apps, Objective::kTotalGflops, false, 1).app_classes,
            3u);
}

TEST(AppClassSearch, SerialTwinsOnTheSolveIntoPath) {
  // A lopsided machine takes solve_into too; twins with a serial fraction
  // share Amdahl's cap and form one class.
  Problem p;
  p.machine = topo::Machine::symmetric(2, 8, 1.0, 25.0, 6.0);
  const auto extra = p.machine.add_node(12, 2.0, 40.0);
  for (topo::NodeId n = 0; n < extra; ++n) {
    p.machine.set_link_bandwidth(n, extra, 6.0);
    p.machine.set_link_bandwidth(extra, n, 6.0);
  }
  p.apps = {AppSpec::numa_perfect("s", 0.3), AppSpec::numa_perfect("m", 4.0),
            AppSpec::numa_perfect("t", 0.3)};
  p.apps[0].serial_fraction = 0.2;
  p.apps[2].serial_fraction = 0.2;
  p.require_full = true;
  expect_class_cuts(p);
}

TEST_P(SearchEquivalence, RefineWithoutPenaltyMatchesGreedy) {
  // refine_search is a plain greedy climb, so it must stop at a local
  // optimum of its move set: no single add, drop or shift improves() on the
  // result. Neighbours are rebuilt here and scored with solve(),
  // independently of the climb's bookkeeping.
  const auto p = random_problem(GetParam());
  const auto apps_n = static_cast<AppId>(p.apps.size());
  for (const auto objective : kObjectives) {
    RefineOptions options;
    options.objective = objective;
    const auto best =
        refine_search(p.machine, p.apps, Allocation::even(p.machine, apps_n), options);
    ASSERT_FALSE(best.truncated);
    const double value = best.objective_value;
    EXPECT_EQ(value, score(solve(p.machine, p.apps, best.allocation), objective));
    for (topo::NodeId n = 0; n < p.machine.node_count(); ++n) {
      for (AppId a = 0; a < apps_n; ++a) {
        // to == apps_n adds a thread for `a`, to == a drops one, else shifts one a -> to.
        for (AppId to = 0; to <= apps_n; ++to) {
          auto next = best.allocation;
          const bool add = to == apps_n;
          const bool blocked =
              add ? next.node_total(n) == p.machine.cores_in_node(n) : next.threads(a, n) == 0;
          if (blocked) continue;
          next.set_threads(a, n, add ? next.threads(a, n) + 1 : next.threads(a, n) - 1);
          if (!add && to != a) next.set_threads(to, n, next.threads(to, n) + 1);
          EXPECT_FALSE(improves(score(solve(p.machine, p.apps, next), objective), value))
              << to_string(objective) << " seed " << GetParam() << "\nclimb "
              << best.allocation.to_string() << "\nbetter " << next.to_string();
        }
      }
    }
  }
}

TEST_P(SearchEquivalence, RefineNeverWorsensTheSeed) {
  // The climb only ever takes an improving move, so whatever it returns
  // scores at least the seed.
  const auto p = random_problem(GetParam());
  const auto seed = Allocation::even(p.machine, static_cast<std::uint32_t>(p.apps.size()));
  const double seed_value = score(solve(p.machine, p.apps, seed), Objective::kTotalGflops);
  const auto refined = refine_search(p.machine, p.apps, seed);
  EXPECT_GE(refined.objective_value + 1e-9 * std::max(1.0, std::abs(seed_value)), seed_value)
      << "seed " << GetParam();
}

TEST_P(SearchEquivalence, RefineHonoursCaps) {
  // From an empty seed every thread the climb grants is one it chose: none
  // may take an app above its cap.
  const auto p = random_problem(GetParam());
  if (p.caps.empty()) return;
  const auto apps_n = static_cast<std::uint32_t>(p.apps.size());
  RefineOptions options;
  options.caps = p.caps;
  const auto refined =
      refine_search(p.machine, p.apps, Allocation(apps_n, p.machine.node_count()), options);
  for (AppId a = 0; a < apps_n; ++a) {
    EXPECT_LE(refined.allocation.app_total(a), p.caps[a]) << "app " << a;
  }
}

TEST(RefineBudget, TruncatesAtTheSolveBudget) {
  // 32 compute-bound apps seeded with one thread each on a 4x64 machine:
  // every round adds one thread, and the 224 rounds of over a thousand
  // solves each outrun the budget long before the machine fills.
  const auto machine = topo::Machine::symmetric(4, 64, 10.0, 32.0, 10.0);
  std::vector<AppSpec> apps;
  Allocation seed(32, machine.node_count());
  for (AppId a = 0; a < 32; ++a) {
    apps.push_back(AppSpec::numa_perfect("compute", 100.0));
    seed.set_threads(a, a % machine.node_count(), 1);
  }
  const double seed_value = score(solve(machine, apps, seed), Objective::kTotalGflops);
  const auto refined = refine_search(machine, apps, seed);
  EXPECT_TRUE(refined.truncated);
  EXPECT_EQ(refined.evaluated, kMaxSearchSolves);
  EXPECT_TRUE(refined.allocation.validate(machine));
  EXPECT_GT(refined.objective_value, seed_value);
  EXPECT_LT(refined.allocation.total(), machine.core_count());
}

TEST_P(SearchEquivalence, RefineRespectsMinThreadFloor) {
  const auto p = random_problem(GetParam());
  const auto apps_n = static_cast<std::uint32_t>(p.apps.size());
  const auto start = Allocation::even(p.machine, apps_n);
  // Only meaningful when the even split actually grants everyone the floor.
  RefineOptions options;
  options.min_threads_per_app = 1;
  bool feasible = true;
  for (AppId a = 0; a < apps_n; ++a) feasible &= start.app_total(a) >= 1;
  if (!feasible) return;
  const auto refined = refine_search(p.machine, p.apps, start, options);
  for (AppId a = 0; a < apps_n; ++a) {
    EXPECT_GE(refined.allocation.app_total(a), 1u) << "app " << a << " starved";
  }
}

}  // namespace
}  // namespace numashare::model
