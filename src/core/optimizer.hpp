// Allocation search over the model — what a model-guided agent runs to pick
// per-node thread counts (paper §III: "we need to be aware of the NUMA
// architecture and also of the way memory is used by the application").
//
// Two engines:
//  * exhaustive_search — streaming branch-and-bound over the
//    restricted-but-expressive families the paper discusses
//    (uniform-per-node counts; node-permutation assignments). Candidates are
//    visited via an in-place enumerator (nothing is materialized) and
//    subtrees are cut with admissible upper bounds, so it provably returns
//    the same winner as brute force under the same improves() rule at a
//    fraction of the solves
//    (docs/MODEL.md "Search cost and pruning"). On symmetric machines with
//    NUMA-perfect apps it solves one memory controller per uniform
//    candidate and reuses it for every identical node, bitwise-exactly.
//    Interchangeable apps (same AI, placement, home and serial fraction)
//    are searched once: within each such class, counts never decrease in
//    app order, so with repeated specs the winner is brute force's over
//    those class-sorted candidates;
//  * refine_search — hill-climbing over single-thread moves from a seed
//    allocation, bounded by kMaxSearchSolves. It can express per-node
//    counts (paper Option 3), which the uniform family cannot: a climb from
//    the exact winner is how a decision vacates a foreign-occupied node or
//    keeps a NUMA-bad app off remote nodes.
// Neither engine is a decision on its own: decide() runs the one sequence
// every caller uses — exact or fair-share seed, one climb, one data-home
// suggestion — within one solve budget. exhaustive_search itself has no
// budget.
// The original materialize-then-evaluate brute force that exhaustive_search
// is held to lives with the tests (tests/support/search_reference.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/roofline.hpp"

namespace numashare::model {

enum class Objective {
  /// Maximize machine throughput (the paper's comparison metric).
  kTotalGflops,
  /// Maximize the slowest application (egalitarian fairness).
  kMinAppGflops,
  /// Maximize sum of log(app GFLOPS) (proportional fairness).
  kProportionalFairness,
};

double score(const Solution& solution, Objective objective);
const char* to_string(Objective objective);

/// The relative margin by which a candidate must beat the incumbent to
/// replace it (docs/MODEL.md §7 "Improvement margin").
inline constexpr double kImprovementMargin = 1e-9;

/// The one improvement rule every model search ranks by: `value` replaces
/// `incumbent` only when it beats it by more than kImprovementMargin
/// relative, so a rounding step never picks a winner. Any finite value
/// improves on an incumbent of -infinity.
inline bool improves(double value, double incumbent) {
  return std::isfinite(incumbent)
             ? value > incumbent + kImprovementMargin * std::abs(incumbent)
             : value > incumbent;
}

struct SearchResult {
  Allocation allocation;
  Solution solution;
  double objective_value = 0.0;
  std::uint64_t evaluated = 0;  // full model solves on candidate allocations
  /// Streaming-engine accounting (zero for the reference/hill-climb engines
  /// where not meaningful): candidates reached by the enumerator, subtrees
  /// and leaves cut by the admissible bounds, partial-prefix model solves
  /// spent computing those bounds, and node-permutation candidates skipped
  /// as duplicates of the uniform family.
  std::uint64_t visited = 0;
  std::uint64_t pruned = 0;
  std::uint64_t bound_solves = 0;
  std::uint64_t deduped = 0;
  /// exhaustive_search only: the classes of interchangeable apps it searched
  /// (apps with equal AI, placement, home and serial fraction share one;
  /// every app is its own class under caps). Zero for the climb.
  std::uint32_t app_classes = 0;
  /// The solve budget (refine_search's, or decide()'s for the whole
  /// decision) stopped the search, which returned its incumbent.
  bool truncated = false;
};

/// The solve budget of one decision: decide() seeds with exhaustive_search
/// only when count_candidates() is at most this, and spends at most this
/// many model solves in total; refine_search alone never spends more.
inline constexpr std::uint64_t kMaxSearchSolves = std::uint64_t{1} << 17;

/// All allocations where app `a` runs counts[a] threads on *every* node, the
/// per-node sum not exceeding the core count. `require_full` keeps only
/// allocations using every core (the paper's no-idle-cores scenarios).
/// `min_threads_per_app` excludes allocations that starve an application
/// below that per-node count — the paper's scenarios implicitly keep every
/// app running, without which pure-throughput search degenerates to handing
/// the whole machine to the most compute-bound code.
std::vector<Allocation> enumerate_uniform(const topo::Machine& machine, std::uint32_t apps,
                                          bool require_full,
                                          std::uint32_t min_threads_per_app = 0);

/// All assignments of whole nodes to apps (apps == node_count), i.e. every
/// permutation in Figure 2c style. Distinguishable only when some app is
/// NUMA-bad or the machine is asymmetric.
std::vector<Allocation> enumerate_node_permutations(const topo::Machine& machine);

/// Exhaustive search over the union of the two families above.
///
/// `caps` (empty = uncapped) bounds each app's *total* thread count — the
/// compliance layer's administrative ceiling on quarantined/laggard clients.
/// Candidates are clamped to respect the caps and the capacity a cap frees
/// up is re-granted to apps with headroom, so reclaimed cores stay grantable
/// instead of idling.
///
/// `foreign` (empty = none) injects opaque background consumers into every
/// candidate solve, so the search prices foreign contention and steers
/// cooperating apps away from occupied nodes. Foreign load can only lower a
/// candidate's true score, so the branch-and-bound ceilings stay admissible;
/// they are additionally *tightened* with the post-foreign effective
/// bandwidth and compute (never loosened — see docs/FOREIGN.md).
SearchResult exhaustive_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                               Objective objective, bool require_full = false,
                               std::uint32_t min_threads_per_app = 0,
                               const std::vector<std::uint32_t>& caps = {},
                               const ForeignLoad& foreign = {});

/// The cap enforcement exhaustive_search applies to every candidate when
/// `caps` is non-empty: shave capped apps from the last node down, then
/// re-grant exactly the freed cores (same nodes), round-robin, to apps still
/// under their caps. Cores idle only when every app is capped out.
void apply_caps(const topo::Machine& machine, Allocation& allocation,
                const std::vector<std::uint32_t>& caps);

/// The cap-honouring fair share: a round-robin of every node's cores over
/// `apps` apps, the cursor carrying over from node to node, skipping apps
/// at their cap (`caps`: empty = uncapped, as in exhaustive_search). With
/// more apps than cores the first core_count() apps hold one core each.
Allocation fair_share(const topo::Machine& machine, std::uint32_t apps,
                      const std::vector<std::uint32_t>& caps = {});

/// Closed-form size of the candidate set exhaustive_search ranges over
/// (uniform family + node permutations when apps == node_count), after the
/// same min_threads_per_app clamping the search applies. Saturates at
/// UINT64_MAX. Lets benches and callers reason about search cost without
/// enumerating anything.
std::uint64_t count_candidates(const topo::Machine& machine, std::uint32_t apps,
                               bool require_full, std::uint32_t min_threads_per_app = 0);

struct RefineOptions {
  Objective objective = Objective::kTotalGflops;
  /// No move may push an app's *total* thread count below this floor (the
  /// analogue of exhaustive_search's per-node minimum: it keeps every app
  /// that holds a thread running).
  std::uint32_t min_threads_per_app = 0;
  /// Per-app ceiling on *total* threads (empty = uncapped), as in
  /// exhaustive_search. No move takes an app above its cap; a seed already
  /// above it may only shrink there.
  std::vector<std::uint32_t> caps;
  /// Opaque background consumers priced into every candidate solve (empty =
  /// none). The climb's drop moves are what let a decision *vacate* a
  /// foreign-occupied node, which the uniform exhaustive family cannot
  /// express.
  ForeignLoad foreign;
};

/// Hill-climb from `seed` using single-thread moves: remove a thread, add
/// one on a free core, or shift one between apps on the same node, taking
/// the best move each round until none improves (a local optimum) or the
/// climb has spent kMaxSearchSolves solves (then `truncated` is set and the
/// incumbent returned; it never scores below the seed). The budget counts
/// solves, not time, so the result is a pure function of the inputs.
SearchResult refine_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& seed, const RefineOptions& options = {});

struct Decision {
  /// The allocation to enact, priced at the data homes `apps` carry now;
  /// `evaluated` and `bound_solves` sum the seed, climb and advice.
  SearchResult search;
  bool exact_seed = false;  // else the fair share seeded the climb
  /// The data-home move that gains the most machine GFLOPS, if any.
  struct HomeMove {
    AppId app = 0;
    topo::NodeId home = 0;
  };
  std::optional<HomeMove> move;
};

/// The one model decision, within kMaxSearchSolves solves in total
/// (docs/MODEL.md §7 "The decide sequence"): seed with exhaustive_search
/// when count_candidates() is at most kMaxSearchSolves, else fair_share;
/// climb from the seed under the same caps and foreign load, except on
/// separable problems; then advise_placement (placement.hpp) on the result
/// when some app is NUMA-bad. A step that reaches the budget returns its
/// incumbent and sets `search.truncated`.
Decision decide(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                Objective objective, std::uint32_t min_threads_per_app,
                const std::vector<std::uint32_t>& caps = {}, const ForeignLoad& foreign = {});

}  // namespace numashare::model
