#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.hpp"
#include "core/placement.hpp"
#include "core/roofline_detail.hpp"

namespace numashare::model {

double score(const Solution& solution, Objective objective) {
  switch (objective) {
    case Objective::kTotalGflops:
      return solution.total_gflops;
    case Objective::kMinAppGflops: {
      double worst = std::numeric_limits<double>::infinity();
      for (auto g : solution.app_gflops) worst = std::min(worst, g);
      return solution.app_gflops.empty() ? 0.0 : worst;
    }
    case Objective::kProportionalFairness: {
      double total = 0.0;
      for (auto g : solution.app_gflops) {
        // An app at zero would dominate everything; floor far below any real
        // throughput so such allocations rank last but stay comparable.
        total += std::log(std::max(g, 1e-12));
      }
      return total;
    }
  }
  NS_ASSERT_MSG(false, "unknown objective");
  return 0.0;
}

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::kTotalGflops: return "total-gflops";
    case Objective::kMinAppGflops: return "min-app-gflops";
    case Objective::kProportionalFairness: return "proportional-fairness";
  }
  return "?";
}

namespace {

GFlops node_core_peak(const topo::Machine& machine, topo::NodeId node) {
  const auto& n = machine.node(node);
  NS_ASSERT(!n.cores.empty());
  return machine.core(n.cores.front()).peak_gflops;
}

GBps foreign_node_bw(const ForeignLoad& foreign, topo::NodeId node) {
  return node < foreign.bandwidth.size() ? std::max(0.0, foreign.bandwidth[node]) : 0.0;
}

double foreign_node_cores(const topo::Machine& machine, const ForeignLoad& foreign,
                          topo::NodeId node) {
  if (node >= foreign.busy_cores.size()) return 0.0;
  const double cores = machine.cores_in_node(node);
  return std::min(std::max(0.0, foreign.busy_cores[node]), cores);
}

void require_foreign_shape(const topo::Machine& machine, const ForeignLoad& foreign) {
  NS_REQUIRE(foreign.busy_cores.empty() || foreign.busy_cores.size() == machine.node_count(),
             "foreign busy_cores must be empty or one entry per node");
  NS_REQUIRE(foreign.bandwidth.empty() || foreign.bandwidth.size() == machine.node_count(),
             "foreign bandwidth must be empty or one entry per node");
}

void compose(std::uint32_t apps_left, std::uint32_t budget, bool require_full,
             std::uint32_t min_per_app, std::vector<std::uint32_t>& current,
             std::vector<std::vector<std::uint32_t>>& out) {
  if (apps_left == 1) {
    if (require_full) {
      if (budget >= min_per_app) {
        current.push_back(budget);
        out.push_back(current);
        current.pop_back();
      }
    } else {
      for (std::uint32_t c = min_per_app; c <= budget; ++c) {
        current.push_back(c);
        out.push_back(current);
        current.pop_back();
      }
    }
    return;
  }
  for (std::uint32_t c = min_per_app; c <= budget; ++c) {
    current.push_back(c);
    compose(apps_left - 1, budget - c, require_full, min_per_app, current, out);
    current.pop_back();
  }
}

/// Enforce per-app total-thread caps on a candidate: shave capped apps from
/// the last node down, then re-grant exactly the freed capacity (same nodes)
/// to apps still under their caps, round-robin. Keeps the per-node core
/// budget intact and leaves cores idle only when *every* app is capped out.
/// Per-app totals are computed once up front and maintained through the
/// shave and re-grant passes (they used to be recomputed O(nodes) inside the
/// grant loops, which was quadratic in the machine size).
void apply_caps(const topo::Machine& machine, Allocation& alloc,
                const std::vector<std::uint32_t>& caps, std::vector<std::uint32_t>& totals,
                std::vector<std::uint32_t>& freed) {
  const auto apps_n = static_cast<AppId>(caps.size());
  const auto nodes_n = machine.node_count();
  totals.assign(apps_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = 0; n < nodes_n; ++n) totals[a] += alloc.threads(a, n);
  }
  freed.assign(nodes_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = nodes_n; totals[a] > caps[a] && n > 0; --n) {
      const std::uint32_t cut = std::min(alloc.threads(a, n - 1), totals[a] - caps[a]);
      alloc.set_threads(a, n - 1, alloc.threads(a, n - 1) - cut);
      freed[n - 1] += cut;
      totals[a] -= cut;
    }
  }
  for (topo::NodeId n = 0; n < nodes_n; ++n) {
    while (freed[n] > 0) {
      bool granted = false;
      for (AppId a = 0; a < apps_n && freed[n] > 0; ++a) {
        if (totals[a] >= caps[a]) continue;
        alloc.set_threads(a, n, alloc.threads(a, n) + 1);
        ++totals[a];
        --freed[n];
        granted = true;
      }
      if (!granted) break;  // everyone capped out: the cores idle, by design
    }
  }
}

std::uint32_t smallest_node_cores(const topo::Machine& machine) {
  std::uint32_t min_cores = machine.cores_in_node(0);
  for (topo::NodeId n = 1; n < machine.node_count(); ++n) {
    min_cores = std::min(min_cores, machine.cores_in_node(n));
  }
  return min_cores;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// C(n, k), saturating at UINT64_MAX. Exact while the running product fits:
/// r * (n - k + i) is computed before the exact division by i.
std::uint64_t binomial_capped(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    if (r > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    r = r * factor / i;
  }
  return r;
}

/// Admissible per-app upper bounds for the uniform family (see
/// docs/MODEL.md "Search cost and pruning"). With uniform count c an app's
/// GFLOPS cannot exceed min(c * slope, flat[a]) where
///   slope   = sum over nodes of the per-core compute peak (every app shares
///             the same slope because the peak is a node property), and
///   flat[a] = the app's bandwidth roofline (all controllers for
///             NUMA-perfect placement, the home controller for NUMA-bad)
///             intersected with its Amdahl ceiling when it has a serial
///             fraction.
struct SearchBounds {
  double slope = 0.0;
  std::vector<double> flat;
  std::vector<double> suffix_flat;  // suffix sums of flat, size apps + 1
};

SearchBounds make_search_bounds(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                                const ForeignLoad& foreign) {
  SearchBounds b;
  const auto nodes_n = machine.node_count();
  // Foreign load tightens (never loosens) both axes of the bound: the slope
  // uses the compute left after foreign busy cores — a thread on node m gets
  // a share min(1, (C-F)/T) <= min(1, C-F) of a core — and the bandwidth
  // roofline uses the post-foreign effective controller bandwidth, since the
  // solver serves foreign draw off the top. With no foreign load both reduce
  // bitwise to the PR-5 bounds.
  double total_bw = 0.0;
  for (topo::NodeId m = 0; m < nodes_n; ++m) {
    const double avail =
        std::max(0.0, machine.cores_in_node(m) - foreign_node_cores(machine, foreign, m));
    b.slope += node_core_peak(machine, m) * std::min(1.0, avail);
    total_bw += std::max(0.0, machine.node(m).memory_bandwidth - foreign_node_bw(foreign, m));
  }
  b.flat.resize(apps.size());
  b.suffix_flat.assign(apps.size() + 1, 0.0);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& app = apps[a];  // home nodes checked by detail::require_solvable
    const double home_bw =
        app.placement == Placement::kNumaBad
            ? std::max(0.0, machine.node(app.home_node).memory_bandwidth -
                                foreign_node_bw(foreign, app.home_node))
            : 0.0;
    double f = app.placement == Placement::kNumaBad ? home_bw * app.ai : total_bw * app.ai;
    if (app.serial_fraction > 0.0) {
      // Amdahl: capped at thread-weighted mean peak x effective threads;
      // for uniform counts the mean is slope / nodes and eff(T) < 1/sigma.
      f = std::min(f, (b.slope / nodes_n) / app.serial_fraction);
    }
    b.flat[a] = f;
  }
  for (std::size_t a = apps.size(); a-- > 0;) {
    b.suffix_flat[a] = b.suffix_flat[a + 1] + b.flat[a];
  }
  return b;
}

/// Apps the model cannot tell apart: every solve treats them alike, so
/// swapping their rows permutes the per-app results and leaves every
/// objective's value unchanged up to the order of its additions.
bool interchangeable(const AppSpec& x, const AppSpec& y) {
  return x.ai == y.ai && x.placement == y.placement && x.home_node == y.home_node &&
         x.serial_fraction == y.serial_fraction;
}

/// Closed-form ceiling on one node's GFLOPS for uniform candidates on node
/// classes (docs/MODEL.md §7 "Closed-form node bound"). With b the per-core
/// baseline share of the bandwidth left after foreign draw, every grant is
/// at least base = min(demand, b), the grants sum to at most C * b, and only
/// apps demanding more than b get more than their baseline, each at most at
/// aimax, the largest AI among them. So a thread of app a scores at most
/// h[a] = ai * base + aimax * (b - base), and a core left idle hands at most
/// idle = b * aimax to the others. Compute shares and Amdahl only lower the
/// result, and no node beats node_cap = C * peak.
struct NodeCeiling {
  std::vector<double> h;
  std::vector<double> suffix_h;  // suffix maxima of h, size apps + 1 (0 past the end)
  double idle = 0.0;
  double node_cap = 0.0;
};

NodeCeiling make_node_ceiling(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                              const ForeignLoad& foreign) {
  const double cores = machine.cores_in_node(0);
  const GFlops peak = node_core_peak(machine, 0);
  const GBps bw = machine.node(0).memory_bandwidth;
  // solve_controller's baseline_per_core with no remote flows.
  const GBps b = (bw - std::min(foreign_node_bw(foreign, 0), bw)) / cores;
  double aimax = 0.0;
  for (const auto& app : apps) {
    if (demand_gbps(peak, app.ai) > b) aimax = std::max(aimax, app.ai);
  }
  NodeCeiling ceiling;
  ceiling.idle = b * aimax;
  ceiling.node_cap = cores * peak;
  ceiling.h.resize(apps.size());
  ceiling.suffix_h.assign(apps.size() + 1, 0.0);
  for (std::size_t a = apps.size(); a-- > 0;) {
    const GBps base = std::min(demand_gbps(peak, apps[a].ai), b);
    ceiling.h[a] = apps[a].ai * base + aimax * (b - base);
    ceiling.suffix_h[a] = std::max(ceiling.suffix_h[a + 1], ceiling.h[a]);
  }
  return ceiling;
}

/// True when every uniform candidate solves identically at every memory
/// controller, so one controller stands for the whole machine (docs/MODEL.md
/// §7 "Node classes"): a symmetric machine, every app NUMA-perfect (no
/// remote flows, so links never enter), node-identical foreign load and no
/// caps (the cap re-grant makes a candidate non-uniform). Each controller's
/// bucket then holds the same groups, with the same inputs, in the same
/// order.
bool one_node_class(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                    const std::vector<std::uint32_t>& caps, const ForeignLoad& foreign) {
  if (!caps.empty() || !machine.is_symmetric()) return false;
  for (const auto& app : apps) {
    if (app.placement != Placement::kNumaPerfect) return false;
  }
  const auto node_identical = [](const std::vector<double>& per_node) {
    return std::all_of(per_node.begin(), per_node.end(),
                       [&](double v) { return v == per_node.front(); });
  };
  return node_identical(foreign.busy_cores) && node_identical(foreign.bandwidth);
}

/// Scores uniform candidates when one_node_class holds: solves memory
/// controller 0 alone, reuses its per-thread grants at every other node, and
/// sums app and total GFLOPS over the (app, node) groups in solve_into's
/// group order. app_gflops and total_gflops are therefore bitwise what
/// solve_into returns; no other Solution field is filled. Allocation-free
/// after construction.
class NodeClassSolver {
 public:
  NodeClassSolver(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                  const SolveOptions& options)
      : machine_(machine),
        apps_(apps),
        options_(options),
        has_foreign_(!options.foreign.busy_cores.empty() || !options.foreign.bandwidth.empty()),
        peak_(node_core_peak(machine, 0)) {
    const auto apps_n = static_cast<std::uint32_t>(apps.size());
    groups_.reserve(apps_n);
    demand_.resize(apps_n);
    for (AppId a = 0; a < apps_n; ++a) demand_[a] = demand_gbps(peak_, apps[a].ai);
    members_.resize(apps_n);
    std::iota(members_.begin(), members_.end(), 0u);
    solution_.app_gflops.reserve(apps_n);
  }

  /// `counts[a]` is app a's thread count on every node.
  const Solution& solve(const std::vector<std::uint32_t>& counts) {
    // Node 0's bucket: every app with threads, in app order, all local.
    groups_.clear();
    std::uint32_t node_threads = 0;
    for (AppId a = 0; a < apps_.size(); ++a) {
      const std::uint32_t t = counts[a];
      if (t == 0) continue;
      GroupResult group;
      group.app = a;
      group.threads = t;
      group.per_thread_demand = demand_[a];
      groups_.push_back(group);
      node_threads += t;
    }
    detail::solve_controller(machine_, 0, groups_.data(), members_.data(),
                             static_cast<std::uint32_t>(groups_.size()), options_, breakdown_);

    const auto nodes_n = machine_.node_count();
    const double share =
        has_foreign_ ? detail::compute_share(machine_, options_.foreign, 0, node_threads) : 1.0;
    for (auto& g : groups_) {
      const AppSpec& app = apps_[g.app];
      g.per_thread_gflops = achieved_gflops(g.per_thread_granted, app.ai, peak_ * share);
      if (app.serial_fraction <= 0.0) continue;
      // solve_into's Amdahl pass, summed over the app's groups node by node.
      GFlops raw = 0.0;
      GFlops thread_peak_sum = 0.0;
      std::uint32_t threads = 0;
      for (topo::NodeId n = 0; n < nodes_n; ++n) {
        raw += g.group_gflops();
        threads += g.threads;
        thread_peak_sum += g.threads * peak_ * share;
      }
      if (raw <= 0.0) continue;
      const GFlops cap = detail::amdahl_cap(app, thread_peak_sum, threads);
      if (raw > cap) g.per_thread_gflops *= cap / raw;
    }

    // Same additions, in the same order, as solve_into's final pass over
    // its groups (app-major, then node); locals keep the chains in registers.
    solution_.app_gflops.assign(apps_.size(), 0.0);
    GFlops total = 0.0;
    for (const auto& g : groups_) {
      const GFlops group = g.group_gflops();
      GFlops app_total = 0.0;
      for (topo::NodeId n = 0; n < nodes_n; ++n) {
        app_total += group;
        total += group;
      }
      solution_.app_gflops[g.app] = app_total;
    }
    solution_.total_gflops = total;
    return solution_;
  }

 private:
  const topo::Machine& machine_;
  const std::vector<AppSpec>& apps_;
  const SolveOptions& options_;
  bool has_foreign_;
  GFlops peak_;
  std::vector<GBps> demand_;  // per thread, per app
  std::vector<GroupResult> groups_;
  std::vector<std::uint32_t> members_;  // identity: node 0's bucket is every group
  NodeBreakdown breakdown_;
  Solution solution_;
};

/// Streaming branch-and-bound over the uniform family plus node
/// permutations. Candidates are visited in the order the reference
/// enumeration materializes them (counts ascending per app; permutations in
/// std::next_permutation order after the uniform family), skipping uniform
/// candidates whose app classes are not sorted, and the incumbent is
/// replaced only when improves() says so. So any subtree cut by an
/// *admissible* bound cannot change the winner: the search returns the
/// reference's objective value and allocation over class-sorted candidates,
/// bitwise, and the reference's own within the improvement margin.
struct StreamSearch {
  const topo::Machine& machine;
  const std::vector<AppSpec>& apps;
  Objective objective;
  bool require_full;
  std::uint32_t min_per_app;
  const std::vector<std::uint32_t>& caps;
  /// Carries the foreign load into every candidate (and bound) solve.
  SolveOptions solve_options;
  /// Uniform candidates (leaves and bound prefixes) are scored by `classes`
  /// instead of solve_into; node permutations always take solve_into.
  bool node_classes = false;
  NodeClassSolver classes;
  /// kTotalGflops on node classes: the closed-form ceiling is checked before
  /// any partial-prefix solve, which then runs only where it fails to cut.
  bool closed_form = false;
  NodeCeiling ceiling;

  std::uint32_t apps_n = 0;
  std::uint32_t nodes_n = 0;
  std::uint32_t budget = 0;
  /// Caps disable pruning: the post-cap re-grant can hand a candidate's
  /// shaved threads to a *different* app, so pre-cap per-app bounds are not
  /// admissible for the capped allocation. The enumeration still streams
  /// (nothing is materialized) and evaluates every candidate, which is what
  /// the reference engine does too.
  bool prune_enabled = true;

  /// App classes (docs/MODEL.md §7 "App classes"): class_prev[a] is the
  /// previous app with a's spec, or kNoClassPrev. Every objective is a
  /// symmetric function of interchangeable apps, so each app's count starts
  /// at its predecessor's and only the class-sorted member of each orbit of
  /// within-class permutations is visited. Off under caps: the cap re-grant
  /// runs in app order, so it is not symmetric.
  static constexpr std::uint32_t kNoClassPrev = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> class_prev;

  SearchBounds bounds;
  Allocation workspace;  // the uniform candidate under construction, mutated in place
  std::vector<std::uint32_t> counts;  // the workspace's uniform rows: per-node count per app
  Allocation capped;     // caps-applied copy of the workspace
  std::vector<std::uint32_t> cap_totals;
  std::vector<std::uint32_t> cap_freed;
  SolveScratch eval_scratch;   // full candidate evaluations
  SolveScratch bound_scratch;  // partial-prefix bound solves

  SearchResult best;
  /// Model solves (evaluations plus bound solves) after which the search
  /// stops and returns its incumbent, `truncated`.
  std::uint64_t solve_budget = std::numeric_limits<std::uint64_t>::max();

  StreamSearch(const topo::Machine& machine_, const std::vector<AppSpec>& apps_,
               Objective objective_, bool require_full_, std::uint32_t min_per_app_,
               const std::vector<std::uint32_t>& caps_, const ForeignLoad& foreign_)
      : machine(machine_),
        apps(apps_),
        objective(objective_),
        require_full(require_full_),
        min_per_app(min_per_app_),
        caps(caps_),
        solve_options{.foreign = foreign_},
        node_classes(one_node_class(machine_, apps_, caps_, foreign_)),
        classes(machine_, apps_, solve_options) {
    // The specs are constant within a search, so solve_into's per-call spec
    // checks run once here for the solves the node-class path replaces.
    detail::require_solvable(machine, apps);
    apps_n = static_cast<std::uint32_t>(apps.size());
    nodes_n = machine.node_count();
    budget = smallest_node_cores(machine);
    prune_enabled = caps.empty();
    if (prune_enabled) bounds = make_search_bounds(machine, apps, foreign_);
    closed_form = node_classes && objective == Objective::kTotalGflops;
    if (closed_form) ceiling = make_node_ceiling(machine, apps, foreign_);
    workspace = Allocation(apps_n, nodes_n);
    counts.assign(apps_n, 0);
    class_prev.assign(apps_n, kNoClassPrev);
    best.app_classes = apps_n;
    for (std::uint32_t a = 0; a < apps_n && caps.empty(); ++a) {
      for (std::uint32_t p = a; p-- > 0;) {
        if (interchangeable(apps[p], apps[a])) {
          class_prev[a] = p;
          --best.app_classes;
          break;
        }
      }
    }
    best.objective_value = -std::numeric_limits<double>::infinity();
  }

  /// The smallest count app a may take: its class predecessor's count, which
  /// is already at least min_per_app.
  std::uint32_t count_floor(std::uint32_t a) const {
    return class_prev[a] == kNoClassPrev ? min_per_app : counts[class_prev[a]];
  }

  double app_ub(std::uint32_t a, std::uint32_t c) const {
    return std::min(static_cast<double>(c) * bounds.slope, bounds.flat[a]);
  }

  /// Admissible upper bound on every completion once apps [0, next_app) are
  /// assigned, from the prefix accumulators (pt: sum, pm: min, pl: log-sum
  /// — each already a valid bound on the assigned apps' final throughput)
  /// plus a fractional-relaxation bound on the unassigned tail sharing the
  /// `remaining` per-node budget.
  double combine_bound(double pt, double pm, double pl, std::uint32_t next_app,
                       std::uint32_t remaining) const {
    const std::uint32_t tail_n = apps_n - next_app;
    switch (objective) {
      case Objective::kTotalGflops:
        return pt + (tail_n == 0 ? 0.0
                                 : std::min(static_cast<double>(remaining) * bounds.slope,
                                            bounds.suffix_flat[next_app]));
      case Objective::kMinAppGflops:
        // Tail apps can only lower the minimum, never raise it.
        return pm;
      case Objective::kProportionalFairness: {
        double out = pl;
        if (tail_n > 0) {
          // Any single tail app can take at most the remaining budget minus
          // the minima its peers still need.
          const double cmax = static_cast<double>(remaining) -
                              static_cast<double>(min_per_app) * (tail_n - 1);
          for (std::uint32_t b = next_app; b < apps_n; ++b) {
            out += std::log(std::max(std::min(cmax * bounds.slope, bounds.flat[b]), 1e-12));
          }
        }
        return out;
      }
    }
    NS_ASSERT_MSG(false, "unknown objective");
    return std::numeric_limits<double>::infinity();
  }

  /// Closed-form bound on every completion once apps [0, next_app) are
  /// assigned: `ph` sums t * h over them, and each of the `remaining`
  /// per-node threads scores at most the best h in the tail, or `idle` when
  /// it may stay unassigned. Past the last app it covers a whole candidate.
  double ceiling_bound(double ph, std::uint32_t next_app, std::uint32_t remaining) const {
    const double fill = require_full ? ceiling.suffix_h[next_app]
                                     : std::max(ceiling.suffix_h[next_app], ceiling.idle);
    return nodes_n * std::min(ceiling.node_cap, ph + remaining * fill);
  }

  /// True when the (admissible) bound proves nothing in the subtree can
  /// improve on the incumbent. The slack absorbs the rounding in the bound
  /// arithmetic and stays far below the improvement margin, so a bound that
  /// only equals the incumbent (a plateau) is cut.
  static constexpr double kBoundSlack = 1e-12;
  bool cuttable(double bound) const {
    return !improves(bound + kBoundSlack * (std::abs(bound) + 1.0), best.objective_value);
  }

  bool out_of_budget() {
    if (best.evaluated + best.bound_solves < solve_budget) return false;
    best.truncated = true;
    return true;
  }

  void set_row(std::uint32_t a, std::uint32_t c) {
    counts[a] = c;
    for (topo::NodeId n = 0; n < nodes_n; ++n) workspace.set_threads(a, n, c);
  }

  void evaluate_current(bool uniform) {
    const Allocation* candidate = &workspace;
    if (!caps.empty()) {
      capped = workspace;
      apply_caps(machine, capped, caps, cap_totals, cap_freed);
      candidate = &capped;
    }
    const bool by_class = uniform && node_classes;
    const double value =
        score(by_class ? classes.solve(counts)
                       : solve_into(machine, apps, *candidate, eval_scratch, solve_options),
              objective);
    ++best.evaluated;
    if (improves(value, best.objective_value)) {
      if (by_class) {
        // A new incumbent gets the full solve: it fills best.solution and
        // cross-checks the node-class score, which must be bitwise equal.
        const Solution& full = solve_into(machine, apps, workspace, eval_scratch, solve_options);
        NS_REQUIRE(score(full, objective) == value, "node-class score differs from solve_into");
      }
      best.objective_value = value;
      best.allocation = *candidate;
      best.solution = eval_scratch.solution;
    }
  }

  void leaf(std::uint32_t remaining, double pt, double pm, double pl, double ph) {
    const std::uint32_t a = apps_n - 1;
    const std::uint32_t lo = count_floor(a);
    if (remaining < lo) return;
    const std::uint32_t c_lo = require_full ? remaining : lo;
    for (std::uint32_t c = c_lo; c <= remaining; ++c) {
      ++best.visited;
      if (prune_enabled) {
        const double ub = app_ub(a, c);
        double bound = 0.0;
        switch (objective) {
          case Objective::kTotalGflops: bound = pt + ub; break;
          case Objective::kMinAppGflops: bound = std::min(pm, ub); break;
          case Objective::kProportionalFairness:
            bound = pl + std::log(std::max(ub, 1e-12));
            break;
        }
        if (cuttable(bound) ||
            (closed_form &&
             cuttable(ceiling_bound(ph + c * ceiling.h[a], apps_n, remaining - c)))) {
          ++best.pruned;
          continue;
        }
      }
      if (out_of_budget()) return;
      set_row(a, c);
      evaluate_current(/*uniform=*/true);
      set_row(a, 0);
    }
  }

  void descend(std::uint32_t a, std::uint32_t remaining, double pt, double pm, double pl,
               double ph) {
    if (a + 1 == apps_n) {
      leaf(remaining, pt, pm, pl, ph);
      return;
    }
    // The fewest threads the apps after this one need: each takes at least
    // its class's last assigned count (min_per_app when none is assigned),
    // and the `same` later members of a's class at least a's count c.
    std::uint64_t need_other = 0;
    std::uint32_t same = 0;
    for (std::uint32_t t = a + 1; t < apps_n; ++t) {
      std::uint32_t p = class_prev[t];
      while (p != kNoClassPrev && p > a) p = class_prev[p];
      if (p == a) {
        ++same;
      } else {
        need_other += p == kNoClassPrev ? min_per_app : counts[p];
      }
    }
    const std::uint32_t tail_after = apps_n - a - 1;  // apps assigned after this one
    for (std::uint32_t c = count_floor(a); c <= remaining; ++c) {
      if (out_of_budget()) return;
      const std::uint32_t rem_after = remaining - c;
      // Subtrees whose tail cannot reach its floors contain no candidates;
      // the need only grows with c, so stop the scan here.
      if (need_other + static_cast<std::uint64_t>(same) * c > rem_after) break;
      double cpt = 0.0;
      double cpm = 0.0;
      double cpl = 0.0;
      const double cph = closed_form ? ph + c * ceiling.h[a] : 0.0;
      if (prune_enabled) {
        const double ub = app_ub(a, c);
        cpt = pt + ub;
        cpm = std::min(pm, ub);
        // Only the proportional-fairness bound reads the log-sum.
        if (objective == Objective::kProportionalFairness) {
          cpl = pl + std::log(std::max(ub, 1e-12));
        }
        if (cuttable(combine_bound(cpt, cpm, cpl, a + 1, rem_after)) ||
            (closed_form && cuttable(ceiling_bound(cph, a + 1, rem_after)))) {
          ++best.pruned;
          continue;
        }
      }
      set_row(a, c);
      if (prune_enabled && tail_after >= 2) {
        // Tighten the prefix accumulators with an exact partial solve: the
        // model run on the prefix alone (tail rows zero). Removing apps only
        // frees bandwidth for the ones that remain, so each assigned app's
        // partial throughput upper-bounds its throughput in any completion.
        const Solution& partial =
            node_classes ? classes.solve(counts)
                         : solve_into(machine, apps, workspace, bound_scratch, solve_options);
        ++best.bound_solves;
        double p_total = partial.total_gflops;
        double p_min = std::numeric_limits<double>::infinity();
        double p_log = 0.0;
        for (std::uint32_t p = 0; p <= a; ++p) {
          p_min = std::min(p_min, partial.app_gflops[p]);
          if (objective == Objective::kProportionalFairness) {
            p_log += std::log(std::max(partial.app_gflops[p], 1e-12));
          }
        }
        cpt = std::min(cpt, p_total);
        cpm = std::min(cpm, p_min);
        cpl = std::min(cpl, p_log);
        if (cuttable(combine_bound(cpt, cpm, cpl, a + 1, rem_after))) {
          ++best.pruned;
          set_row(a, 0);
          continue;
        }
      }
      descend(a + 1, rem_after, cpt, cpm, cpl, cph);
      set_row(a, 0);
    }
  }

  void permutations() {
    std::vector<topo::NodeId> order(nodes_n);
    std::iota(order.begin(), order.end(), 0u);
    do {
      if (out_of_budget()) return;
      ++best.visited;
      // A node-per-app allocation duplicates a uniform-family candidate iff
      // every app's row is node-constant. With >= 1 core per node that
      // requires a single-node machine; the general check keeps the dedup
      // exact either way (the uniform family always contains the single-node
      // whole-machine candidate).
      bool duplicate = true;
      for (std::uint32_t a = 0; a < apps_n && duplicate; ++a) {
        const std::uint32_t first =
            order[a] == 0 ? machine.cores_in_node(order[a]) : 0;
        for (topo::NodeId n = 1; n < nodes_n; ++n) {
          const std::uint32_t cell = order[a] == n ? machine.cores_in_node(order[a]) : 0;
          if (cell != first) {
            duplicate = false;
            break;
          }
        }
      }
      if (duplicate) {
        ++best.deduped;
        continue;
      }
      for (std::uint32_t a = 0; a < apps_n; ++a) {
        workspace.set_threads(a, order[a], machine.cores_in_node(order[a]));
      }
      evaluate_current(/*uniform=*/false);
      for (std::uint32_t a = 0; a < apps_n; ++a) {
        workspace.set_threads(a, order[a], 0);
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }

  SearchResult run() {
    descend(0, budget, 0.0, std::numeric_limits<double>::infinity(), 0.0, 0.0);
    // Node permutations hand each app a full node, so they satisfy any
    // per-app minimum and are always admissible when counts line up.
    if (apps_n == nodes_n) permutations();
    NS_REQUIRE(best.evaluated > 0, "no candidate allocations");
    return std::move(best);
  }
};

/// Climbs from `best` until a local optimum, or until `evaluated +
/// bound_solves` reaches `solve_budget`. `best` is a finished search, whose
/// solution and solve counts the climb continues, or a bare seed allocation
/// (`evaluated` 0), which it solves first.
SearchResult climb(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                   SearchResult best, const RefineOptions& options,
                   std::uint64_t solve_budget) {
  SolveScratch eval;
  SolveOptions solve_options;
  solve_options.foreign = options.foreign;
  if (best.evaluated == 0) {
    best.solution = solve_into(machine, apps, best.allocation, eval, solve_options);
    best.evaluated = 1;
  }
  best.objective_value = score(best.solution, options.objective);

  const auto apps_n = static_cast<AppId>(apps.size());
  const auto nodes_n = machine.node_count();
  const auto cap = [&](AppId a) {
    return options.caps.empty() ? std::numeric_limits<std::uint32_t>::max() : options.caps[a];
  };

  Allocation current = best.allocation;  // mutated per candidate move, restored after
  std::vector<std::uint32_t> totals(apps_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = 0; n < nodes_n; ++n) totals[a] += current.threads(a, n);
  }

  struct Move {
    enum class Kind : std::uint8_t { kAdd, kDrop, kShift };
    Kind kind = Kind::kAdd;
    AppId a = 0;
    AppId b = 0;  // shift target
    topo::NodeId n = 0;
  };
  // Apply (sign = +1) or revert (sign = -1) a move.
  const auto step = [&](const Move& m, int sign) {
    const auto bump = [&](AppId app, int d) {
      current.set_threads(app, m.n, current.threads(app, m.n) + d);
      totals[app] += d;
    };
    switch (m.kind) {
      case Move::Kind::kAdd: bump(m.a, sign); break;
      case Move::Kind::kDrop: bump(m.a, -sign); break;
      case Move::Kind::kShift:
        bump(m.a, -sign);
        bump(m.b, sign);
        break;
    }
  };

  Solution round_best_solution;
  while (!best.truncated) {
    double round_best = best.objective_value;
    Move round_best_move;
    bool improved = false;

    const auto consider = [&](const Move& m) {
      if (best.evaluated + best.bound_solves >= solve_budget) {
        best.truncated = true;
        return;
      }
      step(m, +1);
      const Solution& solution = solve_into(machine, apps, current, eval, solve_options);
      ++best.evaluated;
      const double value = score(solution, options.objective);
      if (improves(value, round_best)) {
        round_best = value;
        round_best_move = m;
        round_best_solution = solution;
        improved = true;
      }
      step(m, -1);
    };

    for (topo::NodeId n = 0; n < nodes_n && !best.truncated; ++n) {
      const std::uint32_t used = current.node_total(n);
      for (AppId a = 0; a < apps_n; ++a) {
        // Add a thread on a free core.
        if (used < machine.cores_in_node(n) && totals[a] < cap(a)) {
          consider({Move::Kind::kAdd, a, a, n});
        }
        if (current.threads(a, n) == 0 || totals[a] <= options.min_threads_per_app) continue;
        // Drop a thread (helps sub-linear-scaling mixes).
        consider({Move::Kind::kDrop, a, a, n});
        // Shift a thread to another app on the same node.
        for (AppId b = 0; b < apps_n; ++b) {
          if (b != a && totals[b] < cap(b)) consider({Move::Kind::kShift, a, b, n});
        }
      }
    }

    if (!improved) break;
    step(round_best_move, +1);
    best.allocation = current;
    best.solution = round_best_solution;
    best.objective_value = round_best;
  }
  return best;
}

/// exhaustive_search, stopped once it has spent `solve_budget` solves.
SearchResult exact_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                          Objective objective, bool require_full,
                          std::uint32_t min_threads_per_app,
                          const std::vector<std::uint32_t>& caps, const ForeignLoad& foreign,
                          std::uint64_t solve_budget) {
  NS_REQUIRE(!apps.empty(), "need at least one app");
  NS_REQUIRE(caps.empty() || caps.size() == apps.size(),
             "caps must be empty or one per app");
  require_foreign_shape(machine, foreign);
  // Clamp an infeasible per-app minimum (more apps than cores per node)
  // rather than refusing: policies run against whatever machine they find.
  const std::uint32_t min_cores = smallest_node_cores(machine);
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  min_threads_per_app = std::min(min_threads_per_app, min_cores / std::max(1u, apps_n));
  StreamSearch search(machine, apps, objective, require_full, min_threads_per_app, caps,
                      foreign);
  search.solve_budget = solve_budget;
  return search.run();
}

/// Problems whose total is a sum of identical per-node terms, so the
/// uniform winner is optimal over every per-node allocation with the same
/// per-node floor (docs/MODEL.md §7 "Separable problems").
bool separable(const topo::Machine& machine, const std::vector<AppSpec>& apps,
               Objective objective, const std::vector<std::uint32_t>& caps,
               const ForeignLoad& foreign) {
  return objective == Objective::kTotalGflops && !foreign.any() &&
         one_node_class(machine, apps, caps, foreign) &&
         std::all_of(apps.begin(), apps.end(),
                     [](const AppSpec& app) { return app.serial_fraction == 0.0; });
}

}  // namespace

std::vector<Allocation> enumerate_uniform(const topo::Machine& machine, std::uint32_t apps,
                                          bool require_full,
                                          std::uint32_t min_threads_per_app) {
  NS_REQUIRE(apps > 0, "need at least one app");
  const std::uint32_t min_cores = smallest_node_cores(machine);
  NS_REQUIRE(min_threads_per_app * apps <= min_cores,
             "min_threads_per_app infeasible on the smallest node");
  std::vector<std::vector<std::uint32_t>> compositions;
  std::vector<std::uint32_t> current;
  compose(apps, min_cores, require_full, min_threads_per_app, current, compositions);

  std::vector<Allocation> out;
  out.reserve(compositions.size());
  for (auto& counts : compositions) {
    out.push_back(Allocation::uniform_per_node(machine, counts));
  }
  return out;
}

std::vector<Allocation> enumerate_node_permutations(const topo::Machine& machine) {
  std::vector<topo::NodeId> order(machine.node_count());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<Allocation> out;
  do {
    out.push_back(Allocation::node_per_app(machine, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

std::uint64_t count_candidates(const topo::Machine& machine, std::uint32_t apps,
                               bool require_full, std::uint32_t min_threads_per_app) {
  NS_REQUIRE(apps > 0, "need at least one app");
  const std::uint32_t budget = smallest_node_cores(machine);
  min_threads_per_app = std::min(min_threads_per_app, budget / apps);
  // Stars and bars on the slack left after every app takes its minimum:
  // compositions summing exactly to the budget (require_full) or to at most
  // the budget (one extra "idle" bin).
  const std::uint64_t slack = budget - static_cast<std::uint64_t>(min_threads_per_app) * apps;
  std::uint64_t n = require_full ? binomial_capped(slack + apps - 1, apps - 1)
                                 : binomial_capped(slack + apps, apps);
  if (apps == machine.node_count()) {
    std::uint64_t perms = 1;
    for (std::uint32_t k = 2; k <= machine.node_count(); ++k) {
      perms = saturating_mul(perms, k);
    }
    n += perms;  // node-permutation family
    if (n < perms) n = std::numeric_limits<std::uint64_t>::max();
  }
  return n;
}

void apply_caps(const topo::Machine& machine, Allocation& allocation,
                const std::vector<std::uint32_t>& caps) {
  std::vector<std::uint32_t> totals;
  std::vector<std::uint32_t> freed;
  apply_caps(machine, allocation, caps, totals, freed);
}

Allocation fair_share(const topo::Machine& machine, std::uint32_t apps,
                      const std::vector<std::uint32_t>& caps) {
  NS_REQUIRE(caps.empty() || caps.size() == apps, "caps must be empty or one per app");
  Allocation allocation(apps, machine.node_count());
  const auto cap = [&](std::uint32_t a) {
    return caps.empty() ? std::numeric_limits<std::uint32_t>::max() : caps[a];
  };
  std::vector<std::uint32_t> totals(apps, 0);
  std::uint32_t next = 0;  // the app the next core goes to, unless capped out
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    std::uint32_t budget = machine.cores_in_node(n);
    // A full cycle of capped-out apps means every app is capped: the
    // leftover cores idle.
    for (std::uint32_t skipped = 0; budget > 0 && skipped < apps; next = (next + 1) % apps) {
      if (totals[next] >= cap(next)) {
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

SearchResult exhaustive_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                               Objective objective, bool require_full,
                               std::uint32_t min_threads_per_app,
                               const std::vector<std::uint32_t>& caps,
                               const ForeignLoad& foreign) {
  return exact_search(machine, apps, objective, require_full, min_threads_per_app, caps,
                      foreign, std::numeric_limits<std::uint64_t>::max());
}

SearchResult refine_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& seed, const RefineOptions& options) {
  std::string error;
  NS_REQUIRE(seed.validate(machine, &error), error.c_str());
  NS_REQUIRE(options.caps.empty() || options.caps.size() == apps.size(),
             "caps must be empty or one per app");
  require_foreign_shape(machine, options.foreign);
  SearchResult start;
  start.allocation = seed;
  return climb(machine, apps, std::move(start), options, kMaxSearchSolves);
}

Decision decide(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                Objective objective, std::uint32_t min_threads_per_app,
                const std::vector<std::uint32_t>& caps, const ForeignLoad& foreign) {
  require_foreign_shape(machine, foreign);
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  const auto bad = static_cast<std::uint64_t>(
      std::count_if(apps.begin(), apps.end(),
                    [](const AppSpec& app) { return app.placement == Placement::kNumaBad; }));
  // advise_placement's solves (a baseline plus one per NUMA-bad app and
  // other node) are reserved first. A mix that would need half the budget
  // for them gets no advice.
  const std::uint64_t advice = bad == 0 ? 0 : 1 + bad * (machine.node_count() - 1);
  const bool advise = advice <= kMaxSearchSolves / 2;
  const std::uint64_t budget = kMaxSearchSolves - (advise ? advice : 0);

  Decision decision;
  decision.exact_seed = count_candidates(machine, apps_n, /*require_full=*/true,
                                         min_threads_per_app) <= kMaxSearchSolves;
  auto& result = decision.search;
  if (decision.exact_seed) {
    result = exact_search(machine, apps, objective, /*require_full=*/true, min_threads_per_app,
                          caps, foreign, budget);
  } else {
    result.allocation = fair_share(machine, apps_n, caps);
  }
  if (!decision.exact_seed || !separable(machine, apps, objective, caps, foreign)) {
    const RefineOptions options{.objective = objective,
                                .min_threads_per_app = min_threads_per_app,
                                .caps = caps,
                                .foreign = foreign};
    result = climb(machine, apps, std::move(result), options, budget);
  }

  if (!advise) result.truncated = true;
  if (bad == 0 || !advise) return decision;
  result.evaluated += advice;
  double best_gain = 0.0;
  for (const auto& entry : advise_placement(machine, apps, result.allocation, {}, foreign)) {
    const double gain = entry.predicted_gflops - entry.current_gflops;
    if (entry.move_recommended() && (!decision.move || gain > best_gain)) {
      decision.move = Decision::HomeMove{entry.app, entry.recommended_home};
      best_gain = gain;
    }
  }
  return decision;
}

}  // namespace numashare::model
