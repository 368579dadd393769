// Brute-force oracles for the model searches. Test/bench-only.
//
// exhaustive_search_reference is the original materialize-then-evaluate
// brute force over exhaustive_search's candidate families, kept as the
// oracle the streaming search is held to (tests/core/search_equivalence_
// test.cpp) and as the "before" engine of the search-scaling bench
// (bench/bench_alloc_scale.cpp). It holds O(candidates) memory and runs one
// allocating solve per candidate.
//
// exact_allocation_reference is the exact Option-3 optimum: every per-node
// thread count of every app, which decide()'s climb is measured against
// (tests/core/decide_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/optimizer.hpp"

namespace numashare::model {

/// Same candidates as exhaustive_search (including the historical double
/// evaluation of node-permutation candidates on single-node machines), each
/// solved with the validating solve() wrapper, the incumbent replaced by the
/// same improves() rule. exhaustive_search must select the same allocation
/// with the same objective value. `keep` (empty = all)
/// restricts the brute force to the candidates it accepts, tested before
/// caps apply.
SearchResult exhaustive_search_reference(
    const topo::Machine& machine, const std::vector<AppSpec>& apps, Objective objective,
    bool require_full = false, std::uint32_t min_threads_per_app = 0,
    const std::vector<std::uint32_t>& caps = {}, const ForeignLoad& foreign = {},
    const std::function<bool(const Allocation&)>& keep = {});

/// The best allocation of all: every assignment of per-node thread counts
/// (each node's counts summing to at most its cores) whose every app holds
/// at least `min_total_threads` threads in total, solved with solve() and
/// ranked by improves(). Only for tiny shapes: the count is the product over
/// nodes of C(cores + apps, apps).
SearchResult exact_allocation_reference(const topo::Machine& machine,
                                        const std::vector<AppSpec>& apps, Objective objective,
                                        std::uint32_t min_total_threads);

}  // namespace numashare::model
