#pragma once

#include <functional>
#include <vector>

#include "petri/net.hpp"
#include "petri/reachability.hpp"

namespace rap::petri {

// PersistenceViolation lives in reachability.hpp: the single-pass
// multi-property engine reports violations alongside reachability goals.

struct PersistenceOptions {
    std::size_t max_states = 2'000'000;
    /// Transition pairs for which mutual disabling is *intended* choice
    /// (e.g. the Mt+/Mf+ pair of a control register models an input
    /// choice, not a hazard). Returns true when the pair is exempt.
    std::function<bool(const Net&, TransitionId, TransitionId)> exempt;
    /// Stop at first violation (default) or collect all.
    bool stop_at_first = true;
};

struct PersistenceResult {
    std::size_t states_explored = 0;
    bool truncated = false;
    std::vector<PersistenceViolation> violations;

    bool persistent() const noexcept { return violations.empty(); }
};

/// Exhaustive check of output persistence over the reachable state graph.
/// Runs as a single-property instance of the shared reachability pass
/// (ParallelReachabilityExplorer::run_query with check_persistence set).
PersistenceResult check_persistence(const Net& net,
                                    PersistenceOptions options = {});

}  // namespace rap::petri
