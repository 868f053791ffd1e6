// Reference oracle for the reachability engine: a deliberately naive
// breadth-first search over petri::Net's interpreted semantics, with
// std::set<Marking> as the visited set and nothing shared with the
// engine (no CompiledNet, no interning store, no enabled-set
// maintenance). Tests check the engine against it; bench_verification
// uses it as the seed-style baseline. Header-only.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "petri/net.hpp"
#include "petri/predicate.hpp"

namespace rap::petri::oracle {

/// (marking, fired, disabled) — one persistence violation, by value.
using Violation = std::tuple<Marking, std::uint32_t, std::uint32_t>;

struct Result {
    std::size_t states = 0;
    std::size_t edges = 0;           ///< fired (state, transition) pairs
    std::vector<Marking> deadlocks;  ///< sorted
    /// Per goal: BFS depth of the first matching layer (the length of a
    /// shortest witness), nullopt when unreachable.
    std::vector<std::optional<std::size_t>> goal_depth;
    std::vector<Violation> violations;  ///< sorted; empty unless asked
};

/// Exhaustive BFS from the initial marking. Every edge is fired. With
/// `persistence`, a violation is recorded for each enabled pair (t, u),
/// u != t, where firing t leaves u disabled and `exempt(net, t, u)`
/// (when set) is false.
inline Result explore(
    const Net& net, std::span<const Predicate* const> goals = {},
    bool persistence = false,
    const std::function<bool(const Net&, TransitionId, TransitionId)>&
        exempt = nullptr) {
    Result result;
    result.goal_depth.assign(goals.size(), std::nullopt);
    std::set<Marking> seen;
    std::vector<Marking> layer{net.initial_marking()};
    seen.insert(layer.front());
    for (std::size_t depth = 0; !layer.empty(); ++depth) {
        std::vector<Marking> next;
        for (const Marking& m : layer) {
            for (std::size_t g = 0; g < goals.size(); ++g) {
                if (!result.goal_depth[g] && (*goals[g])(net, m)) {
                    result.goal_depth[g] = depth;
                }
            }
            const std::vector<TransitionId> enabled =
                net.enabled_transitions(m);
            if (enabled.empty()) result.deadlocks.push_back(m);
            for (const TransitionId t : enabled) {
                ++result.edges;
                Marking succ = m;
                net.fire(succ, t);
                if (persistence) {
                    for (const TransitionId u : enabled) {
                        if (u == t || net.is_enabled(succ, u)) continue;
                        if (exempt && exempt(net, t, u)) continue;
                        result.violations.emplace_back(m, t.value, u.value);
                    }
                }
                if (seen.insert(succ).second) next.push_back(succ);
            }
        }
        layer = std::move(next);
    }
    result.states = seen.size();
    std::sort(result.deadlocks.begin(), result.deadlocks.end());
    std::sort(result.violations.begin(), result.violations.end());
    return result;
}

}  // namespace rap::petri::oracle
