// Shared Petri-net test fixtures and differential-harness plumbing:
// the model zoo (paper-style rings/wagging/OPE plus seeded random
// topologies) and the query/replay/oracle-comparison helpers used by the
// engine's differential harness (parallel_reachability_test.cpp) and the
// partial-order-reduction harness (por_test.cpp). Header-only, test-only.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri_oracle.hpp"
#include "pipeline/builder.hpp"
#include "pipeline/wagging.hpp"
#include "util/rng.hpp"

namespace rap::petri::testfx {

struct Fixture {
    std::string name;
    Net net;
};

/// A depth-`d` token-ring pipeline: d+2 control registers in a loop with
/// one True token — the smallest live models of the paper's control
/// style, one per depth 1..6.
inline Fixture ring_fixture(int depth) {
    dfs::Graph g("ring_d" + std::to_string(depth));
    std::vector<dfs::NodeId> regs;
    const int n = depth + 2;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i), i == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return {g.name(), dfs::to_petri(g).net};
}

inline Fixture wagging_fixture() {
    dfs::Graph g("wagging");
    const auto in = g.add_register("in");
    pipeline::add_wagging_stage(g, "w", in);
    return {"wagging", dfs::to_petri(g).net};
}

inline Fixture static_ope_fixture(int stages) {
    auto p = ope::build_static_ope_dfs(stages);
    return {"ope_static_s" + std::to_string(stages),
            dfs::to_petri(p.graph).net};
}

inline Fixture ope_fixture(int stages, int depth) {
    auto p = ope::build_reconfigurable_ope_dfs(stages, depth);
    return {"ope_s" + std::to_string(stages) + "_d" + std::to_string(depth),
            dfs::to_petri(p.graph).net};
}

/// The gap misconfiguration of Section III-A: stage 2 bypassed under an
/// active stage 3 — deadlock reachable, so witness paths get exercised.
inline Fixture gap_fixture() {
    auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                         dfs::TokenValue::False);
    return {"ope_gap", dfs::to_petri(p.graph).net};
}

/// Random nets straight from util::Rng: a few token rings (each live on
/// its own) joined by random bridge transitions that move tokens across
/// rings — real choice structure, so random persistence violations and
/// deadlocks, without degenerating into an instantly-stuck net. Read
/// arcs sprinkle in level-sensitive enabling. Not necessarily live or
/// deadlock-free — the safe-enabling semantics is total either way, and
/// every engine must agree on it exactly.
inline Fixture random_fixture(std::uint64_t seed) {
    util::Rng rng(seed);
    Net net("rand_" + std::to_string(seed));
    std::vector<PlaceId> ps;
    const int rings = 2 + static_cast<int>(rng.below(3));
    for (int r = 0; r < rings; ++r) {
        const int len = 2 + static_cast<int>(rng.below(3));
        std::vector<PlaceId> ring;
        for (int i = 0; i < len; ++i) {
            ring.push_back(net.add_place(
                "r" + std::to_string(r) + "_p" + std::to_string(i),
                i == 0));
        }
        for (int i = 0; i < len; ++i) {
            const auto t = net.add_transition(
                "r" + std::to_string(r) + "_t" + std::to_string(i));
            net.add_input_arc(ring[i], t);
            net.add_output_arc(t, ring[(i + 1) % len]);
        }
        ps.insert(ps.end(), ring.begin(), ring.end());
    }
    const int bridges = 2 + static_cast<int>(rng.below(4));
    for (int b = 0; b < bridges; ++b) {
        const auto t = net.add_transition("b" + std::to_string(b));
        const PlaceId from = ps[rng.below(ps.size())];
        PlaceId to = ps[rng.below(ps.size())];
        while (to == from) to = ps[rng.below(ps.size())];
        net.add_input_arc(from, t);
        net.add_output_arc(t, to);
        if (rng.chance(0.4)) {
            PlaceId guard = ps[rng.below(ps.size())];
            while (guard == from) guard = ps[rng.below(ps.size())];
            net.add_read_arc(guard, t);
        }
    }
    return {net.name(), std::move(net)};
}

/// A deep token ring at the Petri level: `n` places in a cycle with
/// tokens every `spacing` places. BFS diameter grows with n while layers
/// stay narrow — the steal-heavy workload for the work-stealing
/// scheduler.
inline Fixture deep_ring_fixture(int n, int spacing) {
    dfs::Graph g("deepring_n" + std::to_string(n) + "_s" +
                 std::to_string(spacing));
    std::vector<dfs::NodeId> regs;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i),
                                     i % spacing == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return {g.name(), dfs::to_petri(g).net};
}

/// Fork/join topology: a live backbone ring plus random blocks where one
/// transition forks a token into 2-3 parallel branch chains and a join
/// transition synchronises them back — real concurrency (wide layers)
/// and synchronisation (joins starve until every branch arrives).
inline Fixture fork_join_fixture(std::uint64_t seed) {
    util::Rng rng(seed ^ 0xF04BULL);
    Net net("fuzz_forkjoin_" + std::to_string(seed));
    const int len = 3 + static_cast<int>(rng.below(3));
    std::vector<PlaceId> ring;
    for (int i = 0; i < len; ++i) {
        ring.push_back(net.add_place("r_p" + std::to_string(i), i == 0));
    }
    for (int i = 0; i < len; ++i) {
        const auto t = net.add_transition("r_t" + std::to_string(i));
        net.add_input_arc(ring[i], t);
        net.add_output_arc(t, ring[(i + 1) % len]);
    }
    const int blocks = 1 + static_cast<int>(rng.below(2));
    for (int b = 0; b < blocks; ++b) {
        const std::string tag = "b" + std::to_string(b);
        const auto fork = net.add_transition(tag + "_fork");
        net.add_input_arc(ring[rng.below(ring.size())], fork);
        const auto join = net.add_transition(tag + "_join");
        const int branches = 2 + static_cast<int>(rng.below(2));
        for (int k = 0; k < branches; ++k) {
            const int hops = 1 + static_cast<int>(rng.below(2));
            PlaceId prev = net.add_place(
                tag + "_k" + std::to_string(k) + "_p0", false);
            net.add_output_arc(fork, prev);
            for (int h = 1; h <= hops; ++h) {
                const auto step = net.add_transition(
                    tag + "_k" + std::to_string(k) + "_t" +
                    std::to_string(h));
                const auto next = net.add_place(
                    tag + "_k" + std::to_string(k) + "_p" +
                    std::to_string(h), false);
                net.add_input_arc(prev, step);
                net.add_output_arc(step, next);
                prev = next;
            }
            net.add_input_arc(prev, join);
        }
        net.add_output_arc(join, ring[rng.below(ring.size())]);
    }
    return {net.name(), std::move(net)};
}

/// Bridged mesh topology: a g x g torus of places with a few tokens,
/// transitions shifting a token right/down, read-arc guards sprinkled
/// in, plus long-range bridge transitions — dense duplicate edges (many
/// paths to the same marking), the canonical-min CAS hot case.
inline Fixture mesh_fixture(std::uint64_t seed) {
    util::Rng rng(seed ^ 0x3E5AULL);
    Net net("fuzz_mesh_" + std::to_string(seed));
    const int g = 3 + static_cast<int>(rng.below(2));
    const int tokens = 2 + static_cast<int>(rng.below(2));
    std::vector<PlaceId> cell;
    for (int i = 0; i < g * g; ++i) {
        cell.push_back(
            net.add_place("m_p" + std::to_string(i), i < tokens));
    }
    auto shift = [&](int from, int to, const std::string& name) {
        const auto t = net.add_transition(name);
        net.add_input_arc(cell[from], t);
        net.add_output_arc(t, cell[to]);
        if (rng.chance(0.2)) {
            int guard = static_cast<int>(rng.below(cell.size()));
            while (guard == from) {
                guard = static_cast<int>(rng.below(cell.size()));
            }
            net.add_read_arc(cell[guard], t);
        }
    };
    for (int r = 0; r < g; ++r) {
        for (int c = 0; c < g; ++c) {
            const int i = r * g + c;
            shift(i, r * g + (c + 1) % g, "m_r" + std::to_string(i));
            shift(i, ((r + 1) % g) * g + c, "m_d" + std::to_string(i));
        }
    }
    const int bridges = static_cast<int>(rng.below(3));
    for (int b = 0; b < bridges; ++b) {
        const int from = static_cast<int>(rng.below(cell.size()));
        int to = static_cast<int>(rng.below(cell.size()));
        while (to == from) to = static_cast<int>(rng.below(cell.size()));
        shift(from, to, "m_b" + std::to_string(b));
    }
    return {net.name(), std::move(net)};
}

/// Seeded random model generator cycling through the three topology
/// classes. Every fixture name embeds the seed, so a differential
/// mismatch prints exactly what to replay.
inline Fixture fuzz_fixture(std::uint64_t seed) {
    switch (seed % 3) {
        case 0: return fork_join_fixture(seed);
        case 1: return mesh_fixture(seed);
        default: return random_fixture(seed);
    }
}

/// Parameter printing for suites parameterised over the zoo (TEST_P +
/// ValuesIn(all_fixtures())): gtest_discover_tests names each ctest case
/// after the printed value, so the cases read `.../wagging`, not `.../6`.
inline void PrintTo(const Fixture& fixture, std::ostream* os) {
    *os << fixture.name;
}

inline std::vector<Fixture> all_fixtures() {
    std::vector<Fixture> fixtures;
    for (int d = 1; d <= 6; ++d) fixtures.push_back(ring_fixture(d));
    fixtures.push_back(wagging_fixture());
    fixtures.push_back(static_ope_fixture(2));
    fixtures.push_back(ope_fixture(3, 3));
    fixtures.push_back(gap_fixture());
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fixtures.push_back(random_fixture(seed));
    }
    return fixtures;
}

// ----------------------------------------------------------- plumbing --

/// Exhaustive multi-property query over `net`: a deadlock goal, a
/// marked-place goal, full deadlock collection and persistence checking.
/// Exhaustive passes are where the differential contracts promise exact
/// equality on verdicts and sets.
struct QueryBundle {
    Predicate dead = Predicate::deadlock();
    Predicate marked;
    MultiQuery query;

    explicit QueryBundle(const Net& net)
        : marked(Predicate::marked(net, net.place_name(PlaceId{0}))) {
        query.goals = {&dead, &marked};
        query.collect_deadlocks = true;
        query.check_persistence = true;
    }
};

inline std::vector<Marking> sorted(std::vector<Marking> markings) {
    std::sort(markings.begin(), markings.end());
    return markings;
}

using ViolationKey = std::tuple<Marking, std::uint32_t, std::uint32_t>;

inline std::vector<ViolationKey> violation_set(
    const std::vector<PersistenceViolation>& violations) {
    std::vector<ViolationKey> keys;
    keys.reserve(violations.size());
    for (const auto& v : violations) {
        keys.emplace_back(v.marking, v.fired.value, v.disabled.value);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

/// Replays `trace` from the initial marking; the result must be `end`.
/// Guards witness reconstruction: a wrong predecessor step produces a
/// disabled firing or lands on the wrong marking.
inline void expect_replays(const Net& net, const Trace& trace,
                           const Marking& end, const std::string& context) {
    Marking m = net.initial_marking();
    for (const TransitionId t : trace.firings) {
        ASSERT_TRUE(net.is_enabled(m, t))
            << context << ": witness trace fires disabled "
            << net.transition_name(t);
        net.fire(m, t);
    }
    EXPECT_EQ(m, end) << context << ": witness trace misses its witness";
}

/// The oracle's answer to a QueryBundle-shaped query over `net`.
inline oracle::Result oracle_for(const Net& net, const MultiQuery& query) {
    return oracle::explore(net, query.goals, query.check_persistence,
                           query.persistence_exempt);
}

/// Verdict-level agreement with the oracle — what POR passes must keep:
/// goal reachability, the exact deadlock set, and the persistence
/// verdict. Witness traces must still replay onto their witnesses.
inline void expect_verdicts_match_oracle(const Net& net,
                                         const oracle::Result& ref,
                                         const MultiResult& result,
                                         const std::string& context) {
    EXPECT_FALSE(result.truncated) << context;
    EXPECT_EQ(sorted(result.deadlocks), ref.deadlocks) << context;
    EXPECT_EQ(result.persistence_violations.empty(), ref.violations.empty())
        << context;
    ASSERT_EQ(result.goals.size(), ref.goal_depth.size()) << context;
    for (std::size_t g = 0; g < ref.goal_depth.size(); ++g) {
        const auto& r = result.goals[g];
        ASSERT_EQ(r.found(), ref.goal_depth[g].has_value())
            << context << " goal " << g;
        if (!r.found()) continue;
        ASSERT_TRUE(r.witness_trace.has_value()) << context;
        expect_replays(net, *r.witness_trace, *r.witness,
                       context + " goal " + std::to_string(g));
    }
}

/// Exact agreement with the oracle — what full passes must give: every
/// counter and set, plus BFS-shortest witnesses (trace length equals the
/// oracle's first-match depth).
inline void expect_matches_oracle(const Net& net, const oracle::Result& ref,
                                  const MultiResult& result,
                                  const std::string& context) {
    expect_verdicts_match_oracle(net, ref, result, context);
    EXPECT_EQ(result.states_explored, ref.states) << context;
    EXPECT_EQ(result.edges_explored, ref.edges) << context;
    EXPECT_EQ(violation_set(result.persistence_violations), ref.violations)
        << context;
    for (std::size_t g = 0; g < ref.goal_depth.size(); ++g) {
        if (!ref.goal_depth[g] || !result.goals[g].witness_trace) continue;
        EXPECT_EQ(result.goals[g].witness_trace->firings.size(),
                  *ref.goal_depth[g])
            << context << " goal " << g;
    }
}

/// Two passes must be indistinguishable: counters, sets, witness markings
/// AND traces, violation traces — the contract across thread counts,
/// store layouts, scratch vs reused stores, and resumed vs uninterrupted
/// passes. Every witness of `b` must also replay onto `net`.
inline void expect_identical(const Net& net, const MultiResult& a,
                             const MultiResult& b,
                             const std::string& context) {
    EXPECT_EQ(a.states_explored, b.states_explored) << context;
    EXPECT_EQ(a.edges_explored, b.edges_explored) << context;
    EXPECT_EQ(a.truncated, b.truncated) << context;
    EXPECT_EQ(a.deadlocks, b.deadlocks) << context;
    EXPECT_EQ(violation_set(a.persistence_violations),
              violation_set(b.persistence_violations))
        << context;
    ASSERT_EQ(a.goals.size(), b.goals.size()) << context;
    for (std::size_t g = 0; g < a.goals.size(); ++g) {
        ASSERT_EQ(a.goals[g].found(), b.goals[g].found())
            << context << " goal " << g;
        if (!a.goals[g].found()) continue;
        EXPECT_EQ(a.goals[g].witness, b.goals[g].witness)
            << context << " goal " << g;
        EXPECT_EQ(a.goals[g].witness_trace->firings,
                  b.goals[g].witness_trace->firings)
            << context << " goal " << g;
        expect_replays(net, *b.goals[g].witness_trace, *b.goals[g].witness,
                       context + " goal " + std::to_string(g));
    }
    ASSERT_EQ(a.persistence_violations.size(),
              b.persistence_violations.size())
        << context;
    for (std::size_t v = 0; v < a.persistence_violations.size(); ++v) {
        EXPECT_EQ(a.persistence_violations[v].trace_to_marking.firings,
                  b.persistence_violations[v].trace_to_marking.firings)
            << context << " violation " << v;
    }
}

}  // namespace rap::petri::testfx
