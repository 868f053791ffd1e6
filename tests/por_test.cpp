// Differential harness for partial-order (stubborn-set) reduction:
// every fixture model and 24 fuzzer seeds run reduced
// (ReachabilityOptions::por) at 1/2/4/8 threads against the full
// state graph of the std::set BFS oracle (petri_oracle.hpp). The
// contract checked here is exactly the one the option documents —
// verdicts preserved (deadlock sets EXACTLY equal, goal reachability
// and the persistence verdict unchanged), reduced witnesses genuine
// (replayed firing by firing, goal re-evaluated at the end marking),
// reduced violation sets a subset of the full graph's, reduced counters
// identical across thread counts — plus the PorStats surface, the
// unknown-support fallback, and actual state-count reduction on the OPE
// models the CI ratio floor gates.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "petri/parallel.hpp"
#include "petri/por.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"

namespace rap::petri {
namespace {

using namespace testfx;  // model zoo + differential plumbing

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// Reduced exhaustive pass at `threads` workers.
MultiResult reduced_run(const CompiledNet& compiled,
                        const MultiQuery& query, std::size_t threads) {
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.por = true;
    options.threads = threads;
    ParallelReachabilityExplorer par(compiled, options);
    return par.run_query(query);
}

/// Re-evaluates a goal at a witness marking (Deadlock goals through the
/// net, predicate goals directly) — reduced witnesses need not match the
/// full pass's marking, so satisfaction is re-checked semantically.
bool satisfies(const Net& net, const Predicate& goal, const Marking& m) {
    if (goal.kind() == Predicate::Kind::Deadlock) {
        return net.is_deadlocked(m);
    }
    return goal(net, m);
}

/// The reduction contract between the full state graph (the oracle) and
/// one reduced pass over the same query.
void expect_preserves(const Net& net, const QueryBundle& bundle,
                      const oracle::Result& full, const MultiResult& red,
                      const std::string& context) {
    ASSERT_FALSE(red.truncated) << context;
    EXPECT_LE(red.states_explored, full.states) << context;
    EXPECT_LE(red.edges_explored, full.edges) << context;

    // Deadlock sets are EXACTLY preserved (stubbornness alone keeps
    // every deadlock reachable, and reduction never invents states);
    // goal verdicts and the persistence verdict match, and witnesses
    // replay onto their markings.
    expect_verdicts_match_oracle(net, full, red, context);

    // Reduced witnesses satisfy their goal (they need not be shortest,
    // and the marking may differ from the full pass's).
    const Predicate* goal_preds[] = {&bundle.dead, &bundle.marked};
    for (std::size_t g = 0; g < red.goals.size(); ++g) {
        if (!red.goals[g].found()) continue;
        EXPECT_TRUE(satisfies(net, *goal_preds[g], *red.goals[g].witness))
            << context << " goal " << g;
    }

    // Every reduced violation is one the full graph has too (the
    // prepass checks full-graph edges at reduced-reachable states, so
    // red ⊆ full).
    const auto red_keys = violation_set(red.persistence_violations);
    EXPECT_TRUE(std::includes(full.violations.begin(),
                              full.violations.end(), red_keys.begin(),
                              red_keys.end()))
        << context << ": reduced violations are not a subset";
    for (const auto& v : red.persistence_violations) {
        expect_replays(net, v.trace_to_marking, v.marking,
                       context + " violation");
        ASSERT_TRUE(net.is_enabled(v.marking, v.fired)) << context;
        ASSERT_TRUE(net.is_enabled(v.marking, v.disabled)) << context;
        Marking after = v.marking;
        net.fire(after, v.fired);
        EXPECT_FALSE(net.is_enabled(after, v.disabled))
            << context << ": reported violation does not disable";
    }

    // Stats surface: the pass ran with reduction and the counters are
    // internally consistent.
    EXPECT_TRUE(red.por.active) << context;
    EXPECT_GT(red.por.expansions, 0u) << context;
    EXPECT_GE(red.por.enabled_transitions, red.por.expanded_transitions)
        << context;
    EXPECT_GE(red.por.expansions, red.por.reduced_expansions) << context;
    EXPECT_GE(red.por.reduced_expansions, red.por.proviso_expansions)
        << context;
}

/// The reduced graph is one deterministic object: counters, sets and
/// stats must be identical whichever thread count explored it.
void expect_same_reduced_graph(const MultiResult& a, const MultiResult& b,
                               const std::string& context) {
    EXPECT_EQ(a.states_explored, b.states_explored) << context;
    EXPECT_EQ(a.edges_explored, b.edges_explored) << context;
    EXPECT_EQ(sorted(a.deadlocks), sorted(b.deadlocks)) << context;
    EXPECT_EQ(violation_set(a.persistence_violations),
              violation_set(b.persistence_violations))
        << context;
    EXPECT_EQ(a.por.expansions, b.por.expansions) << context;
    EXPECT_EQ(a.por.reduced_expansions, b.por.reduced_expansions)
        << context;
    EXPECT_EQ(a.por.proviso_expansions, b.por.proviso_expansions)
        << context;
    EXPECT_EQ(a.por.enabled_transitions, b.por.enabled_transitions)
        << context;
    EXPECT_EQ(a.por.expanded_transitions, b.por.expanded_transitions)
        << context;
}

// -------------------------------------------------------- differential --

// One ctest case per zoo fixture, so the oracle BFS of the biggest model
// (the 842k-state wagging stage) cannot push the whole zoo past a slow
// build's per-test timeout.
class PorDifferentialZoo : public ::testing::TestWithParam<Fixture> {};

TEST_P(PorDifferentialZoo, VerdictsPreserved) {
    const Fixture& fixture = GetParam();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const oracle::Result full = oracle_for(fixture.net, bundle.query);

    std::optional<MultiResult> baseline;
    for (const std::size_t threads : kThreadCounts) {
        const std::string context =
            fixture.name + " reduced @" + std::to_string(threads) + "t";
        const auto red = reduced_run(compiled, bundle.query, threads);
        expect_preserves(fixture.net, bundle, full, red, context);
        if (baseline) {
            expect_same_reduced_graph(*baseline, red, context);
        } else {
            baseline = red;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(EveryFixture, PorDifferentialZoo,
                         ::testing::ValuesIn(all_fixtures()));

TEST(PorDifferential, RandomizedFuzzer24Seeds) {
    // 24 seeded random models across the three topology classes, reduced
    // vs full at every thread count. On mismatch the scoped trace names
    // the failing seed and topology to replay.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Fixture fixture = fuzz_fixture(seed);
        SCOPED_TRACE("fuzz seed=" + std::to_string(seed) +
                     " model=" + fixture.name);
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);
        const oracle::Result full = oracle_for(fixture.net, bundle.query);

        std::optional<MultiResult> baseline;
        for (const std::size_t threads : kThreadCounts) {
            const std::string context =
                "fuzz seed=" + std::to_string(seed) + " model=" +
                fixture.name + " reduced @" + std::to_string(threads) + "t";
            const auto red = reduced_run(compiled, bundle.query, threads);
            expect_preserves(fixture.net, bundle, full, red, context);
            if (baseline) {
                expect_same_reduced_graph(*baseline, red, context);
            } else {
                baseline = red;
            }
        }
    }
}

// ---------------------------------------------------- actual reduction --

TEST(PorReduction, DeadlockPassShrinksTheOpeModels) {
    // The quantity the CI ratio floor gates (bench_por + compare.py
    // --por): on the highly concurrent OPE models, a pass that needs no
    // proviso (deadlock detection / plain exploration) must actually
    // explore fewer states, with identical deadlock verdicts.
    for (const Fixture& fixture :
         {static_ope_fixture(2), ope_fixture(3, 3)}) {
        const CompiledNet compiled(fixture.net);
        MultiQuery query;
        const Predicate dead = Predicate::deadlock();
        query.goals = {&dead};
        query.collect_deadlocks = true;

        const oracle::Result full = oracle_for(fixture.net, query);
        const auto red = reduced_run(compiled, query, 1);
        ASSERT_FALSE(red.truncated) << fixture.name;
        EXPECT_EQ(sorted(red.deadlocks), full.deadlocks) << fixture.name;
        EXPECT_EQ(red.goals[0].found(), full.goal_depth[0].has_value())
            << fixture.name;
        EXPECT_LT(red.states_explored, full.states) << fixture.name;
        EXPECT_GT(red.por.ignored(), 0u) << fixture.name;

        // Four workers explore the same reduced graph.
        const auto red4 = reduced_run(compiled, query, 4);
        expect_same_reduced_graph(red, red4, fixture.name + " @4t");
    }
}

TEST(PorReduction, FiveStageOpeReducedPassFitsTierOne) {
    // Promoted from the soak tier (ROADMAP follow-up (e)): the FULL
    // 5-stage reconfigurable OPE is far beyond the 19M-state 4-stage
    // soak, but its reduced deadlock pass explores ~11k states in
    // milliseconds — so the deepest configuration's liveness verdict now
    // runs on every tier-1 ctest instead of once a night. The bound
    // below is a regression tripwire for the stubborn heuristic, ~10x
    // above the measured count without letting the pass grow soak-sized.
    const Fixture fixture = ope_fixture(5, 5);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    const Predicate dead = Predicate::deadlock();
    query.goals = {&dead};
    query.collect_deadlocks = true;

    const auto red = reduced_run(compiled, query, 1);
    ASSERT_FALSE(red.truncated);
    EXPECT_FALSE(red.goals[0].found()) << "5-stage OPE deadlocked";
    EXPECT_TRUE(red.deadlocks.empty());
    EXPECT_TRUE(red.por.active);
    EXPECT_GT(red.por.ignored(), 0u);
    EXPECT_LT(red.states_explored, 120'000u)
        << "reduced 5-stage graph grew an order of magnitude — the "
           "stubborn heuristic regressed";

    // Deterministic reduced graph across thread counts.
    const auto red4 = reduced_run(compiled, query, 4);
    expect_same_reduced_graph(red, red4, fixture.name + " @4t");
}

// ------------------------------------------------------- stats surface --

TEST(PorStats, InactiveWhenOff) {
    const Fixture fixture = ring_fixture(2);
    const CompiledNet compiled(fixture.net);
    ParallelReachabilityExplorer explorer(compiled);
    const auto result = explorer.explore_all();
    EXPECT_FALSE(result.por.active);
    EXPECT_EQ(result.por.expansions, 0u);
    EXPECT_EQ(result.por.enabled_transitions, 0u);
    EXPECT_EQ(result.por.ignored(), 0u);
}

TEST(PorStats, UnknownSupportGoalFallsBackToFullExploration) {
    // A custom predicate without declared support places makes the
    // visibility condition unbounded: the pass must fall back to full
    // exploration (active == false) and still answer correctly.
    const Fixture fixture = ring_fixture(2);
    const CompiledNet compiled(fixture.net);
    const Predicate opaque = Predicate::custom(
        "opaque", [](const Net&, const Marking& m) { return m.get(0); });

    MultiQuery query;
    query.goals = {&opaque};
    const oracle::Result full = oracle_for(fixture.net, query);

    for (const std::size_t threads : kThreadCounts) {
        const auto red = reduced_run(compiled, query, threads);
        EXPECT_FALSE(red.por.active) << threads;
        EXPECT_EQ(red.states_explored, full.states) << threads;
        EXPECT_EQ(red.edges_explored, full.edges) << threads;
        EXPECT_EQ(red.goals[0].found(), full.goal_depth[0].has_value())
            << threads;
    }
}

TEST(PorStats, SupportedCustomGoalKeepsReductionActive) {
    // The same predicate with declared support reduces like any other
    // pass — the fallback is per-support, not per-kind.
    const Fixture fixture = static_ope_fixture(2);
    const CompiledNet compiled(fixture.net);
    const Predicate scoped = Predicate::custom(
        "scoped", [](const Net&, const Marking& m) { return m.get(0); },
        {PlaceId{0}});

    MultiQuery query;
    query.goals = {&scoped};
    const oracle::Result full = oracle_for(fixture.net, query);
    const auto red = reduced_run(compiled, query, 1);
    EXPECT_TRUE(red.por.active);
    EXPECT_EQ(red.goals[0].found(), full.goal_depth[0].has_value());
    if (red.goals[0].found()) {
        expect_replays(fixture.net, *red.goals[0].witness_trace,
                       *red.goals[0].witness, "scoped custom goal");
        EXPECT_TRUE(red.goals[0].witness->get(0));
    }
}

}  // namespace
}  // namespace rap::petri
