// Tests for the compiled reachability engine: CompiledNet agreement with
// the interpreted Net semantics, the single-pass multi-goal API,
// truncation semantics, witness determinism, and the first-match witness
// guarantee.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <unordered_map>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/parallel.hpp"
#include "petri/persistence.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri/reuse.hpp"
#include "petri_oracle.hpp"

namespace rap::petri {
namespace {

/// p0 -> t0 -> p1 -> t1 -> p0 : a two-place ring with one token.
Net make_ring() {
    Net net("ring");
    const auto p0 = net.add_place("p0", true);
    const auto p1 = net.add_place("p1", false);
    const auto t0 = net.add_transition("t0");
    const auto t1 = net.add_transition("t1");
    net.add_input_arc(p0, t0);
    net.add_output_arc(t0, p1);
    net.add_input_arc(p1, t1);
    net.add_output_arc(t1, p0);
    return net;
}

/// `n` independent two-place toggles: 2^n reachable states.
Net make_toggles(int n) {
    Net net("toggles");
    for (int i = 0; i < n; ++i) {
        const auto p0 = net.add_place("b" + std::to_string(i) + "_0", true);
        const auto p1 = net.add_place("b" + std::to_string(i) + "_1", false);
        const auto up = net.add_transition("u" + std::to_string(i));
        const auto dn = net.add_transition("d" + std::to_string(i));
        net.add_input_arc(p0, up);
        net.add_output_arc(up, p1);
        net.add_input_arc(p1, dn);
        net.add_output_arc(dn, p0);
    }
    return net;
}

/// A net exercising read arcs, contact-freeness and shared places: the
/// compiled term arrays must reproduce every enabling nuance.
Net make_mixed() {
    Net net("mixed");
    const auto guard = net.add_place("guard", true);
    const auto src = net.add_place("src", true);
    const auto mid = net.add_place("mid", false);
    const auto dst = net.add_place("dst", false);
    const auto t_move = net.add_transition("move");
    net.add_input_arc(src, t_move);
    net.add_output_arc(t_move, mid);
    net.add_read_arc(guard, t_move);
    const auto t_fwd = net.add_transition("fwd");
    net.add_input_arc(mid, t_fwd);
    net.add_output_arc(t_fwd, dst);
    const auto t_drop = net.add_transition("drop");
    net.add_input_arc(guard, t_drop);
    net.add_output_arc(t_drop, dst);
    const auto t_self = net.add_transition("self");
    net.add_input_arc(dst, t_self);
    net.add_output_arc(t_self, dst);
    return net;
}

// ------------------------------------------------------- CompiledNet --

TEST(CompiledNet, AgreesWithNetOnEveryReachableMarking) {
    for (const Net& net : {make_ring(), make_toggles(4), make_mixed()}) {
        const CompiledNet compiled(net);
        // Walk the full reachable set with the *interpreted* semantics
        // and cross-check enabledness and firing word-for-word.
        std::unordered_map<Marking, std::size_t, util::BitVecHash> seen;
        std::deque<Marking> frontier;
        const Marking m0 = net.initial_marking();
        seen.emplace(m0, 0);
        frontier.push_back(m0);
        while (!frontier.empty()) {
            const Marking current = frontier.front();
            frontier.pop_front();
            for (std::uint32_t ti = 0; ti < net.transition_count(); ++ti) {
                const TransitionId t{ti};
                ASSERT_EQ(compiled.is_enabled(current.word_data(), t),
                          net.is_enabled(current, t))
                    << net.name() << " " << net.transition_name(t) << " at "
                    << net.describe_marking(current);
                if (!net.is_enabled(current, t)) continue;
                Marking via_net = current;
                net.fire(via_net, t);
                Marking via_compiled = current;
                compiled.fire(via_compiled.word_data(), t);
                ASSERT_EQ(via_net, via_compiled);
                if (seen.emplace(via_net, seen.size()).second) {
                    frontier.push_back(via_net);
                }
            }
        }
    }
}

TEST(CompiledNet, IncrementalEnabledSetMatchesFullScan) {
    const Net net = make_mixed();
    const CompiledNet compiled(net);
    std::deque<Marking> frontier;
    std::unordered_map<Marking, std::size_t, util::BitVecHash> seen;
    const Marking m0 = net.initial_marking();
    seen.emplace(m0, 0);
    frontier.push_back(m0);
    std::vector<std::uint64_t> parent_enabled(compiled.enabled_words());
    std::vector<std::uint64_t> incremental(compiled.enabled_words());
    std::vector<std::uint64_t> full(compiled.enabled_words());
    while (!frontier.empty()) {
        const Marking current = frontier.front();
        frontier.pop_front();
        compiled.enabled_set(current.word_data(), parent_enabled.data());
        for (std::uint32_t ti = 0; ti < net.transition_count(); ++ti) {
            const TransitionId t{ti};
            if (!net.is_enabled(current, t)) continue;
            Marking next = current;
            net.fire(next, t);
            incremental = parent_enabled;
            compiled.update_enabled(next.word_data(), t, incremental.data());
            compiled.enabled_set(next.word_data(), full.data());
            EXPECT_EQ(incremental, full)
                << "after " << net.transition_name(t);
            if (seen.emplace(next, seen.size()).second) {
                frontier.push_back(next);
            }
        }
    }
}

TEST(CompiledNet, StateCountsMatchNaiveExploration) {
    for (const Net& net : {make_ring(), make_toggles(6), make_mixed()}) {
        ParallelReachabilityExplorer explorer(net);
        EXPECT_EQ(explorer.count_states(), oracle::explore(net).states)
            << net.name();
    }
}

// ------------------------------------------------------ MarkingStore --

TEST(MarkingStore, InternsDedupesAndEnforcesCapacity) {
    // The one interning table in its single-worker role: dense ids in
    // insertion order, dedup hits keep their id, and the state limit
    // refuses inserts without growing the store.
    ConcurrentMarkingStore store(2, 0);
    store.reserve(2);
    const std::uint64_t a[2] = {1, 2};
    const std::uint64_t b[2] = {3, 4};
    const auto ra = store.intern(a, 2);
    EXPECT_TRUE(ra.inserted);
    EXPECT_EQ(ra.id, 0u);
    const auto ra2 = store.intern(a, 2);
    EXPECT_FALSE(ra2.inserted);
    EXPECT_EQ(ra2.id, 0u);
    const auto rb = store.intern(b, 2);
    EXPECT_TRUE(rb.inserted);
    EXPECT_EQ(rb.id, 1u);
    const std::uint64_t c[2] = {5, 6};
    const auto rc = store.intern(c, 2);  // over capacity
    EXPECT_FALSE(rc.inserted);
    EXPECT_EQ(rc.id, ConcurrentMarkingStore::kNone);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store[1][0], 3u);
    EXPECT_EQ(store[1][1], 4u);
    EXPECT_EQ(store.find(c), ConcurrentMarkingStore::kNone);
}

// -------------------------------------------------------- truncation --

TEST(Reachability, TruncationMidExpansionReportsExactStateCount) {
    // 2^12 states, capped at 100: the cap lands mid-expansion of some
    // frontier state. The engine must report truncated with
    // states_explored == max_states exactly (discovered states, no
    // overshoot, no undershoot).
    const Net net = make_toggles(12);
    ReachabilityOptions options;
    options.max_states = 100;
    ParallelReachabilityExplorer explorer(net, options);
    const auto result = explorer.explore_all();
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.states_explored, 100u);
}

TEST(Reachability, TruncationConsistentAcrossQueryShapes) {
    const Net net = make_toggles(12);
    ReachabilityOptions options;
    options.max_states = 64;
    for (int shape = 0; shape < 3; ++shape) {
        ParallelReachabilityExplorer explorer(net, options);
        ReachabilityResult result;
        switch (shape) {
            case 0: result = explorer.explore_all(); break;
            case 1: result = explorer.find_deadlocks(); break;
            default: {
                // An unreachable goal: all toggles simultaneously "up"
                // is reachable, so use an impossible conjunction.
                const auto goal = Predicate::marked(net, "b0_0") &&
                                  Predicate::marked(net, "b0_1");
                result = explorer.find(goal);
                break;
            }
        }
        EXPECT_TRUE(result.truncated) << shape;
        EXPECT_EQ(result.states_explored, 64u) << shape;
        EXPECT_FALSE(result.found()) << shape;
    }
}

TEST(Reachability, NoTruncationAtExactFit) {
    const Net net = make_toggles(5);  // exactly 32 states
    ReachabilityOptions options;
    options.max_states = 32;
    ParallelReachabilityExplorer explorer(net, options);
    const auto result = explorer.explore_all();
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states_explored, 32u);
}

// ---------------------------------------------------------- find_all --

TEST(Reachability, FindAllAnswersEveryGoalInOnePass) {
    const Net net = make_mixed();
    const auto g_dst = Predicate::marked(net, "dst");
    const auto g_mid = Predicate::marked(net, "mid");
    const auto g_dead = Predicate::deadlock();
    const auto g_never =
        Predicate::marked(net, "src") && Predicate::marked(net, "mid");
    const Predicate* goals[] = {&g_dst, &g_mid, &g_dead, &g_never};

    ParallelReachabilityExplorer explorer(net);
    const auto results = explorer.find_all(goals);
    ASSERT_EQ(results.size(), 4u);

    EXPECT_TRUE(results[0].found());
    EXPECT_TRUE(results[1].found());
    // The self-loop on dst keeps every dst-holding state live, and the
    // remaining states always offer move/fwd/drop: no deadlock.
    EXPECT_FALSE(results[2].found());
    EXPECT_FALSE(results[3].found());  // move consumes src before mid fills

    // Witnesses are BFS-shortest per goal.
    EXPECT_EQ(results[1].witness_trace->to_string(net), "move");

    // Every result reports the same shared pass counters.
    for (const auto& r : results) {
        EXPECT_EQ(r.states_explored, results[0].states_explored);
        EXPECT_EQ(r.edges_explored, results[0].edges_explored);
        EXPECT_FALSE(r.truncated);
    }
}

TEST(Reachability, FindAllMatchesIndividualFinds) {
    const Net net = make_toggles(5);
    const auto g1 = Predicate::marked(net, "b3_1");
    const auto g2 = Predicate::marked(net, "b0_1") &&
                    Predicate::marked(net, "b4_1");
    const Predicate* goals[] = {&g1, &g2};

    ParallelReachabilityExplorer multi(net);
    const auto together = multi.find_all(goals);

    ParallelReachabilityExplorer single(net);
    const auto alone1 = single.find(g1);
    const auto alone2 = single.find(g2);

    ASSERT_TRUE(together[0].found());
    ASSERT_TRUE(together[1].found());
    EXPECT_EQ(together[0].witness_trace->firings.size(),
              alone1.witness_trace->firings.size());
    EXPECT_EQ(together[1].witness_trace->firings.size(),
              alone2.witness_trace->firings.size());
    EXPECT_EQ(*together[0].witness, *alone1.witness);
}

TEST(Reachability, RunQueryCombinesGoalsDeadlocksAndPersistence) {
    // Choice net: firing either competitor disables the other, and the
    // sink state is a deadlock.
    Net net("choice");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto c = net.add_place("c", false);
    const auto t1 = net.add_transition("t1");
    const auto t2 = net.add_transition("t2");
    net.add_input_arc(a, t1);
    net.add_output_arc(t1, b);
    net.add_input_arc(a, t2);
    net.add_output_arc(t2, c);

    const auto goal = Predicate::marked(net, "c");
    MultiQuery query;
    query.goals = {&goal};
    query.collect_deadlocks = true;
    query.check_persistence = true;

    ParallelReachabilityExplorer explorer(net);
    const auto multi = explorer.run_query(query);
    EXPECT_EQ(multi.states_explored, 3u);
    ASSERT_EQ(multi.goals.size(), 1u);
    EXPECT_TRUE(multi.goals[0].witness.has_value());
    EXPECT_EQ(multi.deadlocks.size(), 2u);  // {b} and {c}
    ASSERT_FALSE(multi.persistence_violations.empty());
    EXPECT_NE(multi.persistence_violations[0].fired,
              multi.persistence_violations[0].disabled);
}

TEST(Reachability, SharedPassPersistenceMatchesStandalone) {
    const Net net = make_mixed();
    const auto standalone = check_persistence(net);

    MultiQuery query;
    query.check_persistence = true;
    query.persistence_stop_at_first = true;
    ParallelReachabilityExplorer explorer(net);
    const auto multi = explorer.run_query(query);

    ASSERT_EQ(standalone.violations.empty(),
              multi.persistence_violations.empty());
    if (!standalone.violations.empty()) {
        EXPECT_EQ(standalone.violations[0].fired,
                  multi.persistence_violations[0].fired);
        EXPECT_EQ(standalone.violations[0].disabled,
                  multi.persistence_violations[0].disabled);
    }
}

// ------------------------------------------------- first-match witness --

TEST(Reachability, ExhaustiveSearchKeepsFirstWitness) {
    // dst is first reachable via the one-step "drop" firing; deeper
    // matches (via move -> fwd) must NOT overwrite the witness when the
    // exploration continues past the first match.
    const Net net = make_mixed();
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    ParallelReachabilityExplorer explorer(net, options);
    const auto result = explorer.find(Predicate::marked(net, "dst"));
    ASSERT_TRUE(result.found());
    ASSERT_TRUE(result.witness_trace.has_value());
    EXPECT_EQ(result.witness_trace->firings.size(), 1u);
    EXPECT_EQ(result.witness_trace->to_string(net), "drop");
    // The pass itself ran to exhaustion.
    EXPECT_EQ(result.states_explored, oracle::explore(net).states);
}

// ------------------------------------------------------- determinism --

TEST(Reachability, TracesDeterministicAcrossRuns) {
    const Net net = make_toggles(6);
    const auto goal = Predicate::marked(net, "b2_1") &&
                      Predicate::marked(net, "b5_1");
    std::vector<TransitionId> first_firings;
    std::size_t first_states = 0;
    for (int run = 0; run < 3; ++run) {
        ParallelReachabilityExplorer explorer(net);
        const auto result = explorer.find(goal);
        ASSERT_TRUE(result.found());
        if (run == 0) {
            first_firings = result.witness_trace->firings;
            first_states = result.states_explored;
        } else {
            EXPECT_EQ(result.witness_trace->firings, first_firings);
            EXPECT_EQ(result.states_explored, first_states);
        }
    }
}

TEST(Reachability, WitnessTracesReplayFromPredecessorRecords) {
    // Regression for the in-record predecessor links: every reported
    // witness trace must replay firing-by-firing from the initial
    // marking and land exactly on its witness. A predecessor link that
    // silently depended on store insertion order (the old side-array
    // scheme) breaks this the moment records are visited out of order.
    for (const Net& net : {make_ring(), make_toggles(6), make_mixed()}) {
        ReachabilityOptions options;
        options.stop_at_first_match = false;  // witnesses kept, pass runs on
        ParallelReachabilityExplorer explorer(net, options);
        for (std::uint32_t pi = 0; pi < net.place_count(); ++pi) {
            const auto goal =
                Predicate::marked(net, net.place_name(PlaceId{pi}));
            const auto result = explorer.find(goal);
            if (!result.found()) continue;
            ASSERT_TRUE(result.witness_trace.has_value());
            Marking m = net.initial_marking();
            for (const TransitionId t : result.witness_trace->firings) {
                ASSERT_TRUE(net.is_enabled(m, t))
                    << net.name() << ": trace fires disabled "
                    << net.transition_name(t);
                net.fire(m, t);
            }
            EXPECT_EQ(m, *result.witness)
                << net.name() << " goal " << net.place_name(PlaceId{pi});
        }
    }
}

TEST(Reachability, ExplorerInstanceIsReusable) {
    const Net net = make_ring();
    ParallelReachabilityExplorer explorer(net);
    EXPECT_EQ(explorer.count_states(), 2u);
    const auto found = explorer.find(Predicate::marked(net, "p1"));
    EXPECT_TRUE(found.found());
    EXPECT_EQ(explorer.count_states(), 2u);
}

// --------------------------------------------------- memory accounting --

/// `n` toggles plus `dead` permanently disabled transitions. The dead
/// transitions all consume one never-marked place, so they never fire and
/// change nothing about the reachable set — but they widen every
/// enabled-set row, making the frontier cache's transient rows the
/// dominant memory term instead of the interned store.
Net make_wide_toggles(int n, int dead) {
    Net net = make_toggles(n);
    const auto never = net.add_place("never", false);
    for (int i = 0; i < dead; ++i) {
        const auto t = net.add_transition("dead" + std::to_string(i));
        net.add_input_arc(never, t);
    }
    return net;
}

TEST(Reachability, PeakMemoryCapturesMidPassFrontierSpike) {
    // The frontier-only enabled-row cache lives and dies inside the pass:
    // peak_bytes must capture its mid-pass spike while resident_bytes
    // reports what the pass leaves behind. 15 toggles give 2^15 states
    // in a binomial layer profile whose widest two layers hold ~12k
    // rows; 4066 dead transitions fatten each row to 64 words, so the
    // transient rows dwarf the interned store. A correct sampler must
    // therefore report a peak strictly above the final resident bytes.
    const Net net = make_wide_toggles(15, 4066);
    ReachabilityOptions options;
    options.max_states = std::size_t{1} << 16;
    options.threads = 1;
    ParallelReachabilityExplorer explorer(net, options);
    const auto result = explorer.explore_all();
    ASSERT_EQ(result.states_explored, std::size_t{1} << 15);
    ASSERT_FALSE(result.truncated);
    EXPECT_GT(result.memory.peak_bytes, result.memory.resident_bytes);

    // A reuse pass keeps every row resident inside its records, which
    // bounds the dieted peak from above: the spike the sampler reports
    // is a genuine intermediate, not the whole undieted cache.
    ReachabilityOptions no_diet = options;
    no_diet.reuse = std::make_shared<ReuseStore>();
    ParallelReachabilityExplorer reference(net, no_diet);
    const auto full = reference.explore_all();
    ASSERT_EQ(full.states_explored, result.states_explored);
    EXPECT_LT(result.memory.peak_bytes, full.memory.resident_bytes);
}

}  // namespace
}  // namespace rap::petri
