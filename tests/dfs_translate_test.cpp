#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>

#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "util/rng.hpp"

namespace rap::dfs {
namespace {

using testing::add_control_ring;
using testing::make_fig1b;

TEST(Translate, Fig1bNetSize) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    // logic: 2 places/2 transitions; static register: 2/2;
    // dynamic register (Fig. 3c): 6 places / 4 transitions.
    // fig1b = 1 logic + 2 static + 3 dynamic.
    EXPECT_EQ(tr.net.place_count(), 2u + 2 * 2 + 3 * 6);
    EXPECT_EQ(tr.net.transition_count(), 2u + 2 * 2 + 3 * 4);
    EXPECT_EQ(tr.net.name(), "fig1b_pn");
}

TEST(Translate, InitialMarkingAgreesWithInitialState) {
    auto m = make_fig1b();
    m.graph.set_initial(m.ctrl, true, TokenValue::False);
    const Translation tr = to_petri(m.graph);
    const State s0 = State::initial(m.graph);
    EXPECT_EQ(tr.net.initial_marking(), tr.encode(m.graph, s0));
}

TEST(Translate, VariablePlacePairsAreOneHot) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    const petri::Marking m0 = tr.net.initial_marking();
    for (NodeId n : m.graph.nodes()) {
        const auto& slots = tr.places[n.value];
        if (m.graph.is_logic(n)) {
            EXPECT_NE(m0.get(slots.c0.value), m0.get(slots.c1.value));
        } else {
            EXPECT_NE(m0.get(slots.m0.value), m0.get(slots.m1.value));
            if (m.graph.is_dynamic(n)) {
                EXPECT_NE(m0.get(slots.mt0.value), m0.get(slots.mt1.value));
                EXPECT_NE(m0.get(slots.mf0.value), m0.get(slots.mf1.value));
            }
        }
    }
}

TEST(Translate, TransitionNamingConvention) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    EXPECT_TRUE(tr.net.find_transition("C_cond+").has_value());
    EXPECT_TRUE(tr.net.find_transition("M_in-").has_value());
    EXPECT_TRUE(tr.net.find_transition("Mt_ctrl+").has_value());
    EXPECT_TRUE(tr.net.find_transition("Mf_filt-").has_value());
    EXPECT_FALSE(tr.net.find_transition("M_ctrl+").has_value());
}

TEST(Translate, SimultaneousChoiceEnablingMatchesFig4) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const Translation tr = to_petri(m.graph);

    State s = State::initial(m.graph);
    dyn.apply(s, {m.in, EventKind::Mark});
    dyn.apply(s, {m.cond, EventKind::LogicEvaluate});
    const petri::Marking pm = tr.encode(m.graph, s);
    // "transitions Mt_ctrl+ and Mf_ctrl+ can be enabled simultaneously"
    EXPECT_TRUE(tr.net.is_enabled(pm, *tr.net.find_transition("Mt_ctrl+")));
    EXPECT_TRUE(tr.net.is_enabled(pm, *tr.net.find_transition("Mf_ctrl+")));
}

TEST(Translate, TransitionForMapsEveryEventKind) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    EXPECT_NO_THROW(
        tr.transition_for(m.graph, {m.cond, EventKind::LogicEvaluate}, false));
    EXPECT_NO_THROW(
        tr.transition_for(m.graph, {m.in, EventKind::Unmark}, false));
    const auto mt = tr.transition_for(m.graph, {m.ctrl, EventKind::Unmark},
                                      /*token_true=*/true);
    EXPECT_EQ(tr.net.transition_name(mt), "Mt_ctrl-");
    const auto mf = tr.transition_for(m.graph, {m.ctrl, EventKind::Unmark},
                                      /*token_true=*/false);
    EXPECT_EQ(tr.net.transition_name(mf), "Mf_ctrl-");
}

// --------------------------------------------------------- lockstep --

/// Runs a long random walk on the DFS semantics while firing the mapped
/// transition on the PN side, checking the markings stay identical. This
/// is the strong form of "the PN captures the DFS execution semantics".
void lockstep_walk(const Graph& graph, std::uint64_t seed,
                   std::uint64_t steps) {
    const Dynamics dyn(graph);
    const Translation tr = to_petri(graph);
    State s = State::initial(graph);
    petri::Marking pm = tr.net.initial_marking();
    util::Rng rng(seed);

    for (std::uint64_t i = 0; i < steps; ++i) {
        const auto enabled = dyn.enabled_events(s);
        if (enabled.empty()) break;
        const Event e = enabled[rng.below(enabled.size())];
        const bool token = graph.is_dynamic(e.node) && s.token_true(e.node);
        const auto t = tr.transition_for(graph, e, token);
        ASSERT_TRUE(tr.net.is_enabled(pm, t))
            << "PN lags DFS: " << tr.net.transition_name(t)
            << " disabled at DFS state " << s.describe(graph);
        dyn.apply(s, e);
        tr.net.fire(pm, t);
        ASSERT_EQ(pm, tr.encode(graph, s))
            << "marking diverged after " << tr.net.transition_name(t);
    }
}

TEST(Translate, LockstepFig1b) {
    const auto m = make_fig1b();
    lockstep_walk(m.graph, 17, 5000);
}

TEST(Translate, LockstepControlRing) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::False);
    lockstep_walk(g, 23, 1000);
}

TEST(Translate, LockstepControlledPipeline) {
    // A pipeline where a control ring gates a push/pop pair around a
    // middle register — the Fig. 6c building block in miniature.
    Graph g("mini");
    const auto in = g.add_register("in");
    const auto ring = add_control_ring(g, "cfg", TokenValue::False);
    const auto push = g.add_push("push");
    const auto mid = g.add_register("mid");
    const auto pop = g.add_pop("pop");
    const auto sink = g.add_register("sink");
    g.connect(in, push);
    g.connect(ring.c1, push);
    g.connect(push, mid);
    g.connect(mid, pop);
    g.connect(ring.c1, pop);
    g.connect(pop, sink);
    lockstep_walk(g, 29, 5000);
}

// ------------------------------------------------- state-space match --

std::size_t dfs_state_count(const Dynamics& dyn) {
    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    const State s0 = State::initial(dyn.graph());
    seen.insert(s0);
    frontier.push_back(s0);
    while (!frontier.empty()) {
        const State s = frontier.front();
        frontier.pop_front();
        for (const Event& e : dyn.enabled_events(s)) {
            State next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    return seen.size();
}

void expect_equal_state_spaces(const Graph& graph) {
    const Dynamics dyn(graph);
    const Translation tr = to_petri(graph);
    petri::ParallelReachabilityExplorer explorer(tr.net);
    EXPECT_EQ(dfs_state_count(dyn), explorer.count_states());
}

TEST(Translate, StateSpaceBisimulationFig1b) {
    expect_equal_state_spaces(make_fig1b().graph);
}

TEST(Translate, StateSpaceBisimulationControlRing) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::True);
    expect_equal_state_spaces(g);
}

TEST(Translate, PnDeadlockFreeForFig1b) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    petri::ParallelReachabilityExplorer explorer(tr.net);
    EXPECT_TRUE(explorer.find_deadlocks().deadlocks.empty());
}

TEST(Translate, PnFindsSeededDeadlock) {
    // Incorrect initialisation (Section III-A): marking filt initially
    // without its upstream token cannot return to a live cycle — the
    // verifier must find *some* deadlock.
    Graph g("mini_bad");
    const auto in = g.add_register("in");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", true, TokenValue::True);
    const auto c3 = g.add_control("c3", true, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c3);
    g.connect(c3, c1);
    const auto push = g.add_push("push");
    const auto sink = g.add_register("sink");
    g.connect(in, push);
    g.connect(c1, push);
    g.connect(push, sink);
    // A fully marked control ring can never advance: every register's
    // R-postset is occupied.
    const Translation tr = to_petri(g);
    petri::ParallelReachabilityExplorer explorer(tr.net);
    const auto result = explorer.find_deadlocks();
    EXPECT_FALSE(result.deadlocks.empty());
}

}  // namespace
}  // namespace rap::dfs
