#include <gtest/gtest.h>

#include "dfs_helpers.hpp"
#include "verify/verifier.hpp"

namespace rap::verify {
namespace {

using dfs::Graph;
using dfs::NodeId;
using dfs::TokenValue;
using dfs::testing::add_control_ring;
using dfs::testing::make_fig1b;

TEST(Verifier, Fig1bIsClean) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const Report report = verifier.verify_all();
    EXPECT_TRUE(report.clean()) << report.to_string();
    for (const auto& finding : report.findings) {
        EXPECT_FALSE(finding.truncated);
        // The control-conflict check short-circuits without exploring when
        // no node has multiple controls.
        if (finding.property != Property::ControlConflict) {
            EXPECT_GT(finding.states_explored, 0u);
        }
    }
}

TEST(Verifier, DeadlockFoundInTwoRegisterRing) {
    Graph g("ring2");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c1);
    const Verifier verifier(g);
    const Finding finding = verifier.check_deadlock();
    EXPECT_TRUE(finding.violated);
    // Deadlocked from the start: empty witness trace.
    EXPECT_TRUE(finding.trace.empty());
    EXPECT_NE(finding.to_string().find("VIOLATED"), std::string::npos);
}

TEST(Verifier, HealthyRingHasNoDeadlock) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::True);
    const Verifier verifier(g);
    EXPECT_FALSE(verifier.check_deadlock().violated);
}

TEST(Verifier, ControlConflictDetectedWithMixedRings) {
    // Two rings with opposite polarities control the same push: the
    // incorrect initialisation scenario of Section III-A.
    Graph g("mixed");
    const auto in = g.add_register("in");
    const auto a = add_control_ring(g, "a", TokenValue::True);
    const auto b = add_control_ring(g, "b", TokenValue::False);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(a.c1, p);
    g.connect(b.c1, p);
    g.connect(p, sink);
    const Verifier verifier(g);
    const Finding finding = verifier.check_control_conflict();
    EXPECT_TRUE(finding.violated);
    EXPECT_NE(finding.detail.find("mixed"), std::string::npos);
}

TEST(Verifier, ControlConflictTriviallySafeWithSingleControl) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const Finding finding = verifier.check_control_conflict();
    EXPECT_FALSE(finding.violated);
    EXPECT_NE(finding.detail.find("trivially safe"), std::string::npos);
}

TEST(Verifier, ControlConflictAbsentWithAgreeingRings) {
    Graph g("agree");
    const auto in = g.add_register("in");
    const auto a = add_control_ring(g, "a", TokenValue::True);
    const auto b = add_control_ring(g, "b", TokenValue::True);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(a.c1, p);
    g.connect(b.c1, p);
    g.connect(p, sink);
    const Verifier verifier(g);
    EXPECT_FALSE(verifier.check_control_conflict().violated);
}

TEST(Verifier, PersistenceHoldsForFig1b) {
    // The Mt/Mf choice at ctrl is exempt (intended data-dependent
    // choice); everything else must be persistent.
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const Finding finding = verifier.check_persistence();
    EXPECT_FALSE(finding.violated) << finding.to_string();
}

TEST(Verifier, CustomPredicateReachable) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const auto& net = verifier.translation().net;
    const Finding finding = verifier.check_custom(
        petri::Predicate::marked(net, "Mf_out_1"),
        "empty token at the output");
    EXPECT_TRUE(finding.violated);  // reachable by design
    EXPECT_FALSE(finding.trace.empty());
}

TEST(Verifier, CustomPredicateUnreachable) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const auto& net = verifier.translation().net;
    // comp can never hold a token while filt carries a destroyed one.
    const Finding finding = verifier.check_custom(
        petri::Predicate::marked(net, "M_comp_1") &&
            petri::Predicate::marked(net, "Mf_filt_1"),
        "destroyed token alongside comp data");
    EXPECT_FALSE(finding.violated);
    EXPECT_NE(finding.detail.find("unreachable"), std::string::npos);
}

TEST(Verifier, TruncationReportedAsInconclusive) {
    const auto m = make_fig1b();
    VerifyOptions options;
    options.max_states = 3;
    const Verifier verifier(m.graph, options);
    const Finding finding = verifier.check_deadlock();
    EXPECT_TRUE(finding.truncated);
}

TEST(Verifier, ReportAggregatesAndPrints) {
    Graph g("ring2");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c1);
    const Verifier verifier(g);
    const Report report = verifier.verify_all();
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.findings.size(), 3u);
    EXPECT_NE(report.to_string().find("deadlock"), std::string::npos);
}

TEST(Verifier, VerifyAllRunsExactlyOneExploration) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const Report report = verifier.verify_all();
    // Deadlock, control-conflict and persistence share ONE state-space
    // exploration, so they all report the same (full) state count.
    EXPECT_EQ(verifier.explorations_run(), 1u);
    EXPECT_EQ(report.findings.size(), 3u);
    const std::size_t states = report.findings[0].states_explored;
    EXPECT_GT(states, 0u);
    for (const auto& finding : report.findings) {
        if (finding.property == Property::ControlConflict &&
            finding.detail.find("trivially safe") != std::string::npos) {
            continue;
        }
        EXPECT_EQ(finding.states_explored, states)
            << verify::to_string(finding.property);
    }
}

TEST(Verifier, SpecEvaluatesCustomPredicatesInSharedPass) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const auto& net = verifier.translation().net;
    auto reachable = petri::Predicate::marked(net, "Mf_out_1");
    auto unreachable = petri::Predicate::marked(net, "M_comp_1") &&
                       petri::Predicate::marked(net, "Mf_filt_1");
    const Report report = verifier.verify(
        verify::Spec::standard()
            .custom("empty token at the output", std::move(reachable))
            .custom("destroyed token alongside comp data",
                    std::move(unreachable)));
    EXPECT_EQ(verifier.explorations_run(), 1u);
    ASSERT_EQ(report.findings.size(), 5u);
    EXPECT_TRUE(report.findings[3].violated);
    EXPECT_FALSE(report.findings[3].trace.empty());
    EXPECT_NE(report.findings[3].detail.find("empty token"),
              std::string::npos);
    EXPECT_FALSE(report.findings[4].violated);
    EXPECT_NE(report.findings[4].detail.find("unreachable"),
              std::string::npos);
}

TEST(Verifier, VerifyAllMatchesIndividualChecks) {
    Graph g("ring2");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c1);
    const Verifier verifier(g);
    const Report report = verifier.verify_all();
    const Finding alone = verifier.check_deadlock();
    EXPECT_EQ(report.findings[0].violated, alone.violated);
    EXPECT_EQ(report.findings[0].trace, alone.trace);
}

TEST(Verifier, VerifyAllDeterministicAcrossRuns) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const auto& net = verifier.translation().net;
    const auto goal = petri::Predicate::marked(net, "Mf_out_1");
    const auto spec = verify::Spec::standard().custom("witnessed", goal);
    const Report first = verifier.verify(spec);
    const Report second = verifier.verify(spec);
    ASSERT_EQ(first.findings.size(), second.findings.size());
    for (std::size_t i = 0; i < first.findings.size(); ++i) {
        EXPECT_EQ(first.findings[i].violated, second.findings[i].violated);
        EXPECT_EQ(first.findings[i].states_explored,
                  second.findings[i].states_explored);
        EXPECT_EQ(first.findings[i].trace, second.findings[i].trace);
    }
}

TEST(Verifier, WitnessTraceTranslatedToDfsEvents) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const auto& net = verifier.translation().net;
    const Finding finding = verifier.check_custom(
        petri::Predicate::marked(net, "Mf_out_1"), "empty output");
    ASSERT_TRUE(finding.violated);
    // Every PN firing of the witness has a DFS-level rendering, aligned
    // entry-for-entry; the final step is the pop emitting the empty
    // token — the event the predicate watches — in DFS vocabulary.
    ASSERT_EQ(finding.dfs_trace.size(), finding.trace.size());
    ASSERT_FALSE(finding.dfs_trace.empty());
    EXPECT_EQ(finding.dfs_trace.back(), "pop out produces an empty token");
    EXPECT_EQ(finding.trace.back(), "Mf_out+");
    // Finding::to_string carries both vocabularies.
    EXPECT_NE(finding.to_string().find("events: "), std::string::npos);
}

TEST(Verifier, SequentialConstructionsShareCompiledArtifact) {
    // Two verifiers over the same (unmutated) model content pay for ONE
    // translation + CompiledNet build — the artifact is shared through
    // the process-wide cache.
    Graph g("artifact_sharing_model");
    const auto c1 = g.add_control("s1", true, TokenValue::True);
    const auto c2 = g.add_control("s2", false, TokenValue::True);
    const auto c3 = g.add_control("s3", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c3);
    g.connect(c3, c1);
    const std::size_t before = artifact_builds();
    const Verifier first(g);
    const Verifier second(g);
    EXPECT_EQ(artifact_builds(), before + 1);
    EXPECT_EQ(first.model().get(), second.model().get());
    // Both verifiers still answer independently.
    EXPECT_FALSE(first.check_deadlock().violated);
    EXPECT_FALSE(second.check_deadlock().violated);
}

TEST(Verifier, MutatedModelRecompiles) {
    Graph g("artifact_mutation_model");
    const auto c1 = g.add_control("m1", true, TokenValue::True);
    const auto c2 = g.add_control("m2", false, TokenValue::True);
    const auto c3 = g.add_control("m3", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c3);
    g.connect(c3, c1);
    const Verifier before_mutation(g);
    // Changing the initial marking changes the PN, so a fresh verifier
    // must see a fresh artifact...
    g.set_initial(c1, true, TokenValue::False);
    const Verifier after_mutation(g);
    EXPECT_NE(before_mutation.model().get(), after_mutation.model().get());
    // ...and restoring the content brings the cached artifact back.
    g.set_initial(c1, true, TokenValue::True);
    const Verifier restored(g);
    EXPECT_EQ(before_mutation.model().get(), restored.model().get());
}

TEST(Verifier, ArtifactCacheKeyNotForgeableThroughNames) {
    // Separator characters inside node names must not collide two
    // different models onto one cache key (names are length-prefixed in
    // the fingerprint).
    Graph a("fp_collision");
    a.add_register("x:1:1:1;y", true);
    Graph b("fp_collision");
    b.add_register("x", true);
    b.add_register("y", true);
    const Verifier va(a);
    const Verifier vb(b);
    EXPECT_NE(va.model().get(), vb.model().get());
    EXPECT_EQ(va.translation().net.place_count(), 2u);
    EXPECT_EQ(vb.translation().net.place_count(), 4u);
}

TEST(Spec, CanonicalFindingOrderRegardlessOfRegistration) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    // Registered persistence-first; reported Deadlock, Persistence.
    const Report report =
        verifier.verify(Spec{}.persistence().deadlock());
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].property, Property::Deadlock);
    EXPECT_EQ(report.findings[1].property, Property::Persistence);
}

TEST(Spec, OwnsItsPredicates) {
    // The spec owns predicate storage, so it can be assembled from
    // temporaries and outlive the expressions that built it.
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    Spec spec;
    {
        const auto& net = verifier.translation().net;
        spec.custom("empty token at the output",
                    petri::Predicate::marked(net, "Mf_out_1"));
        spec.custom("destroyed token alongside comp data",
                    petri::Predicate::marked(net, "M_comp_1") &&
                        petri::Predicate::marked(net, "Mf_filt_1"));
    }
    const Report report = verifier.verify(spec);
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_TRUE(report.findings[0].violated);
    EXPECT_FALSE(report.findings[1].violated);
    EXPECT_NE(report.findings[1].detail.find("unreachable"),
              std::string::npos);
}

TEST(Spec, StandardMatchesVerifyAll) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    const Report via_spec = verifier.verify(Spec::standard());
    const Report via_all = verifier.verify_all();
    ASSERT_EQ(via_spec.findings.size(), via_all.findings.size());
    for (std::size_t i = 0; i < via_spec.findings.size(); ++i) {
        EXPECT_EQ(via_spec.findings[i].property,
                  via_all.findings[i].property);
        EXPECT_EQ(via_spec.findings[i].violated,
                  via_all.findings[i].violated);
    }
}

TEST(Spec, SinglePropertySpecStillExploresOnce) {
    const auto m = make_fig1b();
    const Verifier verifier(m.graph);
    verifier.verify(Spec{}.deadlock());
    EXPECT_EQ(verifier.explorations_run(), 1u);
}

TEST(Verifier, PropertyNames) {
    EXPECT_EQ(to_string(Property::Deadlock), "deadlock");
    EXPECT_EQ(to_string(Property::ControlConflict), "control-conflict");
    EXPECT_EQ(to_string(Property::Persistence), "persistence");
    EXPECT_EQ(to_string(Property::Custom), "custom");
}

}  // namespace
}  // namespace rap::verify
