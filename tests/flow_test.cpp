// flow::Design session tests: the cached-artifact contract (lazy build,
// at most one PN compile per model mutation, structure-only artifacts
// surviving reconfiguration), the fluent Spec single-pass guarantee, and
// DFS-level witnesses at the facade boundary.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dfs_helpers.hpp"
#include "flow/design.hpp"
#include "ope/dfs_models.hpp"

namespace rap::flow {
namespace {

using dfs::TokenValue;
using dfs::testing::make_fig1b;
using dfs::testing::ope_style_stages;

TEST(Design, ArtifactsAreLazyAndCached) {
    const Design design(make_fig1b().graph);
    EXPECT_EQ(design.pn_builds(), 0u);
    EXPECT_EQ(design.netlist_builds(), 0u);

    // First access builds; repeated access reuses the same object.
    const auto* translation = &design.translation();
    EXPECT_EQ(design.pn_builds(), 1u);
    EXPECT_EQ(&design.translation(), translation);
    EXPECT_EQ(&design.compiled_net(), &design.compiled_model()->compiled());
    EXPECT_EQ(design.pn_builds(), 1u);

    const auto* mapped = &design.netlist();
    EXPECT_EQ(design.netlist_builds(), 1u);
    EXPECT_EQ(&design.netlist(), mapped);
    EXPECT_EQ(design.netlist_builds(), 1u);
}

TEST(Design, RoundTripReconfigureInvalidatesOnlyPnArtifacts) {
    // The ISSUE round trip: verify clean -> reconfigure via set_depth ->
    // artifact invalidation observed -> re-verify. The netlist mapping
    // (structure-only) must survive the reconfiguration.
    Design design(pipeline::build_pipeline("p", ope_style_stages(3, 3)));

    const auto first = design.verify();
    EXPECT_TRUE(first.clean()) << first.to_string();
    EXPECT_EQ(design.pn_builds(), 1u);
    design.netlist();
    EXPECT_EQ(design.netlist_builds(), 1u);
    EXPECT_EQ(design.revision(), 0u);

    design.set_depth(2);
    EXPECT_EQ(design.revision(), 1u);
    // Invalidation is lazy: nothing rebuilt until asked for.
    EXPECT_EQ(design.pn_builds(), 1u);

    const auto second = design.verify();
    EXPECT_TRUE(second.clean()) << second.to_string();
    EXPECT_EQ(design.pn_builds(), 2u);

    // A second verify at the same configuration shares the rebuilt
    // artifact: at most ONE PN build per model mutation.
    const auto third = design.verify();
    EXPECT_TRUE(third.clean());
    EXPECT_EQ(design.pn_builds(), 2u);

    // The netlist never noticed: the mapping only depends on structure.
    design.netlist();
    EXPECT_EQ(design.netlist_builds(), 1u);
}

TEST(Design, SpecServesManyCustomPredicatesInOneExploration) {
    const Design design(make_fig1b().graph);
    const auto& net = design.translation().net;
    const auto report = design.verify(
        verify::Spec{}
            .deadlock()
            .custom("empty output",
                    petri::Predicate::marked(net, "Mf_out_1"))
            .custom("comp busy", petri::Predicate::marked(net, "M_comp_1"))
            .custom("impossible",
                    petri::Predicate::marked(net, "M_comp_1") &&
                        petri::Predicate::marked(net, "Mf_filt_1")));
    // One exploration answered all four properties.
    EXPECT_EQ(design.verifier().explorations_run(), 1u);
    ASSERT_EQ(report.findings.size(), 4u);
    EXPECT_EQ(report.findings[0].property, verify::Property::Deadlock);
    EXPECT_FALSE(report.findings[0].violated);
    EXPECT_TRUE(report.findings[1].violated);
    EXPECT_TRUE(report.findings[2].violated);
    EXPECT_FALSE(report.findings[3].violated);
}

TEST(Design, DeadlockWitnessSpeaksDfs) {
    // The gap configuration of the Section III-A workflow, driven
    // entirely through the facade: the witness the session reports is in
    // DFS event terms, not PN firing names.
    Design design(ope::build_reconfigurable_ope_dfs(3, 3));
    design.reset_ring(design.pipeline().stages[1].global_ring,
                      TokenValue::False);
    const auto finding = design.verifier().check_deadlock();
    ASSERT_TRUE(finding.violated);
    ASSERT_FALSE(finding.dfs_trace.empty());
    for (const auto& step : finding.dfs_trace) {
        EXPECT_EQ(step.find("_0"), std::string::npos) << step;
        EXPECT_EQ(step.find("+"), std::string::npos) << step;
    }
}

TEST(Design, VerifyThreadsOptionShardsTheSameExploration) {
    // The ReachabilityOptions::threads knob, adopted at the facade: a
    // session configured for parallel verification answers exactly what
    // the sequential session answers — same verdicts, same exhaustive
    // state counts, same witness depths — from the same shared compiled
    // artifact, still in one exploration per report.
    DesignOptions parallel_options;
    parallel_options.verify.threads = 4;
    Design parallel(ope::build_reconfigurable_ope_dfs(3, 3),
                    parallel_options);
    parallel.reset_ring(parallel.pipeline().stages[1].global_ring,
                        TokenValue::False);
    DesignOptions sequential_options;
    sequential_options.verify.threads = 1;  // pin: default 0 = all cores
    Design sequential(ope::build_reconfigurable_ope_dfs(3, 3),
                      sequential_options);
    sequential.reset_ring(sequential.pipeline().stages[1].global_ring,
                          TokenValue::False);

    const auto par = parallel.verify();
    const auto seq = sequential.verify();
    EXPECT_EQ(parallel.verifier().explorations_run(), 1u);
    ASSERT_EQ(par.findings.size(), seq.findings.size());
    for (std::size_t i = 0; i < seq.findings.size(); ++i) {
        EXPECT_EQ(par.findings[i].property, seq.findings[i].property);
        EXPECT_EQ(par.findings[i].violated, seq.findings[i].violated) << i;
        EXPECT_EQ(par.findings[i].states_explored,
                  seq.findings[i].states_explored)
            << i;
        EXPECT_EQ(par.findings[i].trace, seq.findings[i].trace) << i;
    }
}

TEST(Design, SequentialVerifierSessionsShareOneCompile) {
    // Two design sessions (and their verifiers) over identical model
    // content share the artifact through the process cache — the
    // verify_pipeline.cpp double-construction scenario.
    const auto stages = ope_style_stages(3, 2);
    const Design first(pipeline::build_pipeline("shared", stages));
    const std::size_t builds_before = verify::artifact_builds();
    first.verifier();
    const std::size_t after_first = verify::artifact_builds();
    const Design second(pipeline::build_pipeline("shared", stages));
    second.verifier();
    EXPECT_EQ(verify::artifact_builds(), after_first);
    EXPECT_GE(after_first, builds_before);
    EXPECT_EQ(first.compiled_model().get(), second.compiled_model().get());
}

TEST(Design, EditInvalidatesEveryArtifact) {
    Design design(make_fig1b().graph);
    design.verify();
    design.netlist();
    EXPECT_EQ(design.pn_builds(), 1u);
    EXPECT_EQ(design.netlist_builds(), 1u);

    // A structural edit: tap the output with one more register.
    auto& g = design.edit();
    const auto tap = g.add_register("tap");
    g.connect(g.find("out").value(), tap);
    EXPECT_EQ(design.revision(), 1u);

    EXPECT_TRUE(design.verify().clean());
    design.netlist();
    EXPECT_EQ(design.pn_builds(), 2u);
    EXPECT_EQ(design.netlist_builds(), 2u);
    EXPECT_EQ(design.netlist().instances().size(),
              design.graph().node_count());
}

TEST(Design, GraphBackedSessionRejectsPipelineOps) {
    Design design(make_fig1b().graph);
    EXPECT_FALSE(design.has_pipeline());
    EXPECT_THROW(design.pipeline(), std::logic_error);
    EXPECT_THROW(design.set_depth(2), std::logic_error);
}

TEST(Design, SetInitialInvalidatesLikeReconfiguration) {
    const auto m = make_fig1b();
    Design design(m.graph);
    EXPECT_TRUE(design.verify().clean());
    design.netlist();
    // Seed a buggy initialisation through the session API.
    design.set_initial(m.comp, true);
    EXPECT_EQ(design.revision(), 1u);
    design.verify();
    EXPECT_EQ(design.pn_builds(), 2u);
    EXPECT_EQ(design.netlist_builds(), 1u);
}

TEST(Design, TimedSimulatorComesFromSessionArtifacts) {
    const Design design(make_fig1b().graph);
    auto sim = design.timed_sim();
    auto state = design.initial_state();
    asim::RunLimits limits;
    limits.max_events = 2000;
    const auto stats = sim.run(state, limits);
    EXPECT_GT(stats.events, 0u);
    EXPECT_FALSE(stats.deadlocked);
    // The timing annotation came from the netlist mapping: both built.
    EXPECT_EQ(design.netlist_builds(), 1u);
}

TEST(Design, ExportsComeFromTheSameCache) {
    const Design design(make_fig1b().graph);
    EXPECT_NE(design.to_dot().find("digraph"), std::string::npos);
    EXPECT_NE(design.to_astg().find(".model"), std::string::npos);
    EXPECT_NE(design.to_verilog().find("module"), std::string::npos);
    EXPECT_EQ(design.pn_builds(), 1u);
    EXPECT_EQ(design.netlist_builds(), 1u);
}

TEST(Design, MakeDesignReturnsMovableOwnerOfAPinnedSession) {
    // Design itself is non-movable (artifacts point into the owned
    // graph); make_design is the documented way to store or pool
    // sessions — the unique_ptr moves, the session stays pinned.
    std::unique_ptr<Design> design = make_design(make_fig1b().graph);
    const Design* address = design.get();
    const auto* translation = &design->translation();

    std::vector<std::unique_ptr<Design>> pool;
    pool.push_back(std::move(design));
    EXPECT_EQ(pool.back().get(), address);
    EXPECT_EQ(&pool.back()->translation(), translation);
    EXPECT_TRUE(pool.back()->verify().clean());

    // The pipeline overload keeps stage handles available.
    auto piped = make_design(
        pipeline::build_pipeline("mk", ope_style_stages(2, 2)));
    EXPECT_TRUE(piped->has_pipeline());
}

TEST(Design, ConstructorRejectsInconsistentOptionsWithClearMessage) {
    DesignOptions zero_cap;
    zero_cap.verify.max_states = 0;
    try {
        const Design design(make_fig1b().graph, zero_cap);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("max_states"),
                  std::string::npos);
    }

    DesignOptions frozen;
    frozen.process.v_nominal = frozen.process.v_freeze;
    try {
        make_design(make_fig1b().graph, frozen);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("v_nominal"),
                  std::string::npos);
    }

    DesignOptions bad_alpha;
    bad_alpha.process.alpha = 0.0;
    EXPECT_THROW(Design(make_fig1b().graph, bad_alpha),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rap::flow
