// Differential harness for incremental re-verification: a cross-pass
// petri::ReuseStore must be invisible in every answer — scratch and
// reused passes agree bit-for-bit at 1/2/4/8 threads over a depth sweep
// — while the flow::Design store lifecycle (reconfiguration keeps it,
// edit() drops it) and flow::Sweep's shared-store mode ride on top.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs/dot.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "flow/design.hpp"
#include "flow/sweep.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "petri/reuse.hpp"
#include "petri_fixtures.hpp"
#include "pipeline/builder.hpp"
#include "verify/artifacts.hpp"
#include "verify/verifier.hpp"

namespace rap::petri {
namespace {

using namespace testfx;

/// Same structure at every depth: the model name is depth-independent
/// and ope_style_stages only flips the configuration tokens, so the
/// nets of one `stages` value differ in initial marking alone — the
/// reuse precondition a reconfigurable chip satisfies by construction.
Net depth_net(int stages, int depth) {
    auto p = pipeline::build_pipeline(
        "inc_s" + std::to_string(stages),
        dfs::testing::ope_style_stages(stages, depth));
    return dfs::to_petri(p.graph).net;
}

// ------------------------------------------------- engine differential --

TEST(Incremental, SequentialReuseMatchesScratchAcrossDepths) {
    // One worker: the scratch pass matches the oracle, and the reused
    // pass is bit-identical to the scratch pass, cold and warm (the
    // warm sweep's scratch passes repeat the cold ones, so the oracle
    // runs once per depth).
    const auto reuse = std::make_shared<ReuseStore>();
    std::size_t warm_interned = 0;
    for (int sweep = 0; sweep < 2; ++sweep) {  // cold sweep, then warm
        for (int depth = 1; depth <= 3; ++depth) {
            const Net net = depth_net(3, depth);
            const CompiledNet compiled(net);
            const QueryBundle bundle(net);
            const std::string context = "seq d" + std::to_string(depth) +
                                        " sweep " + std::to_string(sweep);

            ReachabilityOptions scratch;
            scratch.stop_at_first_match = false;
            scratch.threads = 1;
            ParallelReachabilityExplorer seq(compiled, scratch);
            const auto reference = seq.run_query(bundle.query);
            if (sweep == 0) {
                expect_matches_oracle(net, oracle_for(net, bundle.query),
                                      reference, context);
            }

            ReachabilityOptions incremental = scratch;
            incremental.reuse = reuse;
            ParallelReachabilityExplorer inc(compiled, incremental);
            const auto result = inc.run_query(bundle.query);
            expect_identical(net, reference, result, context);
        }
        if (sweep == 0) {
            warm_interned = reuse->interned_markings();
            ASSERT_GT(warm_interned, 0u);
        }
    }
    // The warm sweep re-claimed resident markings instead of interning:
    // the store did not grow at all the second time around.
    EXPECT_EQ(reuse->interned_markings(), warm_interned);
    EXPECT_EQ(reuse->row_invalidations(), 0u)
        << "marking-only reconfigurations must not invalidate rows";
}

TEST(Incremental, ParallelReuseMatchesScratchAtEveryThreadCount) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        const auto reuse = std::make_shared<ReuseStore>();
        for (int sweep = 0; sweep < 2; ++sweep) {
            for (int depth = 1; depth <= 3; ++depth) {
                const Net net = depth_net(3, depth);
                const CompiledNet compiled(net);
                const QueryBundle bundle(net);
                const std::string context =
                    "par d" + std::to_string(depth) + " sweep " +
                    std::to_string(sweep) + " @" +
                    std::to_string(threads) + "t";

                ReachabilityOptions scratch;
                scratch.stop_at_first_match = false;
                scratch.threads = threads;
                ParallelReachabilityExplorer par(compiled, scratch);
                const auto reference = par.run_query(bundle.query);
                ASSERT_FALSE(reference.truncated) << context;

                ReachabilityOptions incremental = scratch;
                incremental.reuse = reuse;
                ParallelReachabilityExplorer inc(compiled, incremental);
                const auto result = inc.run_query(bundle.query);
                expect_identical(net, reference, result, context);
            }
        }
    }
}

TEST(Incremental, TruncationStaysExactOnWarmStores) {
    // A warm store far bigger than the pass budget: the truncation
    // contract (exactly max_states, truncated = true) must survive
    // claiming from residency, and a later uncapped pass over the same
    // store must still answer like scratch.
    const Net net = depth_net(3, 3);
    const CompiledNet compiled(net);
    const QueryBundle bundle(net);

    const auto reuse = std::make_shared<ReuseStore>();
    ReachabilityOptions warm;
    warm.stop_at_first_match = false;
    warm.reuse = reuse;
    ParallelReachabilityExplorer(compiled, warm).run_query(bundle.query);
    ASSERT_GT(reuse->interned_markings(), 64u);

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        ReachabilityOptions capped;
        capped.stop_at_first_match = false;
        capped.max_states = 64;
        capped.threads = threads;
        capped.reuse = reuse;
        ParallelReachabilityExplorer par(compiled, capped);
        const auto result = par.explore_all();
        EXPECT_TRUE(result.truncated) << threads;
        EXPECT_EQ(result.states_explored, 64u) << threads;
    }

    ReachabilityOptions scratch;
    scratch.stop_at_first_match = false;
    ParallelReachabilityExplorer seq(compiled, scratch);
    const auto reference = seq.run_query(bundle.query);
    ReachabilityOptions incremental = scratch;
    incremental.reuse = reuse;
    ParallelReachabilityExplorer inc(compiled, incremental);
    expect_identical(net, reference, inc.run_query(bundle.query),
                     "full pass after truncated passes");
}

TEST(Incremental, ReuseStoreHasNoIdIndexAndGrowsIdentically) {
    // The shared store is the one id-indexed layout: its table bytes are
    // the dedup slots alone (no id->record index beside them), and its
    // claim words live in the records, so a pass that grows the store
    // across many layers and record blocks still answers exactly like
    // scratch.
    const auto reuse = std::make_shared<ReuseStore>();
    std::size_t first_pass_records = 0;
    for (int depth = 1; depth <= 3; ++depth) {
        const Net net = depth_net(3, depth);
        const CompiledNet compiled(net);
        const QueryBundle bundle(net);
        const std::string context = "grow d" + std::to_string(depth);

        ReachabilityOptions scratch;
        scratch.stop_at_first_match = false;
        scratch.threads = 4;
        const auto reference =
            ParallelReachabilityExplorer(compiled, scratch)
                .run_query(bundle.query);
        ReachabilityOptions incremental = scratch;
        incremental.reuse = reuse;
        const auto result = ParallelReachabilityExplorer(compiled, incremental)
                                .run_query(bundle.query);
        expect_identical(net, reference, result, context);

        const StoreStats& store = result.memory.store;
        EXPECT_EQ(store.table_bytes, store.slots * sizeof(std::uint64_t))
            << context;
        EXPECT_EQ(store.records, reuse->interned_markings()) << context;
        if (depth == 1) first_pass_records = store.records;
    }
    EXPECT_GT(reuse->interned_markings(), first_pass_records)
        << "later depths must grow the shared store";
}

// ----------------------------------------------------- attach contract --

TEST(Incremental, AttachInvalidatesRowsOnStructureChangeOnly) {
    // Two nets with identical record dimensions but different arcs: the
    // store keeps its markings, bumps the geometry revision, and lazily
    // recomputes enabled rows — answers still match scratch.
    Net a("inc_attach");
    const PlaceId p0 = a.add_place("p0", true);
    const PlaceId p1 = a.add_place("p1");
    const TransitionId t0 = a.add_transition("t0");
    const TransitionId t1 = a.add_transition("t1");
    a.add_input_arc(p0, t0);
    a.add_output_arc(t0, p1);
    a.add_input_arc(p1, t1);
    a.add_output_arc(t1, p0);

    Net b = a;
    b.add_read_arc(p0, t1);  // structure change, same dimensions

    const CompiledNet ca(a);
    const CompiledNet cb(b);
    ASSERT_EQ(ca.marking_words(), cb.marking_words());
    ASSERT_EQ(ca.enabled_words(), cb.enabled_words());
    ASSERT_NE(CompiledNet::digest_structure(a),
              CompiledNet::digest_structure(b));

    const auto reuse = std::make_shared<ReuseStore>();
    ASSERT_TRUE(reuse->attach(ca));
    EXPECT_TRUE(reuse->attach(ca));
    EXPECT_EQ(reuse->row_invalidations(), 0u) << "same digest: no bump";

    // Warm the store on `a`, then re-attach and run on `b`: stale rows
    // must never leak into b's pass.
    ReachabilityOptions incremental;
    incremental.stop_at_first_match = false;
    incremental.reuse = reuse;
    ParallelReachabilityExplorer(ca, incremental)
        .run_query(QueryBundle(a).query);

    EXPECT_TRUE(reuse->attach(cb));
    EXPECT_EQ(reuse->row_invalidations(), 1u);

    ReachabilityOptions scratch;
    scratch.stop_at_first_match = false;
    const auto reference = ParallelReachabilityExplorer(cb, scratch)
                               .run_query(QueryBundle(b).query);
    const auto result = ParallelReachabilityExplorer(cb, incremental)
                            .run_query(QueryBundle(b).query);
    expect_identical(b, reference, result, "reattached structure b");
}

TEST(Incremental, DimensionMismatchFallsBackToScratch) {
    // A store sized for one net silently steps aside for a net with
    // different record dimensions — the pass runs scratch and correct.
    const Net small = depth_net(2, 2);
    const auto reuse = std::make_shared<ReuseStore>();
    {
        const CompiledNet compiled(small);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.reuse = reuse;
        ParallelReachabilityExplorer(compiled, options).run_query(
            QueryBundle(small).query);
    }
    const std::size_t interned = reuse->interned_markings();
    const std::size_t mwords = reuse->marking_words();

    Net wide("inc_wide");
    std::vector<PlaceId> places;
    for (int i = 0; i < 70; ++i) {
        places.push_back(wide.add_place("p" + std::to_string(i), i == 0));
    }
    for (int i = 0; i + 1 < 70; ++i) {
        const TransitionId t = wide.add_transition("t" + std::to_string(i));
        wide.add_input_arc(places[i], t);
        wide.add_output_arc(t, places[i + 1]);
    }
    const CompiledNet cwide(wide);
    ASSERT_NE(cwide.marking_words(), mwords);
    EXPECT_FALSE(reuse->attach(cwide));

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.reuse = reuse;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        ParallelReachabilityExplorer par(cwide, options);
        const auto result = par.explore_all();
        EXPECT_EQ(result.states_explored, 70u) << threads;
        EXPECT_FALSE(result.truncated) << threads;
    }
    // The mismatched pass never touched the store.
    EXPECT_EQ(reuse->interned_markings(), interned);
    EXPECT_EQ(reuse->marking_words(), mwords);
}

// -------------------------------------------------- flow::Design surface --

void expect_same_report(const verify::Report& a, const verify::Report& b,
                        const std::string& context) {
    ASSERT_EQ(a.findings.size(), b.findings.size()) << context;
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        const auto& fa = a.findings[i];
        const auto& fb = b.findings[i];
        EXPECT_EQ(fa.property, fb.property) << context << " finding " << i;
        EXPECT_EQ(fa.violated, fb.violated) << context << " finding " << i;
        EXPECT_EQ(fa.truncated, fb.truncated) << context << " finding " << i;
        EXPECT_EQ(fa.states_explored, fb.states_explored)
            << context << " finding " << i;
        EXPECT_EQ(fa.trace, fb.trace) << context << " finding " << i;
    }
}

TEST(Incremental, DesignKeepsStoreAcrossReconfigurationAndDropsOnEdit) {
    flow::DesignOptions options;
    options.incremental = true;
    options.verify.threads = 1;
    flow::Design design(
        pipeline::build_pipeline("inc_design",
                                 dfs::testing::ope_style_stages(3, 3)),
        options);
    EXPECT_EQ(design.reuse_store(), nullptr) << "lazy until first verify";

    const auto r3 = design.verify();
    const auto store = design.reuse_store();
    ASSERT_NE(store, nullptr);
    EXPECT_GT(store->interned_markings(), 0u);

    design.set_depth(2);
    const auto r2 = design.verify();
    EXPECT_EQ(design.reuse_store(), store)
        << "reconfiguration keeps the session store";

    flow::DesignOptions scratch_options;
    scratch_options.verify.threads = 1;
    flow::Design scratch2(
        pipeline::build_pipeline("inc_design",
                                 dfs::testing::ope_style_stages(3, 2)),
        scratch_options);
    expect_same_report(scratch2.verify(), r2, "incremental d2 vs scratch");
    flow::Design scratch3(
        pipeline::build_pipeline("inc_design",
                                 dfs::testing::ope_style_stages(3, 3)),
        scratch_options);
    expect_same_report(scratch3.verify(), r3, "incremental d3 vs scratch");

    // The poisoning check: a structural edit() must drop the store, and
    // the next verify starts clean — and still answers like scratch.
    design.edit();
    EXPECT_EQ(design.reuse_store(), nullptr);
    const auto r2b = design.verify();
    expect_same_report(scratch2.verify(), r2b, "post-edit verify");
    EXPECT_NE(design.reuse_store(), nullptr);
    EXPECT_NE(design.reuse_store(), store) << "edit() must not resurrect";
}

TEST(Incremental, ExplicitReuseOptionOverridesDesignStore) {
    // When the caller supplies verify.reuse, DesignOptions::incremental
    // must not shadow it with a session store.
    const auto mine = std::make_shared<ReuseStore>();
    flow::DesignOptions options;
    options.incremental = true;
    options.verify.threads = 1;
    options.verify.reuse = mine;
    flow::Design design(
        pipeline::build_pipeline("inc_explicit",
                                 dfs::testing::ope_style_stages(2, 2)),
        options);
    const auto report = design.verify();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(design.reuse_store(), nullptr)
        << "caller-owned store: the session must not create its own";
    EXPECT_GT(mine->interned_markings(), 0u)
        << "the exploration must have used the caller's store";
}

pipeline::Pipeline inc_sweep_factory(int stages, int depth) {
    if (depth < 1 || depth > stages) {
        throw std::invalid_argument(
            "depth " + std::to_string(depth) + " out of range for " +
            std::to_string(stages) + " stages");
    }
    // Depth-independent name: every (stages, schedule) chain shares one
    // structure, so the shared store actually re-claims across depths.
    return pipeline::build_pipeline(
        "inc_sweep_s" + std::to_string(stages),
        dfs::testing::ope_style_stages(stages, depth));
}

TEST(Incremental, ReuseFallbacksCountedAndSurfacedAtEveryLayer) {
    // A store sized for one record geometry refuses the next net and the
    // pass runs scratch — correct, but no longer incremental. That
    // degradation must be countable at every layer instead of inferred
    // from wall-clock drift: ReuseStore::fallbacks(), the per-pass
    // MultiResult::reuse_fallback flag, the Design session aggregate and
    // the sweep's rap_reuse_fallbacks_total metric.
    const Net small = depth_net(2, 2);
    const auto reuse = std::make_shared<ReuseStore>();
    {
        const CompiledNet compiled(small);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.reuse = reuse;
        const auto warm = ParallelReachabilityExplorer(compiled, options)
                              .run_query(QueryBundle(small).query);
        EXPECT_FALSE(warm.reuse_fallback) << "matched pass is no fallback";
    }
    EXPECT_EQ(reuse->fallbacks(), 0u);

    Net wide("inc_fallback_wide");
    std::vector<PlaceId> places;
    for (int i = 0; i < 70; ++i) {
        places.push_back(wide.add_place("p" + std::to_string(i), i == 0));
    }
    for (int i = 0; i + 1 < 70; ++i) {
        const TransitionId t = wide.add_transition("t" + std::to_string(i));
        wide.add_input_arc(places[i], t);
        wide.add_output_arc(t, places[i + 1]);
    }
    const CompiledNet cwide(wide);
    ASSERT_NE(cwide.marking_words(), reuse->marking_words());

    const QueryBundle bundle(wide);
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.threads = 1;
    options.reuse = reuse;
    const auto seq =
        ParallelReachabilityExplorer(cwide, options).run_query(bundle.query);
    EXPECT_TRUE(seq.reuse_fallback);
    EXPECT_EQ(reuse->fallbacks(), 1u);

    options.threads = 4;
    const auto par =
        ParallelReachabilityExplorer(cwide, options).run_query(bundle.query);
    EXPECT_TRUE(par.reuse_fallback);
    EXPECT_EQ(reuse->fallbacks(), 2u);
    expect_identical(wide, seq, par, "fallback passes stay exact");

    // Design level: a caller-supplied store warmed on the wide net
    // mismatches the small OPE model, so the session aggregate (the
    // number flow::Sweep folds into rap_reuse_fallbacks_total) goes
    // nonzero while the verdicts stay clean.
    const auto wide_store = std::make_shared<ReuseStore>();
    {
        ReachabilityOptions wopts;
        wopts.stop_at_first_match = false;
        wopts.reuse = wide_store;
        ParallelReachabilityExplorer(cwide, wopts).run_query(bundle.query);
    }
    ASSERT_EQ(wide_store->marking_words(), cwide.marking_words());
    flow::DesignOptions dopts;
    dopts.verify.threads = 1;
    dopts.verify.reuse = wide_store;
    flow::Design design(
        pipeline::build_pipeline("inc_fallback_design",
                                 dfs::testing::ope_style_stages(2, 2)),
        dopts);
    EXPECT_TRUE(design.verify().clean());
    EXPECT_GE(design.reuse_fallbacks(), 1u);

    // Sweep level: every row of a cold chain reports its fallbacks and
    // the handle's metric is their exact sum.
    flow::DesignOptions sbase;
    sbase.verify.threads = 1;
    sbase.verify.reuse = wide_store;
    flow::Sweep sweep(&inc_sweep_factory, sbase);
    flow::Sweep::Handle handle =
        sweep.stages({2}).depths(1, 2).workers(1).launch();
    const std::vector<flow::SweepResult> rows = handle.wait();
    ASSERT_EQ(rows.size(), 2u);
    std::size_t total = 0;
    for (const flow::SweepResult& row : rows) {
        EXPECT_GE(row.reuse_fallbacks, 1u) << row.point.label;
        total += row.reuse_fallbacks;
    }
    EXPECT_EQ(handle.metrics().value("rap_reuse_fallbacks_total"),
              static_cast<double>(total));
}

// ------------------------------------------------------ set_depth guard --

TEST(Incremental, SetDepthValidatesTheWholeRequestBeforeApplying) {
    // Builder level: a static stage past the requested depth rejects the
    // request before ANY ring is touched — no partial application.
    std::vector<pipeline::StageOptions> stages(3);
    stages[1].reconfigurable = false;  // static mid-stage
    stages[2].reconfigurable = true;
    auto p = pipeline::build_pipeline("inc_depth", stages);
    const std::string before = dfs::to_dot(p.graph);

    EXPECT_THROW(pipeline::set_depth(p, 0), std::invalid_argument);
    EXPECT_THROW(pipeline::set_depth(p, 4), std::invalid_argument);
    EXPECT_THROW(pipeline::set_depth(p, 1), std::invalid_argument);
    EXPECT_EQ(dfs::to_dot(p.graph), before) << "no partial application";
    try {
        pipeline::set_depth(p, 1);
        FAIL() << "bypassing a static stage must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("static"), std::string::npos)
            << e.what();
    }

    // Design level: the failed call leaves revision(), the build
    // counters and every cached artifact untouched.
    flow::DesignOptions options;
    options.verify.threads = 1;
    flow::Design design(
        pipeline::build_pipeline("inc_depth2",
                                 dfs::testing::ope_style_stages(3, 3)),
        options);
    const auto baseline = design.verify();
    const std::size_t revision = design.revision();
    const std::size_t builds = design.pn_builds();

    EXPECT_THROW(design.set_depth(99), std::invalid_argument);
    EXPECT_THROW(design.set_depth(0), std::invalid_argument);
    EXPECT_EQ(design.revision(), revision);
    EXPECT_EQ(design.pn_builds(), builds);
    expect_same_report(design.verify(), baseline,
                       "artifacts survive the failed reconfiguration");
    EXPECT_EQ(design.pn_builds(), builds) << "no rebuild after the throw";

    // Graph-backed designs refuse with a distinct type and message.
    flow::Design graph_backed(dfs::Graph("inc_graph_backed"), options);
    EXPECT_THROW(graph_backed.set_depth(2), std::logic_error);
}

// --------------------------------------------------- flow::Sweep surface --

TEST(Incremental, SweepSharedStoreMatchesIndependentSessions) {
    auto rows_with = [](bool shared) {
        return flow::Sweep(&inc_sweep_factory)
            .stages({2, 3})
            .depths(1, 4)  // d4 invalid for both stage counts
            .workers(4)
            .shared_store(shared)
            .run();
    };
    const auto independent = rows_with(false);
    const auto shared = rows_with(true);
    ASSERT_EQ(independent.size(), shared.size());

    std::size_t invalid = 0;
    for (std::size_t i = 0; i < independent.size(); ++i) {
        const auto& a = independent[i];
        const auto& b = shared[i];
        const std::string context = "row " + a.point.label;
        EXPECT_EQ(b.status, a.status) << context;
        EXPECT_EQ(b.clean, a.clean) << context;
        EXPECT_EQ(b.states, a.states) << context;
        EXPECT_EQ(b.error, a.error) << context;
        expect_same_report(b.report, a.report, context);
        if (a.status == flow::SweepStatus::kInvalid) ++invalid;
    }
    // s2/d3, s2/d4 and s3/d4 are out of range for their stage counts.
    EXPECT_EQ(invalid, 3u) << "invalid points exercise the chain error path";
}

}  // namespace
}  // namespace rap::petri
