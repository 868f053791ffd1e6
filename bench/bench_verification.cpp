// E5 — Section III-A: "Several cases of deadlock and non-persistent
// behaviour (mostly due to incorrect initialisation of control registers)
// were identified, analysed and corrected during the design process."
// This harness verifies the corrected OPE models at every depth and then
// seeds the classes of initialisation bugs the paper describes, showing
// the checker finds each one with a witness trace.
//
// It also races the compiled reachability engine (CompiledNet + interned
// arena marking store, single-pass multi-property verification), on one
// thread, against the naive explicit-state BFS of the reference oracle
// (tests/petri_oracle.hpp) on the largest pipeline model, in
// states/second.

#include <cstdio>

#include "bench_util.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/parallel.hpp"
#include "petri_oracle.hpp"
#include "pipeline/builder.hpp"
#include "util/table.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace rap;

const char* verdict(const verify::Finding& f) {
    if (f.truncated) return "inconclusive";
    return f.violated ? "VIOLATED" : "ok";
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header(
        "E5 / Section III-A verification",
        "deadlock / control-conflict / persistence on OPE models");

    // Correct models: the 3-stage reconfigurable OPE (the 18-stage state
    // space is beyond explicit exploration; the per-stage structure
    // repeats, so the small instance carries the argument), plus the
    // static pipeline and the Fig. 6c building block. Every model runs
    // all three properties in ONE shared exploration (verify_all).
    util::Table clean({"model", "deadlock", "conflict", "persistence",
                       "states", "passes", "time [ms]"});
    auto check_clean = [&clean](const dfs::Graph& graph) {
        verify::VerifyOptions options;
        options.max_states = 5'000'000;
        const verify::Verifier verifier(graph, options);
        bench::Stopwatch t;
        const auto report = verifier.verify_all();
        const auto& deadlock = report.findings[0];
        const auto& conflict = report.findings[1];
        const auto& persistence = report.findings[2];
        clean.add_row({graph.name(), verdict(deadlock), verdict(conflict),
                       verdict(persistence),
                       std::to_string(deadlock.states_explored),
                       std::to_string(verifier.explorations_run()),
                       util::Table::num(t.elapsed_s() * 1e3, 1)});
    };
    check_clean(ope::build_static_ope_dfs(3).graph);
    check_clean(ope::build_reconfigurable_ope_dfs(3, 3).graph);
    std::printf("corrected models (single-pass verify_all):\n%s\n",
                clean.to_ascii().c_str());

    // Engine head-to-head on the largest pipeline model we explore
    // explicitly: the oracle's naive BFS vs the compiled engine.
    std::printf("reachability engine head-to-head:\n");
    util::Table race({"model", "engine", "states", "edges", "time [ms]",
                      "states/s"});
    double naive_rate = 0.0;
    double compiled_rate = 0.0;
    {
        // The largest pipeline model explored explicitly here: the full
        // 3-stage reconfigurable OPE (~191k states; 4 stages is already
        // ~19M and naive BFS needs minutes on it).
        const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
        const auto tr = dfs::to_petri(p.graph);

        bench::Stopwatch naive_watch;
        const auto naive = petri::oracle::explore(tr.net);
        const double naive_s = naive_watch.elapsed_s();
        naive_rate = static_cast<double>(naive.states) / naive_s;
        race.add_row({p.graph.name(), "naive BFS (oracle)",
                      std::to_string(naive.states),
                      std::to_string(naive.edges),
                      util::Table::num(naive_s * 1e3, 1),
                      util::Table::num(naive_rate, 0)});

        petri::ReachabilityOptions one;
        one.threads = 1;
        petri::ParallelReachabilityExplorer explorer(tr.net, one);
        bench::Stopwatch compiled_watch;
        const auto result = explorer.explore_all();
        const double compiled_s = compiled_watch.elapsed_s();
        compiled_rate =
            static_cast<double>(result.states_explored) / compiled_s;
        race.add_row({p.graph.name(), "compiled (1 thread)",
                      std::to_string(result.states_explored),
                      std::to_string(result.edges_explored),
                      util::Table::num(compiled_s * 1e3, 1),
                      util::Table::num(compiled_rate, 0)});

        if (naive.states != result.states_explored ||
            naive.edges != result.edges_explored) {
            std::printf("ENGINE MISMATCH: %zu vs %zu states, %zu vs %zu "
                        "edges\n",
                        naive.states, result.states_explored, naive.edges,
                        result.edges_explored);
            return 1;
        }
    }
    std::printf("%s\n", race.to_ascii().c_str());
    std::printf("compiled engine speedup: %.1fx states/s\n\n",
                compiled_rate / naive_rate);

    // Seeded initialisation bugs.
    util::Table bugs({"seeded bug", "property", "found", "witness trace "
                      "(prefix)"});
    auto add_bug = [&bugs](const char* name, const dfs::Graph& graph,
                           bool expect_conflict = false) {
        const verify::Verifier verifier(graph);
        const auto finding = expect_conflict
                                 ? verifier.check_control_conflict()
                                 : verifier.check_deadlock();
        std::string trace;
        for (std::size_t i = 0; i < finding.trace.size() && i < 5; ++i) {
            if (i) trace += " -> ";
            trace += finding.trace[i];
        }
        if (finding.trace.size() > 5) trace += " -> ...";
        if (trace.empty()) trace = "(at initial state)";
        bugs.add_row({name,
                      std::string(to_string(finding.property)),
                      finding.violated ? "yes" : "NO", trace});
        return finding.violated;
    };

    bool all_found = true;

    {
        // Bug 1: a gap configuration — stage 2 bypassed under an active
        // stage 3 (invalid control-register initialisation).
        auto p = ope::build_reconfigurable_ope_dfs(3, 3);
        pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                             dfs::TokenValue::False);
        all_found &= add_bug("gap configuration (s2 off, s3 on)", p.graph);
    }
    {
        // Bug 2: a control loop initialised with no token at all.
        auto p = ope::build_reconfigurable_ope_dfs(3, 3);
        const auto& ring = p.stages[2].global_ring;
        p.graph.set_initial(ring.head, false);
        all_found &= add_bug("token-free control loop", p.graph);
    }
    {
        // Bug 3: a control loop initialised fully marked (no bubbles).
        auto p = ope::build_reconfigurable_ope_dfs(3, 3);
        const auto& ring = p.stages[2].local_ring;
        p.graph.set_initial(ring.head, true, dfs::TokenValue::True);
        p.graph.set_initial(ring.mid, true, dfs::TokenValue::True);
        p.graph.set_initial(ring.tail, true, dfs::TokenValue::True);
        all_found &= add_bug("fully-marked control loop", p.graph);
    }
    {
        // Bug 4: mixed-polarity rings driving one push (control conflict).
        dfs::Graph g("mixed_controls");
        const auto in = g.add_register("in");
        const auto a = pipeline::add_control_ring(g, "a",
                                                  dfs::TokenValue::True);
        const auto b = pipeline::add_control_ring(g, "b",
                                                  dfs::TokenValue::False);
        const auto push = g.add_push("p");
        const auto sink = g.add_register("sink");
        g.connect(in, push);
        g.connect(a.head, push);
        g.connect(b.head, push);
        g.connect(push, sink);
        all_found &= add_bug("mixed-polarity controls on one push", g,
                             /*expect_conflict=*/true);
    }

    std::printf("seeded control-register initialisation bugs:\n%s\n",
                bugs.to_ascii().c_str());
    std::printf("all seeded bugs caught: %s\n", all_found ? "yes" : "NO");
    bench::print_footer(watch);
    return all_found ? 0 : 1;
}
