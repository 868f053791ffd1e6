// Incremental re-verification: the d=1..6 reconfiguration sweep of a
// run-time reconfigurable wagging pipeline, run twice — from scratch
// (fresh compile and fresh exploration per configuration) and
// incrementally (one petri::ReuseStore carried across every pass). The
// sweep axis is the initial phase of the alternating control rings:
// each d rotates the configuration tokens one position, a marking-only
// change to one shared structure. Because the rings advance at runtime
// (the paper's premise — configurations are revisited while the
// pipeline operates), every configuration's reachable set is almost
// exactly the shared core, so the incremental sweep re-claims resident
// markings instead of re-interning them.
//
// --json PATH writes the machine-readable summary compare.py surfaces
// (--incremental, advisory). Two deterministic contracts gate the exit
// code regardless: every incremental pass must match its scratch twin
// bit-for-bit (states, edges, verdicts, deadlock sets), and the shared
// store must intern at most 1.5x the deepest single run's markings —
// both are facts about the deterministic reduced graph, not timings, so
// they hold on any machine.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dfs/translate.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri/reuse.hpp"
#include "pipeline/wagging.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

constexpr int kConfigs = 6;  ///< one per alternating-ring phase
constexpr double kInternRatioCeiling = 1.5;

/// The runtime-reconfigurable fixture: a wagging stage whose
/// distributor/collector rings start rotated by `phase` positions —
/// the d-th configuration of one shared structure. The graph name is
/// phase-independent, so every configuration shares one structural
/// digest: the precondition for marking reuse.
petri::Net config_net(int phase) {
    dfs::Graph g("bench_incremental");
    const dfs::NodeId in = g.add_register("in");
    pipeline::WaggingStage w = pipeline::add_wagging_stage(g, "w", in);
    for (pipeline::AlternatingRing* ring : {&w.distributor, &w.collector}) {
        for (int i = 0; i < 6; ++i) {
            // One True and one False token three positions apart, as
            // built — rotated by `phase`.
            const bool marked = i == phase % 6 || i == (phase + 3) % 6;
            g.set_initial(ring->regs[i], marked,
                          i == phase % 6 ? dfs::TokenValue::True
                                         : dfs::TokenValue::False);
        }
    }
    return dfs::to_petri(g).net;
}

struct Pass {
    petri::MultiResult result;
    double seconds = 0.0;  ///< translate + compile + explore
};

/// One exhaustive reduced deadlock pass — the pass class the
/// verification flow runs per reconfiguration. The clock covers the
/// whole per-configuration cost: graph construction, translation, net
/// compilation and the exploration itself.
Pass run_config(int d, const std::shared_ptr<petri::ReuseStore>& reuse) {
    bench::Stopwatch watch;
    const petri::Net net = config_net(d - 1);
    const petri::CompiledNet compiled(net);
    petri::ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.threads = 1;
    options.por = true;
    options.reuse = reuse;
    petri::ParallelReachabilityExplorer explorer(compiled, options);
    const petri::Predicate dead = petri::Predicate::deadlock();
    petri::MultiQuery query;
    query.goals = {&dead};
    query.collect_deadlocks = true;
    Pass pass;
    pass.result = explorer.run_query(query);
    pass.seconds = watch.elapsed_s();
    return pass;
}

std::vector<petri::Marking> sorted(std::vector<petri::Marking> ms) {
    std::sort(ms.begin(), ms.end());
    return ms;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    }
    bench::Stopwatch watch;
    bench::print_header(
        "incremental re-verification",
        "scratch vs reused d=1.." + std::to_string(kConfigs) + " sweep");

    bool ok = true;

    // Scratch side: fresh compile and exploration per configuration,
    // three sweep iterations, best total (the compile is part of the
    // cost on both sides).
    std::vector<Pass> scratch(kConfigs + 1);
    double scratch_total = 1e300;
    for (int iter = 0; iter < 3; ++iter) {
        double total = 0.0;
        std::vector<Pass> passes(kConfigs + 1);
        for (int d = 1; d <= kConfigs; ++d) {
            passes[d] = run_config(d, nullptr);
            total += passes[d].seconds;
        }
        if (total < scratch_total) {
            scratch_total = total;
            scratch = std::move(passes);
        }
    }

    // Incremental side: every pass shares one ReuseStore. A fresh store
    // per iteration keeps the iterations comparable.
    std::vector<Pass> incremental(kConfigs + 1);
    double incremental_total = 1e300;
    std::size_t interned = 0;
    for (int iter = 0; iter < 3; ++iter) {
        const auto reuse = std::make_shared<petri::ReuseStore>();
        double total = 0.0;
        std::vector<Pass> passes(kConfigs + 1);
        for (int d = 1; d <= kConfigs; ++d) {
            passes[d] = run_config(d, reuse);
            total += passes[d].seconds;
        }
        if (total < incremental_total) {
            incremental_total = total;
            incremental = std::move(passes);
            interned = reuse->interned_markings();
        }
    }

    // Differential gate: the store must be invisible in every answer.
    std::size_t deepest_states = 0;
    double deepest_scratch = 0.0;
    util::Table table({"config", "states", "scratch [ms]", "incr [ms]",
                       "speedup"});
    std::string depths_json;
    for (int d = 1; d <= kConfigs; ++d) {
        const petri::MultiResult& a = scratch[d].result;
        const petri::MultiResult& b = incremental[d].result;
        if (a.truncated || b.truncated ||
            a.states_explored != b.states_explored ||
            a.edges_explored != b.edges_explored ||
            a.goals[0].found() != b.goals[0].found() ||
            sorted(a.deadlocks) != sorted(b.deadlocks)) {
            std::printf("SCRATCH/INCREMENTAL MISMATCH at config %d\n", d);
            ok = false;
        }
        deepest_states = std::max(deepest_states, a.states_explored);
        deepest_scratch = std::max(deepest_scratch, scratch[d].seconds);
        table.add_row({std::to_string(d),
                       std::to_string(a.states_explored),
                       util::Table::num(scratch[d].seconds * 1e3, 1),
                       util::Table::num(incremental[d].seconds * 1e3, 1),
                       util::Table::num(scratch[d].seconds /
                                            incremental[d].seconds,
                                        2) +
                           "x"});
        depths_json += "    {\"depth\": " + std::to_string(d) +
                       ", \"states\": " + std::to_string(a.states_explored) +
                       ", \"scratch_s\": " +
                       std::to_string(scratch[d].seconds) +
                       ", \"incremental_s\": " +
                       std::to_string(incremental[d].seconds) + "},\n";
    }
    if (!depths_json.empty()) {
        depths_json.erase(depths_json.size() - 2, 1);  // last comma
    }
    std::printf("%s\n", table.to_ascii().c_str());

    const double speedup = scratch_total / incremental_total;
    const double sweep_vs_deepest = incremental_total / deepest_scratch;
    const double intern_ratio = static_cast<double>(interned) /
                                static_cast<double>(deepest_states);
    std::printf("sweep totals: scratch %.1f ms, incremental %.1f ms "
                "(%.2fx); deepest single run %.1f ms, incremental sweep "
                "= %.2fx of it\n",
                scratch_total * 1e3, incremental_total * 1e3, speedup,
                deepest_scratch * 1e3, sweep_vs_deepest);
    std::printf("shared store interned %zu markings for %zu "
                "deepest-run states: %.2fx (ceiling %.2fx)\n\n",
                interned, deepest_states, intern_ratio,
                kInternRatioCeiling);
    if (intern_ratio > kInternRatioCeiling) {
        std::printf("INTERN RATIO ABOVE CEILING\n");
        ok = false;
    }

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(f,
                         "{\n"
                         "  \"depths\": [\n%s  ],\n"
                         "  \"scratch_total_s\": %.6f,\n"
                         "  \"incremental_total_s\": %.6f,\n"
                         "  \"speedup\": %.3f,\n"
                         "  \"deepest_scratch_s\": %.6f,\n"
                         "  \"sweep_vs_deepest\": %.3f,\n"
                         "  \"deepest_states\": %zu,\n"
                         "  \"interned_markings\": %zu,\n"
                         "  \"intern_ratio\": %.3f,\n"
                         "  \"ok\": %s\n"
                         "}\n",
                         depths_json.c_str(), scratch_total,
                         incremental_total, speedup, deepest_scratch,
                         sweep_vs_deepest, deepest_states, interned,
                         intern_ratio, ok ? "true" : "false");
            std::fclose(f);
        } else {
            std::printf("cannot write %s\n", json_path);
            ok = false;
        }
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
