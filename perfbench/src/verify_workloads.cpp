// verify_ope4 and reconfig_session: the model-checking workloads, one
// flow::Design each, driven through librap's public API.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfs/translate.hpp"
#include "flow/design.hpp"
#include "ope/dfs_models.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "petri/reuse.hpp"
#include "util/strings.hpp"
#include "verify/artifacts.hpp"
#include "workloads.hpp"

namespace rapbench {
namespace {

using namespace rap;

constexpr const char* kArtifact = "verify.artifact";
constexpr const char* kVerify = "verify.verify";

/// A scratch translation and compile of the design's current model —
/// what the artifact cache's CompiledModel(graph) does on a miss, timed
/// per layer. Probe work: the untraced operation never does it.
void probe_translate_compile(Context& ctx, const flow::Design& design) {
    std::optional<dfs::Translation> translation;
    {
        auto span = ctx.tracer.span("dfs.translate", true);
        translation.emplace(dfs::to_petri(design.graph()));
    }
    auto span = ctx.tracer.span("petri.compile", true);
    const petri::CompiledNet compiled(translation->net);
}

/// The set-up's session: new_design plus the compiled artifact the
/// verifier will share.
std::unique_ptr<flow::Design> build_design(Context& ctx, int stages,
                                           const flow::DesignOptions& opts) {
    auto design = new_design(ctx, stages, stages, opts);
    if (ctx.tracer.enabled()) probe_translate_compile(ctx, *design);
    auto span = ctx.tracer.span(kArtifact);
    design->compiled_net();
    return design;
}

/// The query verify::Verifier builds for Spec::standard() (deadlock and
/// control-conflict goals, persistence with the Mt+/Mf+ choices exempt),
/// rebuilt from public API so a bare engine pass repeats the verify
/// pass's exploration. The Verifier keeps its query private, so this is
/// a copy of verifier.cpp's query code and must follow it: the run
/// checks only that the bare pass stops at the same cap, not that its
/// goals and persistence settings match the Verifier's.
struct StandardQuery {
    petri::Predicate deadlock = petri::Predicate::deadlock();
    std::optional<petri::Predicate> conflict;
    petri::MultiQuery query;

    explicit StandardQuery(const flow::Design& design) {
        const dfs::Graph& g = design.graph();
        const auto& places = design.translation().places;
        struct Watched {
            std::vector<dfs::NodeId> controls;
            std::vector<bool> inverted;
        };
        std::vector<Watched> watched;
        std::vector<petri::PlaceId> support;
        for (const dfs::NodeId n : g.nodes()) {
            const auto& controls = g.control_preset(n);
            if (controls.size() < 2) continue;
            watched.push_back({controls, g.control_preset_inversion(n)});
            for (const dfs::NodeId c : controls) {
                support.push_back(places[c.value].m1);
                support.push_back(places[c.value].mt1);
            }
        }
        query.goals.push_back(&deadlock);
        if (!watched.empty()) {
            auto eval = [watched, &places](const petri::Net&,
                                           const petri::Marking& m) {
                for (const auto& w : watched) {
                    bool all = true, saw_true = false, saw_false = false;
                    for (std::size_t i = 0; i < w.controls.size(); ++i) {
                        const auto& slots = places[w.controls[i].value];
                        if (!m.get(slots.m1.value)) {
                            all = false;
                            break;
                        }
                        const bool t = m.get(slots.mt1.value) != w.inverted[i];
                        (t ? saw_true : saw_false) = true;
                    }
                    if (all && saw_true && saw_false) return true;
                }
                return false;
            };
            conflict = petri::Predicate::custom(
                "control-conflict", std::move(eval), std::move(support));
            query.goals.push_back(&*conflict);
        }
        query.check_persistence = true;
        query.persistence_max_violations = 1;
        query.persistence_exempt = [](const petri::Net& net,
                                      petri::TransitionId a,
                                      petri::TransitionId b) {
            const std::string& na = net.transition_name(a);
            const std::string& nb = net.transition_name(b);
            auto choice = [](const std::string& name) {
                return (util::starts_with(name, "Mt_") ||
                        util::starts_with(name, "Mf_")) &&
                       name.back() == '+';
            };
            return choice(na) && choice(nb) && na.substr(3) == nb.substr(3);
        };
    }
};

}  // namespace

// -- verify_ope4 ----------------------------------------------------------

Figures run_verify_ope4(Context& ctx) {
    constexpr int kStages = 4;
    constexpr std::size_t kCap = 4'000'000;
    constexpr std::size_t kWarmupCap = 500'000;
    std::printf("verify_ope4: the model is deterministic; seed %llu is "
                "recorded and ignored\n",
                static_cast<unsigned long long>(ctx.seed));

    flow::DesignOptions opts;
    opts.verify.max_states = kCap;
    PassClock clock;
    if (ctx.trace) opts.verify.stop = clock.hook();
    std::unique_ptr<flow::Design> design;
    Figures f;
    auto setup = [&] {
        design = build_design(ctx, kStages, opts);
        // Warm-up launch: a capped pass on a sibling session that shares
        // the cached artifact.
        flow::DesignOptions warm = opts;
        warm.verify.max_states = kWarmupCap;
        auto span = ctx.tracer.span("verify.warmup");
        flow::make_design(ope::build_reconfigurable_ope_dfs(kStages, kStages),
                          warm)
            ->verify();
    };
    std::vector<double> setup_times = setup_before(ctx, setup);

    // The first full pass in a process faults in the store's memory and
    // runs about a quarter slower than later ones; one untimed pass lets
    // the timed ones start warm.
    ctx.tracer.enable(false);
    design->verify();

    const StandardQuery standard(*design);
    std::vector<double> walls[2];  // [traced]
    std::vector<double> bytes_per_state, edges;
    double states = 0.0;
    petri::MemoryStats memory;
    measure(ctx, [&](bool traced) {
        std::optional<verify::Report> report;
        const auto start = Clock::now();
        report.emplace(traced_verify(ctx, clock, kVerify,
                                     [&] { return design->verify(); }));
        walls[traced].push_back(seconds_between(start, Clock::now()));
        memory = design->memory_stats().value_or(petri::MemoryStats{});
        states = static_cast<double>(report->findings.front().states_explored);
        if (!traced) bytes_per_state.push_back(memory.peak_bytes / states);
        ctx.tally.attempt("Design::verify", [&]() -> std::string {
            if (report->findings.size() != 3) return "expected 3 findings";
            for (const verify::Finding& finding : report->findings) {
                if (finding.states_explored != kCap) {
                    return "states " +
                           std::to_string(finding.states_explored) +
                           " != cap " + std::to_string(kCap);
                }
                if (!finding.truncated) return "finding not truncated";
                if (finding.violated) return "finding violated";
            }
            return "";
        });
        if (!traced) return;
        for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
            petri::ReachabilityOptions ropts;
            ropts.max_states = kCap;
            ropts.stop_at_first_match = false;
            ropts.threads = threads;
            petri::ParallelReachabilityExplorer explorer(
                design->compiled_net(), ropts);
            petri::MultiResult result;
            {
                auto span = ctx.tracer.span(
                    threads == 0 ? "petri.explore" : "petri.explore_1t", true);
                result = explorer.run_query(standard.query);
            }
            if (threads == 0) {
                edges.push_back(static_cast<double>(result.edges_explored));
            }
            ctx.tally.attempt("bare engine pass", [&]() -> std::string {
                if (result.states_explored != kCap || !result.truncated) {
                    return "states " + std::to_string(result.states_explored) +
                           " (expected the cap, truncated)";
                }
                return "";
            });
        }
    });

    const double verify_s = median(walls[0]);
    const Tail tail_s = tail(walls[0]);
    std::printf("verify_s %.4f (median of %zu), tail %.4f at p%d (n=%zu, "
                "%zu beyond)\n",
                verify_s, walls[0].size(), tail_s.value, tail_s.percentile,
                tail_s.samples, tail_s.beyond);
    auto& e = f.end_to_end;
    e["verify_s"] = verify_s;
    e["states_per_s"] = rate(states, verify_s);
    e["bytes_per_state"] = median(bytes_per_state);
    e["reconfig_cycle_p50_s"] = verify_s;
    e["reconfig_cycle_tail_s"] = tail_s.value;
    e["rows_per_s"] = rate(1.0, verify_s);
    e["runs_per_s"] = rate(1.0, verify_s);
    // POR is off, so the pass does not count its fired transitions; the
    // tree firings that discovered the states stand in for them.
    e["sim_events_per_s"] = rate(states - 1.0, verify_s);

    if (ctx.trace) {
        auto& l = f.per_layer;
        l["ope.build_s"] = span_median(ctx, "ope.build");
        l["dfs.dynamics_s"] = span_median(ctx, "dfs.dynamics");
        l["dfs.translate_s"] = span_median(ctx, "dfs.translate");
        l["petri.compile_s"] = span_median(ctx, "petri.compile");
        l["petri.explore_s"] = span_median(ctx, "petri.explore");
        l["petri.explore_1t_s"] = span_median(ctx, "petri.explore_1t");
        l["petri.scaling"] =
            l["petri.explore_s"] > 0.0
                ? l["petri.explore_1t_s"] / l["petri.explore_s"]
                : 0.0;
        l["petri.states"] = states;
        l["petri.edges"] = median(edges);
        add_memory_figures(memory, f);
        l["petri.reuse.fallbacks"] =
            static_cast<double>(design->reuse_fallbacks());
        l["verify.verify_s"] = span_median(ctx, kVerify);
        l["verify.self_s"] = median(ctx.tracer.self_times(kVerify));
        add_trace_figures(ctx, verify_s, median(walls[1]), f);
    }
    setup_after(ctx, setup, std::move(setup_times), f);
    return f;
}

// -- reconfig_session -----------------------------------------------------

Figures run_reconfig_session(Context& ctx) {
    constexpr int kStages = 6;
    // Exact state counts per depth (POR on, deadlock + control conflict);
    // identical at every thread count.
    const std::map<int, std::size_t> kStates = {
        {3, 4'900}, {4, 12'760}, {5, 34'965}, {6, 46'208}};
    const auto spec = verify::Spec{}.deadlock().control_conflict();

    flow::DesignOptions opts;
    opts.incremental = true;
    opts.verify.por = true;
    PassClock clock;
    if (ctx.trace) opts.verify.stop = clock.hook();
    std::unique_ptr<flow::Design> design;
    Figures f;
    auto setup = [&] {
        design = build_design(ctx, kStages, opts);
        // Warm-up launch: one pass per depth, filling the reuse store.
        auto span = ctx.tracer.span("verify.warmup");
        for (const int depth : {3, 4, 5, 6}) {
            design->set_depth(depth);
            design->verify(spec);
        }
    };
    std::vector<double> setup_times = setup_before(ctx, setup);

    util::Rng rng(ctx.seed);
    std::vector<int> order = {3, 4, 5, 6};
    std::vector<double> cycles[2];  // [traced]
    std::vector<double> d6_walls, d6_bytes, cycle_rates, cycle_events;
    std::vector<double> violated_walls, witness_lens, intern_ratios;
    std::vector<double> cycle_states, cycle_edges;
    petri::MemoryStats d6_memory;
    petri::PorStats por;
    std::size_t builds_before = 0, builds = 0, traced_ops = 0;
    verify::CacheStats cache_before, cache_after;

    measure(ctx, [&](bool traced) {
        shuffle(order, rng);
        const int faulty_depth = order[rng.below(order.size())];
        if (traced && traced_ops++ == 0) {
            builds_before = verify::artifact_builds();
            cache_before = verify::ArtifactCache::process_cache().stats();
        }
        const std::size_t interned_before =
            design->reuse_store() ? design->reuse_store()->interned_markings()
                                  : 0;
        double verify_time = 0.0, states = 0.0, fired = 0.0;
        const auto cycle_start = Clock::now();
        for (const int depth : order) {
            {
                auto span = ctx.tracer.span("pipeline.reconfigure");
                design->set_depth(depth);
            }
            if (traced) {
                auto span = ctx.tracer.span(kArtifact);
                design->compiled_net();
            }
            std::optional<verify::Report> report;
            const auto start = Clock::now();
            report.emplace(traced_verify(
                ctx, clock, kVerify, [&] { return design->verify(spec); }));
            const double wall = seconds_between(start, Clock::now());
            const std::size_t explored =
                report->findings.front().states_explored;
            const petri::PorStats pass_por =
                design->por_stats().value_or(petri::PorStats{});
            verify_time += wall;
            states += static_cast<double>(explored);
            fired += static_cast<double>(pass_por.expanded_transitions);
            if (!traced) por.merge(pass_por);
            if (depth == kStages) {
                d6_memory = design->memory_stats().value_or(d6_memory);
                if (!traced) {
                    d6_walls.push_back(wall);
                    d6_bytes.push_back(d6_memory.peak_bytes /
                                       static_cast<double>(explored));
                }
            }
            ctx.tally.attempt(
                "verify d" + std::to_string(depth), [&]() -> std::string {
                    if (explored != kStates.at(depth)) {
                        return "states " + std::to_string(explored) +
                               " != " + std::to_string(kStates.at(depth));
                    }
                    if (!report->clean()) return "verdict violated";
                    for (const auto& finding : report->findings) {
                        if (finding.truncated) return "finding truncated";
                    }
                    return "";
                });
        }

        // The faulty configuration: s2's global ring reset to False (the
        // gap model) deadlocks, and the report must carry a witness.
        {
            auto span = ctx.tracer.span("pipeline.reconfigure");
            design->set_depth(faulty_depth);
            design->reset_ring(design->pipeline().stages[1].global_ring,
                               dfs::TokenValue::False);
        }
        std::optional<verify::Report> faulty;
        const auto start = Clock::now();
        faulty.emplace(traced_verify(ctx, clock, "verify.violated_pass",
                                     [&] { return design->verify(spec); }));
        const double wall = seconds_between(start, Clock::now());
        verify_time += wall;
        states += static_cast<double>(faulty->findings.front().states_explored);
        const double cycle = seconds_between(cycle_start, Clock::now());
        cycles[traced].push_back(cycle);
        const verify::Finding* deadlock =
            faulty->find(verify::Property::Deadlock);
        ctx.tally.attempt("verify faulty", [&]() -> std::string {
            if (deadlock == nullptr || !deadlock->violated) {
                return "gap model not reported deadlocked";
            }
            if (deadlock->trace.empty()) return "deadlock without witness";
            if (design->reuse_fallbacks() != 0) {
                return "reuse fell back " +
                       std::to_string(design->reuse_fallbacks()) + " times";
            }
            return "";
        });
        if (!traced) {
            cycle_rates.push_back(rate(states, verify_time));
            cycle_events.push_back(rate(fired, verify_time));
            return;
        }
        violated_walls.push_back(wall);
        if (deadlock != nullptr) {
            witness_lens.push_back(static_cast<double>(deadlock->trace.size()));
        }
        cycle_states.push_back(states);
        cycle_edges.push_back(fired);
        if (design->reuse_store()) {
            intern_ratios.push_back(
                static_cast<double>(
                    design->reuse_store()->interned_markings() -
                    interned_before) /
                static_cast<double>(kStates.at(kStages)));
        }
        builds = verify::artifact_builds() - builds_before;
        cache_after = verify::ArtifactCache::process_cache().stats();
        probe_translate_compile(ctx, *design);
    });

    const double cycle_p50 = median(cycles[0]);
    const Tail cycle_tail = tail(cycles[0]);
    std::printf("reconfig_cycle_p50_s %.4f (n=%zu), tail %.4f at p%d "
                "(%zu beyond)\n",
                cycle_p50, cycles[0].size(), cycle_tail.value,
                cycle_tail.percentile, cycle_tail.beyond);
    auto& e = f.end_to_end;
    e["verify_s"] = median(d6_walls);
    e["states_per_s"] = median(cycle_rates);
    e["bytes_per_state"] = median(d6_bytes);
    e["reconfig_cycle_p50_s"] = cycle_p50;
    e["reconfig_cycle_tail_s"] = cycle_tail.value;
    // Five configurations verified per cycle, one pass each.
    e["rows_per_s"] = rate(5.0, cycle_p50);
    e["runs_per_s"] = rate(5.0, cycle_p50);
    e["sim_events_per_s"] = median(cycle_events);

    if (ctx.trace) {
        auto& l = f.per_layer;
        l["ope.build_s"] = span_median(ctx, "ope.build");
        l["pipeline.reconfigure_s"] =
            span_median(ctx, "pipeline.reconfigure");
        l["dfs.dynamics_s"] = span_median(ctx, "dfs.dynamics");
        l["dfs.translate_s"] = span_median(ctx, "dfs.translate");
        l["petri.compile_s"] = span_median(ctx, "petri.compile");
        l["petri.states"] = median(cycle_states);
        l["petri.edges"] = median(cycle_edges);
        add_memory_figures(d6_memory, f);
        add_por_figures(por, f);
        l["petri.reuse.fallbacks"] =
            static_cast<double>(design->reuse_fallbacks());
        l["petri.reuse.intern_ratio"] = median(intern_ratios);
        l["verify.verify_s"] = span_median(ctx, kVerify);
        l["verify.self_s"] = median(ctx.tracer.self_times(kVerify));
        l["verify.violated_pass_s"] = median(violated_walls);
        l["verify.witness_len"] = median(witness_lens);
        l["verify.cache.hit_rate"] = hit_rate(cache_before, cache_after);
        l["verify.artifact_builds"] =
            traced_ops > 0 ? static_cast<double>(builds) / traced_ops : 0.0;
        add_trace_figures(ctx, cycle_p50, median(cycles[1]), f);
    }
    setup_after(ctx, setup, std::move(setup_times), f);
    return f;
}

}  // namespace rapbench
