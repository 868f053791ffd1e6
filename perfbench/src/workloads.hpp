#pragma once

// The four workloads of the rap benchmark. Each one sets up, measures
// for the configured seconds, checks every output it produces into the
// context's Tally, and returns its figures by metric name. See
// perfbench/README.md for what each workload loads and bypasses and how
// every metric is defined on it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/design.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "verify/cache.hpp"

namespace rapbench {

struct Context {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;  ///< the separate traced run (per-layer figures)
    std::size_t nproc = 1;
    Tracer tracer{""};
    Tally tally;
};

/// Figures by metric name: end-to-end ones from the untraced operations,
/// layer ones from the traced run. A layer a workload never calls reads
/// 0.
struct Figures {
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
};

Figures run_verify_ope4(Context& ctx);
Figures run_reconfig_session(Context& ctx);
Figures run_design_sweep(Context& ctx);
Figures run_fault_campaign(Context& ctx);

// -- shared by the workload files --------------------------------------

/// Set-up repetitions per run: some before the measuring loop, the
/// rest after it, so a burst of host load over the one group does not
/// set the median alone. setup_s is the median of all of them.
inline constexpr int kSetupRepsBefore = 3;
inline constexpr int kSetupRepsAfter = 4;

/// Runs `setup` `reps` times, each after emptying the process artifact
/// cache so every repetition compiles again, and appends each wall time.
template <class Setup>
void time_setup(int reps, Setup& setup, std::vector<double>& times) {
    for (int rep = 0; rep < reps; ++rep) {
        rap::verify::ArtifactCache::process_cache().clear();
        const auto start = Clock::now();
        setup();
        times.push_back(seconds_between(start, Clock::now()));
    }
}

/// The set-up repetitions before the measuring loop; the last one's
/// objects are the ones measured. A traced run records their spans.
template <class Setup>
std::vector<double> setup_before(Context& ctx, Setup& setup) {
    ctx.tracer.enable(ctx.trace);
    std::vector<double> times;
    time_setup(kSetupRepsBefore, setup, times);
    return times;
}

/// A workload's last step, once every other figure is taken: records
/// peak_rss_mb (the repetitions after it hold a second set of objects),
/// runs the remaining set-up repetitions untraced, and records setup_s.
template <class Setup>
void setup_after(Context& ctx, Setup& setup, std::vector<double> times,
                 Figures& figures) {
    figures.end_to_end["peak_rss_mb"] = peak_rss_mb();
    ctx.tracer.enable(false);
    time_setup(kSetupRepsAfter, setup, times);
    const double s = median(times);
    std::printf("setup_s %.4f (median of %zu: %.4f .. %.4f)\n", s,
                times.size(), *std::min_element(times.begin(), times.end()),
                *std::max_element(times.begin(), times.end()));
    figures.end_to_end["setup_s"] = s;
}

/// Repeats `op` until `seconds` have passed, at least once.
template <class Op>
void repeat_for(double seconds, Op&& op) {
    const auto start = Clock::now();
    do {
        op();
    } while (seconds_between(start, Clock::now()) < seconds);
}

/// The measuring loop, one `op(traced)` for both kinds of run. An
/// untraced run measures for the whole budget with the tracer off. A
/// traced run measures half of it untraced (the reference for the
/// tracing overhead) and half traced, each traced operation inside one
/// root "bench.op" span. An operation times its own untraced work and
/// does any probes outside that time.
template <class Op>
void measure(Context& ctx, Op&& op) {
    ctx.tracer.enable(false);
    repeat_for(ctx.trace ? ctx.seconds / 2 : ctx.seconds, [&] { op(false); });
    if (!ctx.trace) return;
    ctx.tracer.enable(true);
    repeat_for(ctx.seconds / 2, [&] {
        auto span = ctx.tracer.span("bench.op");
        op(true);
    });
}

/// Runs `verify`, a Design::verify call on a design whose options carry
/// `clock`'s hook (installed in traced runs only), inside a span called
/// `name`. While tracing, the exploration the clock saw inside the call
/// becomes the span's derived "petri.pass" child, so the span's self time
/// is the verify layer's own share of the call.
template <class Verify>
auto traced_verify(Context& ctx, PassClock& clock, const char* name,
                   Verify&& verify) {
    clock.reset(ctx.tracer.enabled());
    auto span = ctx.tracer.span(name);
    auto report = verify();
    Clock::time_point first, last;
    if (ctx.tracer.enabled() && clock.interval(first, last)) {
        ctx.tracer.add("petri.pass", first, last, ctx.tracer.current());
    }
    return report;
}

/// Adds the figures every traced run reports: self.<layer>_s, the mean
/// self time per traced operation of each layer (probes left out, so the
/// layers add up to the operation), and trace.overhead_s, the traced
/// operation median minus the untraced one.
void add_trace_figures(const Context& ctx, double untraced_median_s,
                       double traced_median_s, Figures& figures);

/// Median duration of the spans called `name` (0 when there are none).
double span_median(const Context& ctx, const char* name);

/// count / seconds; 0 when no time passed.
double rate(double count, double seconds);

/// Hit rate of the process artifact cache between two snapshots.
double hit_rate(const rap::verify::CacheStats& before,
                const rap::verify::CacheStats& after);

/// petri.peak_bytes, petri.resident_bytes and petri.store.* of one pass.
void add_memory_figures(const rap::petri::MemoryStats& memory,
                        Figures& figures);

/// petri.por.* of summed reduction statistics (none when POR never ran).
void add_por_figures(const rap::petri::PorStats& por, Figures& figures);

/// The start of every set-up: the reconfigurable OPE model, its session
/// and its dynamics, spanned as ope.build, flow.design and dfs.dynamics.
std::unique_ptr<rap::flow::Design> new_design(
    Context& ctx, int stages, int depth,
    const rap::flow::DesignOptions& options, bool probe = false);

/// Fisher-Yates shuffle driven by the benchmark's seeded generator.
template <class T>
void shuffle(std::vector<T>& items, rap::util::Rng& rng) {
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
    }
}

}  // namespace rapbench
