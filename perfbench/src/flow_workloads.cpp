// design_sweep and fault_campaign: the flow services (flow::Sweep and
// flow::Campaign) over their job pools, driven through librap's public
// API.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asim/faults.hpp"
#include "flow/campaign.hpp"
#include "flow/design.hpp"
#include "flow/sweep.hpp"
#include "ope/dfs_models.hpp"
#include "tech/voltage.hpp"
#include "util/rng.hpp"
#include "verify/artifacts.hpp"
#include "workloads.hpp"

namespace rapbench {
using namespace rap;

namespace {

/// Records a pool's worker time, `worker_s` summed over its `workers`,
/// as a derived span of `worker_s / workers` starting at `at`, the share
/// of the pool's wall the layer took. Returns the span and moves `at` to
/// its end.
long add_pooled(Context& ctx, const char* name, double worker_s,
                double workers, Clock::time_point& at, long parent) {
    const Clock::time_point end =
        at + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(worker_s / workers));
    const long index = ctx.tracer.add(name, at, end, parent);
    at = end;
    return index;
}

}  // namespace

// -- design_sweep ---------------------------------------------------------

Figures run_design_sweep(Context& ctx) {
    // Exact POR state counts per (stages, depth) under deadlock + control
    // conflict; a row's voltage schedule does not change them.
    const std::map<std::pair<int, int>, std::size_t> kStates = {
        {{3, 3}, 945},    {{4, 3}, 2'722},  {{4, 4}, 3'644},
        {{5, 3}, 3'743},  {{5, 4}, 8'523},  {{5, 5}, 11'059},
        {{6, 3}, 4'900},  {{6, 4}, 12'760}, {{6, 5}, 34'965},
        {{6, 6}, 46'208}};
    constexpr int kLargest = 6;
    const auto spec = verify::Spec{}.deadlock().control_conflict();

    // Nominal supply plus droops of growing depth and length.
    std::vector<tech::VoltageSchedule> schedules = {
        tech::VoltageSchedule::constant(1.2)};
    for (const double droop : {0.9, 0.75, 0.6, 0.5, 0.45}) {
        tech::VoltageSchedule s;
        s.add_segment(2e-6, 1.2);
        s.add_segment(droop * 2e-6, droop);
        s.add_segment(1e-6, 1.2);
        schedules.push_back(s);
    }
    std::vector<int> stages = {3, 4, 5, 6};
    std::vector<int> depths = {3, 4, 5, 6};
    std::size_t expected_invalid = 0;
    for (const int s : stages) {
        for (const int d : depths) expected_invalid += d > s ? 1 : 0;
    }
    expected_invalid *= schedules.size();

    std::vector<double> done_at;  // seconds since launch, per row
    Clock::time_point launched;
    // Worker time of a traced sweep's layers, summed over its workers.
    PassClock clock;
    std::atomic<double> build_worker_s{0.0};
    double pass_worker_s = 0.0;
    auto sweep_of = [&](bool traced) {
        // A traced sweep is the same sweep with its layers timed on the
        // workers: the factory Sweep::ope() uses, timed, and the pass
        // clock's stop hook in every row's verify options.
        flow::DesignOptions base;
        if (traced) base.verify.stop = clock.hook();
        flow::Sweep sweep =
            traced ? flow::Sweep(
                         [&](int s, int d) {
                             const auto start = Clock::now();
                             auto model =
                                 ope::build_reconfigurable_ope_dfs(s, d);
                             build_worker_s +=
                                 seconds_between(start, Clock::now());
                             return model;
                         },
                         base)
                   : flow::Sweep::ope();
        return sweep.stages(stages)
            .depths(depths)
            .schedules(schedules)
            .spec(spec)
            .workers(ctx.nproc)
            .on_result([&, traced](const flow::SweepResult&) {
                // Called on the worker that ran the row, after its pass.
                done_at.push_back(seconds_between(launched, Clock::now()));
                if (traced) pass_worker_s += PassClock::take_thread_seconds();
            });
    };
    auto run_sweep = [&](bool traced) {
        done_at.clear();
        build_worker_s = 0.0;
        pass_worker_s = 0.0;
        launched = Clock::now();
        flow::Sweep::Handle handle = sweep_of(traced).launch();
        std::vector<flow::SweepResult> rows = handle.wait();
        return std::make_pair(std::move(rows), handle.distinct_models());
    };

    Figures f;
    auto setup = [&] {
        auto span = ctx.tracer.span("flow.sweep");
        run_sweep(false);  // warm-up launch
    };
    std::vector<double> setup_times = setup_before(ctx, setup);

    util::Rng rng(ctx.seed);
    std::vector<double> walls[2];  // [traced]
    std::vector<double> mean_rows, largest_bytes, row_seconds;
    std::vector<double> state_rates, ok_rates, point_rates, event_rates;
    std::vector<double> busy, straggler, sweep_states, sweep_edges, builds;
    std::optional<petri::MemoryStats> largest_memory;
    petri::PorStats por;
    std::optional<verify::CacheStats> cache_before;
    verify::CacheStats cache_after;

    measure(ctx, [&](bool traced) {
        shuffle(stages, rng);
        shuffle(depths, rng);
        shuffle(schedules, rng);
        verify::ArtifactCache::process_cache().clear();
        if (traced && !cache_before) {
            cache_before = verify::ArtifactCache::process_cache().stats();
        }
        const std::size_t builds_before = verify::artifact_builds();
        std::optional<std::pair<std::vector<flow::SweepResult>, std::size_t>>
            result;
        {
            auto span = ctx.tracer.span("flow.sweep");
            result.emplace(run_sweep(traced));
            if (traced) {
                // The rows' layers as shares of the sweep's wall: model
                // builds, then verify passes with their explorations.
                double verify_worker_s = 0.0;
                for (const flow::SweepResult& row : result->first) {
                    verify_worker_s += row.verify_seconds;
                }
                const double workers = static_cast<double>(ctx.nproc);
                const long sweep_span = ctx.tracer.current();
                Clock::time_point at = launched;
                add_pooled(ctx, "ope.pooled_build", build_worker_s, workers,
                           at, sweep_span);
                Clock::time_point pass_at = at;
                const long rows_span =
                    add_pooled(ctx, "verify.pooled_verify", verify_worker_s,
                               workers, at, sweep_span);
                add_pooled(ctx, "petri.pooled_pass", pass_worker_s, workers,
                           pass_at, rows_span);
            }
        }
        const double wall = seconds_between(launched, Clock::now());
        walls[traced].push_back(wall);
        const auto& [rows, distinct] = *result;
        const std::size_t built = verify::artifact_builds() - builds_before;

        std::size_t ok = 0, invalid = 0;
        double states = 0.0, fired = 0.0, row_time = 0.0;
        for (const flow::SweepResult& row : rows) {
            const int s = row.point.stages;
            const int d = row.point.depth;
            ctx.tally.attempt("row " + row.point.label, [&]() -> std::string {
                if (row.status == flow::SweepStatus::kInvalid) {
                    return d > s ? "" : "unexpected kInvalid: " + row.error;
                }
                if (row.status != flow::SweepStatus::kOk) {
                    return std::string("status ") +
                           std::string(flow::to_string(row.status));
                }
                const auto expected = kStates.find({s, d});
                if (expected == kStates.end()) return "should be kInvalid";
                if (row.states != expected->second) {
                    return "states " + std::to_string(row.states) +
                           " != " + std::to_string(expected->second);
                }
                if (!row.clean) return "verdict violated";
                for (const auto& finding : row.report.findings) {
                    if (finding.truncated) return "finding truncated";
                }
                return "";
            });
            if (row.status == flow::SweepStatus::kInvalid) ++invalid;
            if (row.status != flow::SweepStatus::kOk) continue;
            ++ok;
            states += static_cast<double>(row.states);
            row_time += row.verify_seconds;
            row_seconds.push_back(row.verify_seconds);
            if (row.por) {
                por.merge(*row.por);
                fired += static_cast<double>(row.por->expanded_transitions);
            }
            if (s == kLargest && d == kLargest && row.memory && !traced) {
                largest_memory = row.memory;
                largest_bytes.push_back(row.memory->peak_bytes /
                                        static_cast<double>(row.states));
            }
        }
        ctx.tally.attempt("sweep", [&]() -> std::string {
            if (invalid != expected_invalid) {
                return std::to_string(invalid) + " kInvalid rows, expected " +
                       std::to_string(expected_invalid);
            }
            if (built != distinct || distinct != kStates.size()) {
                return std::to_string(built) + " artifact builds for " +
                       std::to_string(distinct) + " distinct models";
            }
            return "";
        });
        std::sort(done_at.begin(), done_at.end());
        if (done_at.size() >= 2) {
            straggler.push_back(wall - done_at[done_at.size() - 2]);
        }
        busy.push_back(row_time / (wall * static_cast<double>(ctx.nproc)));
        sweep_states.push_back(states);
        sweep_edges.push_back(fired);
        builds.push_back(static_cast<double>(built));
        if (!traced) {
            // The mean pass, not the largest row's: a row's time depends
            // on how many rows run beside it, which the axis order sets.
            mean_rows.push_back(row_time / static_cast<double>(ok));
            state_rates.push_back(rate(states, wall));
            ok_rates.push_back(rate(static_cast<double>(ok), wall));
            point_rates.push_back(rate(static_cast<double>(rows.size()), wall));
            event_rates.push_back(rate(fired, wall));
            return;
        }
        cache_after = verify::ArtifactCache::process_cache().stats();

        // The largest row again, its layers called one by one the way a
        // sweep worker calls them (sequential engine, POR on).
        flow::DesignOptions opts;
        opts.verify.por = true;
        opts.verify.threads = 1;
        const auto design = new_design(ctx, kLargest, kLargest, opts, true);
        {
            auto span = ctx.tracer.span("verify.artifact", true);
            design->compiled_net();
        }
        auto span = ctx.tracer.span("verify.verify", true);
        design->verify(spec);
    });

    const double wall_p50 = median(walls[0]);
    const Tail wall_tail = tail(walls[0]);
    std::printf("sweep wall p50 %.4f (n=%zu), tail %.4f at p%d; rows/s %.1f\n",
                wall_p50, walls[0].size(), wall_tail.value,
                wall_tail.percentile, median(ok_rates));
    auto& e = f.end_to_end;
    e["verify_s"] = median(mean_rows);
    e["states_per_s"] = median(state_rates);
    e["bytes_per_state"] = median(largest_bytes);
    e["reconfig_cycle_p50_s"] = wall_p50;
    e["reconfig_cycle_tail_s"] = wall_tail.value;
    e["rows_per_s"] = median(ok_rates);
    e["runs_per_s"] = median(point_rates);
    e["sim_events_per_s"] = median(event_rates);

    if (ctx.trace) {
        auto& l = f.per_layer;
        l["ope.build_s"] = span_median(ctx, "ope.build");
        l["petri.states"] = median(sweep_states);
        l["petri.edges"] = median(sweep_edges);
        if (largest_memory) add_memory_figures(*largest_memory, f);
        add_por_figures(por, f);
        l["verify.verify_s"] = span_median(ctx, "verify.verify");
        if (cache_before) {
            l["verify.cache.hit_rate"] = hit_rate(*cache_before, cache_after);
        }
        l["verify.artifact_builds"] = median(builds);
        const Tail row_tail = tail(row_seconds);
        l["flow.sweep.row_p50_s"] = median(row_seconds);
        l["flow.sweep.row_tail_s"] = row_tail.value;
        l["flow.sweep.busy_share"] = median(busy);
        l["flow.sweep.straggler_s"] = median(straggler);
        add_trace_figures(ctx, wall_p50, median(walls[1]), f);
    }
    setup_after(ctx, setup, std::move(setup_times), f);
    return f;
}

// -- fault_campaign -------------------------------------------------------

Figures run_fault_campaign(Context& ctx) {
    constexpr int kStages = 3;
    constexpr int kDepth = 3;
    constexpr std::size_t kRuns = 70;
    constexpr std::uint64_t kItems = 24;
    constexpr double kNominal = 1.2;
    const std::vector<double> voltages = {1.2, 1.1, 1.0, 0.9, 0.8,
                                          0.7, 0.6, 0.55, 0.5, 0.45};
    const std::vector<double> scales = {0.0, 1.0, 4.0};
    asim::FaultSpec faults;
    faults.delay_sigma = 0.15;
    faults.drop_rate = 0.01;
    faults.duplicate_rate = 0.005;
    faults.stuck_rate = 2e-4;
    faults.glitch.rate_hz = 2e5;
    faults.glitch.droop_v = 0.5;
    faults.glitch.min_duration_s = 2e-7;
    faults.glitch.max_duration_s = 1e-6;

    std::uint64_t events = 0, injected = 0, runs = 0;
    // A traced campaign's run time, summed over its workers, and the
    // number of traced campaigns so far.
    double run_worker_s = 0.0;
    std::uint64_t generation = 0;
    auto campaign = [&](std::uint64_t seed, std::size_t per_point,
                        bool traced = false) {
        return flow::Campaign::ope(kStages)
            .depths({kDepth})
            .voltages(voltages)
            .fault_scales(scales)
            .base_faults(faults)
            .runs(per_point)
            .items(kItems)
            .seed(seed)
            .workers(ctx.nproc)
            .on_run([&, traced](const flow::CampaignRun& run) {
                events += run.events;
                injected += run.faults.injected();
                ++runs;
                if (!traced) return;
                // Called on the worker right after each run, and a worker
                // runs a point's runs in order: the time since the same
                // point's previous run is one run (the first run, with
                // the point's design and calibration, is not counted).
                struct Previous {
                    std::uint64_t generation = 0;
                    std::size_t point = SIZE_MAX;
                    Clock::time_point at;
                };
                thread_local Previous previous;
                const auto now = Clock::now();
                if (previous.generation == generation &&
                    previous.point == run.point) {
                    run_worker_s += seconds_between(previous.at, now);
                }
                previous = {generation, run.point, now};
            });
    };

    // The campaign's design with its netlist and timing: the set-up (with
    // one warm-up launch), and the start of the traced probe.
    auto build_design = [&](bool probe) {
        auto design = new_design(ctx, kStages, kDepth, {}, probe);
        {
            auto span = ctx.tracer.span("netlist.map", probe);
            design->netlist();
        }
        auto span = ctx.tracer.span("netlist.timing", probe);
        design->timing();
        return design;
    };
    Figures f;
    auto setup = [&] {
        build_design(false);
        auto span = ctx.tracer.span("flow.campaign");  // warm-up launch
        campaign(ctx.seed, kRuns).run();
    };
    std::vector<double> setup_times = setup_before(ctx, setup);

    std::vector<double> walls[2];  // [traced]
    std::vector<double> run_rates, event_rates, point_rates, campaign_events;
    std::optional<std::uint64_t> checksum;
    events = injected = runs = 0;
    measure(ctx, [&](bool traced) {
        const std::uint64_t events_before = events;
        std::optional<flow::CampaignSummary> summary;
        const auto start = Clock::now();
        {
            auto span = ctx.tracer.span("flow.campaign");
            const auto launched = Clock::now();
            if (traced) {
                ++generation;
                run_worker_s = 0.0;
            }
            summary.emplace(campaign(ctx.seed, kRuns, traced).run());
            if (traced) {
                Clock::time_point at = launched;
                add_pooled(ctx, "asim.pooled_runs", run_worker_s,
                           static_cast<double>(ctx.nproc), at,
                           ctx.tracer.current());
            }
        }
        const double wall = seconds_between(start, Clock::now());
        walls[traced].push_back(wall);
        const double campaign_ev = static_cast<double>(events - events_before);
        campaign_events.push_back(campaign_ev);
        ctx.tally.attempt("Campaign::run", [&]() -> std::string {
            const std::size_t expected =
                voltages.size() * scales.size() * kRuns;
            if (summary->runs_total != expected) {
                return "ran " + std::to_string(summary->runs_total) + " runs";
            }
            for (const flow::CampaignAggregate& row : summary->rows) {
                if (row.point.fault_scale == 0.0 &&
                    row.point.voltage >= kNominal && row.survival != 1.0) {
                    return "fault-free nominal survival " +
                           std::to_string(row.survival) + " at " +
                           row.point.label;
                }
            }
            if (!checksum) checksum = summary->checksum;
            if (summary->checksum != *checksum) {
                return "checksum differs between repeats of one seed";
            }
            return "";
        });
        if (!traced) {
            run_rates.push_back(
                rate(static_cast<double>(summary->runs_total), wall));
            event_rates.push_back(rate(campaign_ev, wall));
            point_rates.push_back(
                rate(static_cast<double>(summary->rows.size()), wall));
            return;
        }

        // One grid point (fault scale 1 at 0.9 V) again, layer by layer
        // the way a campaign worker runs it: design, calibration at the
        // nominal supply, then seeded runs under spliced glitches.
        constexpr std::size_t kProbeRuns = 16;
        constexpr double kProbeVoltage = 0.9;
        const auto design = build_design(true);
        const dfs::NodeId out = design->pipeline().out;
        asim::RunLimits limits;
        limits.target_marks = kItems;
        limits.observe = out;
        limits.max_events = kItems * design->graph().node_count() * 64;
        double nominal_s = 0.0;
        {
            auto span = ctx.tracer.span("asim.run", true);
            asim::TimedSimulator sim = design->timed_sim();
            sim.set_seed(ctx.seed);
            dfs::State s = dfs::State::initial(design->graph());
            nominal_s = sim.run(s, limits).time_s;
        }
        const tech::VoltageModel model(design->options().process);
        limits.max_time_s = 8.0 * nominal_s / model.speed_factor(kProbeVoltage);
        for (std::size_t r = 0; r < kProbeRuns; ++r) {
            auto span = ctx.tracer.span("asim.run", true);
            const std::uint64_t seed = util::stream_seed(ctx.seed, r);
            const asim::GlitchedSchedule glitched = asim::splice_glitches(
                tech::VoltageSchedule::constant(kProbeVoltage), faults.glitch,
                seed, limits.max_time_s);
            asim::TimedSimulator sim = design->timed_sim(glitched.schedule);
            sim.set_seed(seed);
            sim.set_faults(faults);
            dfs::State s = dfs::State::initial(design->graph());
            sim.run(s, limits);
        }
    });

    // A second master seed must realise a different campaign.
    ctx.tally.attempt("Campaign::run second seed", [&]() -> std::string {
        const flow::CampaignSummary other = campaign(ctx.seed + 1, kRuns).run();
        if (checksum && other.checksum == *checksum) {
            return "different seed, same checksum";
        }
        return "";
    });

    const double wall_p50 = median(walls[0]);
    const Tail wall_tail = tail(walls[0]);
    const double per_campaign_events = median(campaign_events);
    std::printf("campaign wall p50 %.4f (n=%zu), tail %.4f at p%d; runs/s "
                "%.0f; checksum %016llx\n",
                wall_p50, walls[0].size(), wall_tail.value,
                wall_tail.percentile, median(run_rates),
                static_cast<unsigned long long>(checksum.value_or(0)));
    auto& e = f.end_to_end;
    e["verify_s"] = wall_p50;
    e["states_per_s"] = median(event_rates);
    e["bytes_per_state"] =
        per_campaign_events > 0.0
            ? peak_rss_mb() * 1024.0 * 1024.0 / per_campaign_events
            : 0.0;
    e["reconfig_cycle_p50_s"] = wall_p50;
    e["reconfig_cycle_tail_s"] = wall_tail.value;
    e["rows_per_s"] = median(point_rates);
    e["runs_per_s"] = median(run_rates);
    e["sim_events_per_s"] = median(event_rates);

    if (ctx.trace) {
        auto& l = f.per_layer;
        l["ope.build_s"] = span_median(ctx, "ope.build");
        l["dfs.dynamics_s"] = span_median(ctx, "dfs.dynamics");
        l["netlist.map_s"] = span_median(ctx, "netlist.map");
        l["netlist.timing_s"] = span_median(ctx, "netlist.timing");
        l["asim.run_s"] = span_median(ctx, "asim.run");
        if (runs > 0) {
            l["asim.events_per_run"] = static_cast<double>(events) / runs;
            l["asim.faults_per_run"] = static_cast<double>(injected) / runs;
        }
        add_trace_figures(ctx, wall_p50, median(walls[1]), f);
    }
    setup_after(ctx, setup, std::move(setup_times), f);
    return f;
}

}  // namespace rapbench
