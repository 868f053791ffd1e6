// Design-space sweep throughput: the flow::Sweep batch driver over the
// real reconfigurable OPE pipeline (stages x depth x voltage schedule),
// measuring dedup-before-compile (distinct models vs grid points, cache
// hit rate out of the artifact cache), aggregate verification
// throughput and the worker-pool scaling of grid-level parallelism —
// the service shape the verification flow runs at in production.
//
// Each exploration is capped (max_states) so the harness finishes in
// seconds while still visiting the 191k-state 3-stage models; rows past
// the cap report truncated findings, which is fine for a throughput
// measurement. --json PATH writes the machine-readable summary
// bench/compare.py prints advisorily (never gated: dedup ratio and hit
// rate are workload facts, not regressions).
//
// Exit is non-zero if the sweep misbehaves: a failed row, a dedup miss
// (artifact builds != distinct models) or a zero cache hit rate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "flow/metrics.hpp"
#include "flow/sweep.hpp"
#include "tech/voltage.hpp"
#include "util/table.hpp"
#include "verify/artifacts.hpp"
#include "verify/cache.hpp"

namespace {

using namespace rap;

std::vector<tech::VoltageSchedule> schedules(double v_nominal) {
    tech::VoltageSchedule droop;
    droop.add_segment(2e-6, v_nominal);
    droop.add_segment(1e-6, v_nominal * 0.75);
    droop.add_segment(1e-6, v_nominal);
    return {tech::VoltageSchedule::constant(v_nominal), droop};
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    }
    bench::Stopwatch watch;
    bench::print_header(
        "design-space sweep service",
        "flow::Sweep over the reconfigurable OPE: dedup, cache, workers");

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u\n\n", hw ? hw : 1);

    bool ok = true;

    // Grid: stages {3,4,5} x depth 3..5 x 2 schedules = 18 points.
    // Valid (stages, depth) pairs: s3:d3, s4:d3-4, s5:d3-5 -> 6 distinct
    // models; the schedule axis doubles the rows, the invalid combos
    // (depth > stages) exercise the kInvalid path. Explorations capped
    // at 60k states so the big models stay cheap.
    flow::DesignOptions base;
    base.verify.max_states = 60'000;
    const std::vector<int> stage_axis{3, 4, 5};

    double sweep_seconds = 0.0;
    double states_per_second = 0.0;
    double dedup_ratio = 0.0;
    double cache_hit_rate = 0.0;
    std::size_t grid_points = 0;
    std::size_t distinct = 0;

    const std::size_t builds_before = verify::artifact_builds();
    {
        bench::Stopwatch sweep_watch;
        flow::Sweep::Handle handle = flow::Sweep::ope(base)
                                         .stages(stage_axis)
                                         .depths(3, 5)
                                         .schedules(schedules(1.2))
                                         .workers(hw ? hw : 1)
                                         .launch();
        const std::vector<flow::SweepResult> rows = handle.wait();
        sweep_seconds = sweep_watch.elapsed_s();
        grid_points = rows.size();
        distinct = handle.distinct_models();
        const std::size_t builds =
            verify::artifact_builds() - builds_before;

        util::Table table({"config", "status", "states", "verify [ms]",
                           "finish(1s work)"});
        std::size_t states_total = 0;
        double verify_total_s = 0.0;
        for (const flow::SweepResult& row : rows) {
            states_total += row.states;
            verify_total_s += row.verify_seconds;
            if (row.status != flow::SweepStatus::kOk &&
                row.status != flow::SweepStatus::kInvalid) {
                std::printf("UNEXPECTED STATUS for %s: %s\n",
                            row.point.label.c_str(),
                            std::string(to_string(row.status)).c_str());
                ok = false;
            }
            table.add_row(
                {row.point.label, std::string(to_string(row.status)),
                 std::to_string(row.states),
                 util::Table::num(row.verify_seconds * 1e3, 1),
                 row.status == flow::SweepStatus::kOk
                     ? util::Table::num(row.schedule_finish_s * 1e6, 2) +
                           " us"
                     : "-"});
        }
        std::printf("%s\n", table.to_ascii().c_str());

        const flow::Metrics metrics = handle.metrics();
        cache_hit_rate = metrics.value("rap_cache_hit_rate");
        dedup_ratio = distinct > 0
                          ? static_cast<double>(grid_points) /
                                static_cast<double>(distinct)
                          : 0.0;
        states_per_second =
            verify_total_s > 0.0
                ? static_cast<double>(states_total) / verify_total_s
                : 0.0;

        std::printf("grid points:        %zu\n", grid_points);
        std::printf("distinct models:    %zu\n", distinct);
        std::printf("artifact builds:    %zu\n", builds);
        std::printf("dedup ratio:        %.2fx\n", dedup_ratio);
        std::printf("cache hit rate:     %.1f%%\n",
                    100.0 * cache_hit_rate);
        std::printf("states verified:    %zu (%.0f states/s aggregate)\n",
                    states_total, states_per_second);
        std::printf("sweep wall time:    %.2f s\n\n", sweep_seconds);

        if (builds != distinct) {
            std::printf("DEDUP MISS: %zu builds for %zu distinct models\n",
                        builds, distinct);
            ok = false;
        }
        if (cache_hit_rate <= 0.0) {
            std::printf("NO CACHE HITS across %zu grid points\n",
                        grid_points);
            ok = false;
        }

        std::printf("metrics exposition (scrape surface):\n%s\n",
                    flow::metrics::to_prometheus(metrics).c_str());
    }

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(f,
                         "{\n"
                         "  \"hardware_threads\": %u,\n"
                         "  \"grid_points\": %zu,\n"
                         "  \"distinct_models\": %zu,\n"
                         "  \"dedup_ratio\": %.3f,\n"
                         "  \"cache_hit_rate\": %.3f,\n"
                         "  \"states_per_second\": %.1f,\n"
                         "  \"sweep_seconds\": %.3f,\n"
                         "  \"ok\": %s\n"
                         "}\n",
                         hw ? hw : 1, grid_points, distinct, dedup_ratio,
                         cache_hit_rate, states_per_second, sweep_seconds,
                         ok ? "true" : "false");
            std::fclose(f);
        } else {
            std::printf("cannot write %s\n", json_path);
            ok = false;
        }
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
