// rapbench: runs one workload of the rap benchmark and prints its
// figures. perfbench/run.py builds this binary and passes its arguments
// through:
//
//   rapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--source-digest <hex>] [--out <path-stem>]
//
// With --out, the result (with its meta) is also written to
// <path-stem>.json, and a traced run's spans to <path-stem>.spans.jsonl.
// Human-readable lines come first; the last stdout line is the result
// object. The exit code is 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace rapbench {

namespace {

struct Catalog {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr Catalog kEndToEnd[] = {
    {"setup_s", "s"},
    {"verify_s", "s"},
    {"states_per_s", "1/s"},
    {"bytes_per_state", "B"},
    {"peak_rss_mb", "MB"},
    {"reconfig_cycle_p50_s", "s"},
    {"reconfig_cycle_tail_s", "s"},
    {"rows_per_s", "1/s"},
    {"runs_per_s", "1/s"},
    {"sim_events_per_s", "1/s"},
};

constexpr Catalog kPerLayer[] = {
    {"ope.build_s", "s"},
    {"pipeline.reconfigure_s", "s"},
    {"dfs.dynamics_s", "s"},
    {"dfs.translate_s", "s"},
    {"petri.compile_s", "s"},
    {"petri.explore_s", "s"},
    {"petri.explore_1t_s", "s"},
    {"petri.scaling", "ratio"},
    {"petri.states", "count"},
    {"petri.edges", "count"},
    {"petri.peak_bytes", "B"},
    {"petri.resident_bytes", "B"},
    {"petri.store.load_factor", "ratio"},
    {"petri.store.table_bytes", "B"},
    {"petri.store.arena_bytes", "B"},
    {"petri.por.work_ratio", "ratio"},
    {"petri.por.reduced_share", "ratio"},
    {"petri.por.proviso_share", "ratio"},
    {"petri.reuse.fallbacks", "count"},
    {"petri.reuse.intern_ratio", "ratio"},
    {"verify.verify_s", "s"},
    {"verify.self_s", "s"},
    {"verify.violated_pass_s", "s"},
    {"verify.witness_len", "count"},
    {"verify.cache.hit_rate", "ratio"},
    {"verify.artifact_builds", "count"},
    {"flow.sweep.row_p50_s", "s"},
    {"flow.sweep.row_tail_s", "s"},
    {"flow.sweep.busy_share", "ratio"},
    {"flow.sweep.straggler_s", "s"},
    {"asim.run_s", "s"},
    {"asim.events_per_run", "count"},
    {"asim.faults_per_run", "count"},
    {"netlist.map_s", "s"},
    {"netlist.timing_s", "s"},
    {"self.ope_s", "s"},
    {"self.pipeline_s", "s"},
    {"self.dfs_s", "s"},
    {"self.petri_s", "s"},
    {"self.verify_s", "s"},
    {"self.flow_s", "s"},
    {"self.asim_s", "s"},
    {"self.netlist_s", "s"},
    {"trace.overhead_s", "s"},
};

const std::map<std::string, std::function<Figures(Context&)>> kWorkloads = {
    {"verify_ope4", run_verify_ope4},
    {"reconfig_session", run_reconfig_session},
    {"design_sweep", run_design_sweep},
    {"fault_campaign", run_fault_campaign},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "rapbench: %s\nusage: rapbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] "
                 "[--source-digest <hex>] [--out <path-stem>]\nworkloads:",
                 why);
    for (const auto& [name, run] : kWorkloads) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace
}  // namespace rapbench

int main(int argc, char** argv) {
    using namespace rapbench;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
            return usage("arguments come as --name value pairs");
        }
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char* required : {"workload", "seed", "seconds", "trace"}) {
        if (!args.count(required)) {
            return usage((std::string("missing --") + required).c_str());
        }
    }
    const auto workload = kWorkloads.find(args["workload"]);
    if (workload == kWorkloads.end()) return usage("unknown workload");
    if (std::string(RAPBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "rapbench: refusing to measure a '%s' build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     RAPBENCH_BUILD_TYPE);
        return 2;
    }

    Context ctx;
    ctx.workload = workload->first;
    char* end = nullptr;
    ctx.seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0') return usage("--seed takes a whole number");
    ctx.seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(ctx.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
    }
    if (args["trace"] != "0" && args["trace"] != "1") {
        return usage("--trace takes 0 or 1");
    }
    ctx.trace = args["trace"] == "1";
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    ctx.tracer = Tracer(ctx.workload);

    const std::string meta =
        "{\"workload\": " + json_string(ctx.workload) +
        ", \"seed\": " + std::to_string(ctx.seed) +
        ", \"seconds\": " + json_number(ctx.seconds) +
        ", \"trace\": " + (ctx.trace ? "true" : "false") +
        ", \"nproc\": " + std::to_string(ctx.nproc) +
        ", \"compiler\": " + json_string(__VERSION__) +
        ", \"build_type\": " + json_string(RAPBENCH_BUILD_TYPE) +
        ", \"commit\": " + json_string(args["commit"]) +
        ", \"source_digest\": " + json_string(args["source-digest"]) + "}";
    std::printf("meta %s\n", meta.c_str());

    Figures figures;
    const CpuTicks ticks_before = cpu_ticks();
    ctx.tally.attempt("workload " + ctx.workload, [&]() -> std::string {
        figures = workload->second(ctx);
        return "";
    });
    // Not a metric: how much of the machine a hypervisor took away while
    // the workload ran, the usual cause of a slow run on a shared host.
    const double steal = steal_share(ticks_before, cpu_ticks());
    std::printf("steal_share %.4f\n", steal);
    // The workload records its peak before its last set-up repetitions.
    figures.end_to_end.emplace("peak_rss_mb", peak_rss_mb());

    std::vector<Metric> end_to_end, per_layer;
    for (const Catalog& m : kEndToEnd) {
        const auto found = figures.end_to_end.find(m.name);
        const double value =
            found == figures.end_to_end.end() ? 0.0 : found->second;
        if (!std::isfinite(value) || value <= 0.0) {
            ctx.tally.record(m.name, "not measured");
        }
        end_to_end.push_back({m.name, std::isfinite(value) ? value : 0.0,
                              m.unit});
    }
    for (const Catalog& m : kPerLayer) {
        const auto found = figures.per_layer.find(m.name);
        const double value =
            found == figures.per_layer.end() ? 0.0 : found->second;
        if (!std::isfinite(value)) ctx.tally.record(m.name, "not finite");
        per_layer.push_back({m.name, std::isfinite(value) ? value : 0.0,
                             m.unit});
    }

    std::printf("%s end-to-end%s:\n", ctx.workload.c_str(),
                ctx.trace ? " (traced run: not the reported figures)" : "");
    for (const Metric& m : end_to_end) {
        std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    if (ctx.trace) {
        std::printf("%s per layer:\n", ctx.workload.c_str());
        for (const Metric& m : per_layer) {
            std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    std::printf("failed_frac %.6g (%zu of %zu operations)\n",
                ctx.tally.failed_frac(), ctx.tally.failed(),
                ctx.tally.attempted());
    for (const std::string& failure : ctx.tally.failures()) {
        std::printf("FAILED %s\n", failure.c_str());
    }

    const bool correct = ctx.tally.failed() == 0;
    const std::vector<Metric>& reported = ctx.trace ? per_layer : end_to_end;
    const std::string line = result_line(correct, ctx.tally.attempted(),
                                         ctx.tally.failed(), reported);
    if (args.count("out")) {
        const std::string& stem = args["out"];
        std::ofstream(stem + ".json")
            << "{\"meta\": " << meta << ", \"failed_frac\": "
            << json_number(ctx.tally.failed_frac())
            << ", \"steal_share\": " << json_number(steal)
            << ", \"result\": " << line << "}\n";
        if (ctx.trace) {
            std::ofstream(stem + ".spans.jsonl") << ctx.tracer.to_jsonl();
        }
    }
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
