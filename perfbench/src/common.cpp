// Helpers shared by the workload files.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ope/dfs_models.hpp"
#include "workloads.hpp"

namespace rapbench {

void add_trace_figures(const Context& ctx, double untraced_median_s,
                       double traced_median_s, Figures& figures) {
    const std::vector<std::size_t> ops = ctx.tracer.roots("bench.op");
    std::map<std::string, double> self;
    for (const std::size_t op : ops) {
        for (const auto& [layer, seconds] : ctx.tracer.self_by_layer(op)) {
            self[layer] += seconds / static_cast<double>(ops.size());
        }
    }
    std::printf("self time per traced operation (n=%zu, probes left out):\n",
                ops.size());
    for (const auto& [layer, seconds] : self) {
        std::printf("  %-10s %.6f s\n", layer.c_str(), seconds);
        if (layer != "bench") {
            figures.per_layer["self." + layer + "_s"] = seconds;
        }
    }
    figures.per_layer["trace.overhead_s"] =
        traced_median_s - untraced_median_s;
    std::printf("tracing overhead: traced %.6f s - untraced %.6f s = %+.6f s\n",
                traced_median_s, untraced_median_s,
                traced_median_s - untraced_median_s);
}

double span_median(const Context& ctx, const char* name) {
    return median(ctx.tracer.durations(name));
}

double rate(double count, double seconds) {
    return seconds > 0.0 ? count / seconds : 0.0;
}

double hit_rate(const rap::verify::CacheStats& before,
                const rap::verify::CacheStats& after) {
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    return lookups > 0.0 ? hits / lookups : 0.0;
}

void add_memory_figures(const rap::petri::MemoryStats& memory,
                        Figures& figures) {
    auto& l = figures.per_layer;
    l["petri.peak_bytes"] = static_cast<double>(memory.peak_bytes);
    l["petri.resident_bytes"] = static_cast<double>(memory.resident_bytes);
    l["petri.store.load_factor"] = memory.store.load_factor();
    l["petri.store.table_bytes"] =
        static_cast<double>(memory.store.table_bytes);
    l["petri.store.arena_bytes"] =
        static_cast<double>(memory.store.arena_bytes);
}

void add_por_figures(const rap::petri::PorStats& por, Figures& figures) {
    if (por.expansions == 0 || por.enabled_transitions == 0) return;
    auto& l = figures.per_layer;
    const double expansions = static_cast<double>(por.expansions);
    l["petri.por.work_ratio"] =
        static_cast<double>(por.expanded_transitions) /
        static_cast<double>(por.enabled_transitions);
    l["petri.por.reduced_share"] = por.reduced_expansions / expansions;
    l["petri.por.proviso_share"] = por.proviso_expansions / expansions;
}

std::unique_ptr<rap::flow::Design> new_design(
    Context& ctx, int stages, int depth,
    const rap::flow::DesignOptions& options, bool probe) {
    std::optional<rap::pipeline::Pipeline> model;
    {
        auto span = ctx.tracer.span("ope.build", probe);
        model.emplace(rap::ope::build_reconfigurable_ope_dfs(stages, depth));
    }
    std::unique_ptr<rap::flow::Design> design;
    {
        auto span = ctx.tracer.span("flow.design", probe);
        design = rap::flow::make_design(std::move(*model), options);
    }
    auto span = ctx.tracer.span("dfs.dynamics", probe);
    design->dynamics();
    return design;
}

}  // namespace rapbench
