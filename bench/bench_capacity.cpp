// Capacity-tier harness: bytes/state of the marking store under the
// legacy (hash + dense-id index) and compact (id-less, arena
// back-reference) interning layouts, on the fixtures the capacity story
// rests on — the reconfigurable OPE model on 1 thread and on 4,
// plus the deep token ring. The byte counts come from the engines' own
// StoreStats (table + arena geometry), so they are deterministic and
// machine-independent: bench/compare.py --capacity gates an aggregate
// compact/legacy ratio ceiling and per-row bytes/state ceilings on them.
//
// --json PATH   machine-readable summary for the compare.py gate
// --stages N    OPE fixture size (default 3 = s3/d3 tier-1 scale;
//               the nightly soak passes 4 = the 19M-state s4/d4 pin,
//               1-thread rows only, to keep the runtime bounded)
//
// Exit is non-zero if the two layouts disagree on (states, edges) for
// any fixture — the harness doubles as a differential smoke.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

struct Row {
    std::string name;
    std::size_t states = 0;
    std::size_t edges = 0;
    std::size_t legacy_bytes = 0;   ///< table + arena, legacy layout
    std::size_t compact_bytes = 0;  ///< table + arena, compact layout
    double seconds[2] = {0.0, 0.0};
    bool ok = true;

    double bytes_per_state(bool compact) const {
        return static_cast<double>(compact ? compact_bytes : legacy_bytes) /
               static_cast<double>(states);
    }
    double ratio() const {
        return static_cast<double>(compact_bytes) /
               static_cast<double>(legacy_bytes);
    }
};

std::size_t store_bytes(const petri::MemoryStats& memory) {
    return memory.store.table_bytes + memory.store.arena_bytes;
}

/// One fixture under both layouts at `threads` workers.
Row measure(const std::string& name, const petri::CompiledNet& compiled,
            std::size_t threads, std::size_t max_states) {
    Row row;
    row.name = name;
    for (const bool compact : {false, true}) {
        petri::ReachabilityOptions options;
        options.max_states = max_states;
        options.compact_store = compact;
        options.stop_at_first_match = false;
        petri::ReachabilityResult result;
        options.threads = threads;
        bench::Stopwatch watch;
        petri::ParallelReachabilityExplorer explorer(compiled, options);
        result = explorer.explore_all();
        row.seconds[compact ? 1 : 0] = watch.elapsed_s();
        (compact ? row.compact_bytes : row.legacy_bytes) =
            store_bytes(result.memory);
        if (compact) {
            row.ok = result.states_explored == row.states &&
                     result.edges_explored == row.edges;
        } else {
            row.states = result.states_explored;
            row.edges = result.edges_explored;
        }
        if (result.truncated) row.ok = false;
    }
    return row;
}

/// Deep token ring (24 registers, 3 tokens): ~269k states of a narrow
/// marking — the small-record end of the capacity spectrum, where table
/// overhead dominates and the compact layout helps most.
petri::Net deep_ring_net() {
    dfs::Graph g("deepring");
    std::vector<dfs::NodeId> regs;
    const int n = 24;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i), i % 8 == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return dfs::to_petri(g).net;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = nullptr;
    int stages = 3;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
        if (std::strcmp(argv[i], "--stages") == 0) {
            stages = std::atoi(argv[i + 1]);
        }
    }
    bench::Stopwatch watch;
    bench::print_header(
        "marking-store capacity tier",
        "bytes/state, legacy vs compact interning layout");

    const bool soak_pin = stages >= 4;
    const std::size_t cap = soak_pin ? 25'000'000 : 2'000'000;
    const auto p = ope::build_reconfigurable_ope_dfs(stages, stages);
    const auto tr = dfs::to_petri(p.graph);
    const petri::CompiledNet compiled(tr.net);
    char ope_label[32];
    std::snprintf(ope_label, sizeof(ope_label), "ope_s%d_d%d", stages,
                  stages);

    std::vector<Row> rows;
    rows.push_back(measure(std::string(ope_label) + "/seq", compiled, 1, cap));
    if (!soak_pin) {
        // Tier-1 scale: add the narrow-marking ring and the 4-worker
        // layout (four per-worker record arenas instead of one). The
        // soak pin skips these — two extra 19M-state explorations buy
        // no new gate.
        const petri::Net ring = deep_ring_net();
        const petri::CompiledNet ring_compiled(ring);
        rows.push_back(measure("deepring/seq", ring_compiled, 1, cap));
        rows.push_back(
            measure(std::string(ope_label) + "/par4", compiled, 4, cap));
    }

    bool ok = true;
    std::size_t legacy_total = 0;
    std::size_t compact_total = 0;
    util::Table table({"fixture", "states", "legacy B/state",
                       "compact B/state", "compact/legacy"});
    for (const Row& row : rows) {
        legacy_total += row.legacy_bytes;
        compact_total += row.compact_bytes;
        table.add_row({row.name, std::to_string(row.states),
                       util::Table::num(row.bytes_per_state(false), 1),
                       util::Table::num(row.bytes_per_state(true), 1),
                       util::Table::num(row.ratio(), 3)});
        if (!row.ok) {
            std::printf("LAYOUT MISMATCH on %s: the compact pass "
                        "disagreed on (states, edges) or truncated\n",
                        row.name.c_str());
            ok = false;
        }
    }
    const double aggregate =
        static_cast<double>(compact_total) /
        static_cast<double>(legacy_total);
    std::printf("%s\naggregate compact/legacy store bytes: %.3f "
                "(gate: <= 0.80 via compare.py --capacity)\n\n",
                table.to_ascii().c_str(), aggregate);

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(f, "{\n  \"rows\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row& row = rows[i];
                std::fprintf(
                    f,
                    "    {\"name\": \"%s\", \"states\": %zu, "
                    "\"edges\": %zu, "
                    "\"legacy_bytes_per_state\": %.3f, "
                    "\"compact_bytes_per_state\": %.3f, "
                    "\"ratio\": %.4f}%s\n",
                    row.name.c_str(), row.states, row.edges,
                    row.bytes_per_state(false), row.bytes_per_state(true),
                    row.ratio(), i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f,
                         "  ],\n"
                         "  \"aggregate_ratio\": %.4f,\n"
                         "  \"ok\": %s\n"
                         "}\n",
                         aggregate, ok ? "true" : "false");
            std::fclose(f);
        } else {
            std::printf("cannot write %s\n", json_path);
            ok = false;
        }
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
