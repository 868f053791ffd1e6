// Capacity-tier harness: bytes/state of the marking store (id-indexed
// record blocks + dedup table) on the fixtures the capacity story rests
// on — the reconfigurable OPE model on 1 thread and on 4, plus the deep
// token ring. The byte counts come from the engine's own StoreStats
// (table + record-block geometry), so they are deterministic and
// machine-independent: bench/compare.py --capacity gates per-row
// bytes/state ceilings on them.
//
// --json PATH   machine-readable summary for the compare.py gate
// --stages N    OPE fixture size (default 3 = s3/d3 tier-1 scale;
//               the nightly soak passes 4 = the 19M-state s4/d4 pin,
//               1-thread rows only, to keep the runtime bounded)
//
// Exit is non-zero if any fixture truncates or if the 4-thread OPE row
// disagrees with the 1-thread row on (states, edges) — the harness
// doubles as a cross-thread-count differential smoke.

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
    std::size_t bytes = 0;  ///< table + record blocks
    bool truncated = false;

    double bytes_per_state() const {
        return static_cast<double>(bytes) / static_cast<double>(states);
    }
};

/// One exhaustive pass over `compiled` at `threads` workers.
Row measure(const std::string& name, const petri::CompiledNet& compiled,
            std::size_t threads, std::size_t max_states) {
    petri::ReachabilityOptions options;
    options.max_states = max_states;
    options.stop_at_first_match = false;
    options.threads = threads;
    petri::ParallelReachabilityExplorer explorer(compiled, options);
    const petri::ReachabilityResult result = explorer.explore_all();
    Row row;
    row.name = name;
    row.states = result.states_explored;
    row.edges = result.edges_explored;
    row.bytes = result.memory.store.table_bytes +
                result.memory.store.arena_bytes;
    row.truncated = result.truncated;
    return row;
}

/// Deep token ring (24 registers, 3 tokens): ~269k states of a narrow
/// marking — the small-record end of the capacity spectrum, where table
/// overhead dominates.
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
    bench::print_header("marking-store capacity tier",
                        "bytes/state of the id-indexed interning store");

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
    bool ok = true;
    if (!soak_pin) {
        // Tier-1 scale: add the narrow-marking ring and the 4-worker
        // pass, which must reach exactly the 1-worker graph. The soak pin
        // skips these — two extra 19M-state explorations buy no new gate.
        const petri::Net ring = deep_ring_net();
        const petri::CompiledNet ring_compiled(ring);
        rows.push_back(measure("deepring/seq", ring_compiled, 1, cap));
        rows.push_back(
            measure(std::string(ope_label) + "/par4", compiled, 4, cap));
        if (rows[2].states != rows[0].states ||
            rows[2].edges != rows[0].edges) {
            std::printf("THREAD-COUNT MISMATCH: %s reached (%zu, %zu), "
                        "%s reached (%zu, %zu)\n",
                        rows[2].name.c_str(), rows[2].states, rows[2].edges,
                        rows[0].name.c_str(), rows[0].states, rows[0].edges);
            ok = false;
        }
    }

    util::Table table({"fixture", "states", "edges", "B/state"});
    for (const Row& row : rows) {
        table.add_row({row.name, std::to_string(row.states),
                       std::to_string(row.edges),
                       util::Table::num(row.bytes_per_state(), 1)});
        if (row.truncated) {
            std::printf("TRUNCATED: %s hit the %zu-state cap\n",
                        row.name.c_str(), cap);
            ok = false;
        }
    }
    std::printf("%s\n", table.to_ascii().c_str());

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(f, "{\n  \"rows\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row& row = rows[i];
                std::fprintf(f,
                             "    {\"name\": \"%s\", \"states\": %zu, "
                             "\"edges\": %zu, "
                             "\"bytes_per_state\": %.3f}%s\n",
                             row.name.c_str(), row.states, row.edges,
                             row.bytes_per_state(),
                             i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f, "  ],\n  \"ok\": %s\n}\n",
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
