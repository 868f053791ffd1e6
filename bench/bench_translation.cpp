// E3 — Fig. 4: the Petri-net semantics of the Fig. 1b DFS model. Reports
// the translated net's size, the signature non-deterministic choice
// (Mt_ctrl+ / Mf_ctrl+ simultaneously enabled), the reachable state
// space, and the DFS<->PN state-count agreement that backs the semantics.

#include <cstdio>
#include <deque>
#include <unordered_set>

#include "bench_util.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

dfs::Graph make_fig1b() {
    dfs::Graph g("fig1b");
    const auto in = g.add_register("in");
    const auto cond = g.add_logic("cond");
    const auto ctrl = g.add_control("ctrl", false, dfs::TokenValue::True);
    const auto filt = g.add_push("filt");
    const auto comp = g.add_register("comp");
    const auto out = g.add_pop("out");
    g.connect(in, cond);
    g.connect(cond, ctrl);
    g.connect(in, filt);
    g.connect(ctrl, filt);
    g.connect(filt, comp);
    g.connect(comp, out);
    g.connect(ctrl, out);
    return g;
}

std::size_t dfs_states(const dfs::Dynamics& dyn) {
    std::unordered_set<dfs::State, dfs::StateHash> seen;
    std::deque<dfs::State> frontier;
    const auto s0 = dfs::State::initial(dyn.graph());
    seen.insert(s0);
    frontier.push_back(s0);
    while (!frontier.empty()) {
        const auto s = frontier.front();
        frontier.pop_front();
        for (const auto& e : dyn.enabled_events(s)) {
            auto next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    return seen.size();
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header("E3 / Fig. 4",
                        "Petri-net translation of the Fig. 1b DFS model");

    const dfs::Graph g = make_fig1b();
    const dfs::Translation tr = dfs::to_petri(g);

    util::Table size({"metric", "value"});
    size.add_row({"DFS nodes", std::to_string(g.node_count())});
    size.add_row({"DFS edges", std::to_string(g.edge_count())});
    size.add_row({"PN places", std::to_string(tr.net.place_count())});
    size.add_row({"PN transitions",
                  std::to_string(tr.net.transition_count())});
    size.add_row({"PN arcs (incl. read arcs)",
                  std::to_string(tr.net.arc_count())});
    std::printf("%s\n", size.to_ascii().c_str());

    // The Fig. 4 observation: after M_in+ and C_cond+, the control
    // register's True/False markings are simultaneously enabled.
    const dfs::Dynamics dyn(g);
    dfs::State s = dfs::State::initial(g);
    dyn.apply(s, {*g.find("in"), dfs::EventKind::Mark});
    dyn.apply(s, {*g.find("cond"), dfs::EventKind::LogicEvaluate});
    const auto marking = tr.encode(g, s);
    const bool mt = tr.net.is_enabled(marking,
                                      *tr.net.find_transition("Mt_ctrl+"));
    const bool mf = tr.net.is_enabled(marking,
                                      *tr.net.find_transition("Mf_ctrl+"));
    std::printf("Mt_ctrl+ and Mf_ctrl+ simultaneously enabled after "
                "M_in+, C_cond+: %s\n",
                (mt && mf) ? "yes (non-deterministic cond outcome)" : "NO");

    // State-space agreement between the direct semantics and the net.
    // The PN side runs on the compiled engine; its net->CompiledNet
    // build cost is reported separately from the exploration itself.
    bench::Stopwatch explore_watch;
    const std::size_t direct = dfs_states(dyn);
    const double t_direct = explore_watch.elapsed_s();
    bench::Stopwatch compile_watch;
    petri::ReachabilityOptions one;
    one.threads = 1;
    petri::ParallelReachabilityExplorer explorer(tr.net, one);
    const double t_compile = compile_watch.elapsed_s();
    bench::Stopwatch pn_watch;
    const std::size_t via_pn = explorer.count_states();
    const double t_pn = pn_watch.elapsed_s();

    util::Table states({"semantics", "reachable states", "time [ms]"});
    states.add_row({"DFS token game", std::to_string(direct),
                    util::Table::num(t_direct * 1e3, 2)});
    states.add_row({"Petri net (compiled engine)", std::to_string(via_pn),
                    util::Table::num(t_pn * 1e3, 2)});
    std::printf("%s\n", states.to_ascii().c_str());
    std::printf("CompiledNet build: %.3f ms (%zu places, %zu transitions"
                ")\n",
                t_compile * 1e3, explorer.compiled().place_count(),
                explorer.compiled().transition_count());
    std::printf("State spaces agree: %s\n",
                direct == via_pn ? "yes" : "NO");
    bench::print_footer(watch);
    return (mt && mf && direct == via_pn) ? 0 : 1;
}
