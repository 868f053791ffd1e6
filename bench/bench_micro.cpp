// Micro-benchmarks (google-benchmark) for the engines every experiment
// rests on: Petri-net firing, DFS event evaluation, the timed simulator,
// the OPE encoders and the reachability explorer. These quantify the
// "EDA tool" cost side of the reproduction.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "chip/lfsr.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "ope/encoder.hpp"
#include "perf/cycles.hpp"
#include "petri/reachability.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace rap;

dfs::Graph fig1b() {
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

void BM_DfsRandomStep(benchmark::State& state) {
    const dfs::Graph g = fig1b();
    const dfs::Dynamics dyn(g);
    dfs::Simulator sim(dyn, 1);
    dfs::State s = dfs::State::initial(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.run(s, 1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsRandomStep);

void BM_PetriFire(benchmark::State& state) {
    const dfs::Graph g = fig1b();
    const auto tr = dfs::to_petri(g);
    petri::Marking m = tr.net.initial_marking();
    for (auto _ : state) {
        const auto enabled = tr.net.enabled_transitions(m);
        if (enabled.empty()) {
            m = tr.net.initial_marking();
            continue;
        }
        tr.net.fire(m, enabled.front());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PetriFire);

void BM_CompiledFire(benchmark::State& state) {
    // The compiled counterpart of BM_PetriFire: word-masked enable scan
    // plus in-place masked firing, no per-step allocation.
    const dfs::Graph g = fig1b();
    const auto tr = dfs::to_petri(g);
    const petri::CompiledNet compiled(tr.net);
    const petri::Marking m0 = tr.net.initial_marking();
    petri::Marking m = m0;
    std::vector<std::uint64_t> enabled(compiled.enabled_words());
    for (auto _ : state) {
        compiled.enabled_set(m.word_data(), enabled.data());
        std::uint32_t first = UINT32_MAX;
        for (std::size_t w = 0; w < enabled.size(); ++w) {
            if (enabled[w] != 0) {
                first = static_cast<std::uint32_t>(
                    w * 64 +
                    static_cast<std::size_t>(std::countr_zero(enabled[w])));
                break;
            }
        }
        if (first == UINT32_MAX) {
            m = m0;
            continue;
        }
        compiled.fire(m.word_data(), petri::TransitionId{first});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledFire);

void BM_Translation(benchmark::State& state) {
    const int stages = static_cast<int>(state.range(0));
    const auto p = ope::build_reconfigurable_ope_dfs(stages, stages);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dfs::to_petri(p.graph));
    }
}
BENCHMARK(BM_Translation)->Arg(3)->Arg(9)->Arg(18);

void BM_ReachabilityFig1b(benchmark::State& state) {
    const dfs::Graph g = fig1b();
    const auto tr = dfs::to_petri(g);
    petri::ReachabilityOptions one;
    one.threads = 1;
    for (auto _ : state) {
        petri::ParallelReachabilityExplorer explorer(tr.net, one);
        benchmark::DoNotOptimize(explorer.count_states());
    }
}
BENCHMARK(BM_ReachabilityFig1b);

void BM_VerifyDeadlockOpe(benchmark::State& state) {
    const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    for (auto _ : state) {
        const verify::Verifier verifier(p.graph);
        benchmark::DoNotOptimize(verifier.check_deadlock());
    }
}
BENCHMARK(BM_VerifyDeadlockOpe)->Unit(benchmark::kMillisecond);

void BM_ReachabilityOpeStates(benchmark::State& state) {
    // Full state-space sweep of the 3-stage reconfigurable OPE (~191k
    // states): the regression-gated states/second figure of the engine
    // on one thread.
    const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    const auto tr = dfs::to_petri(p.graph);
    petri::ReachabilityOptions one;
    one.threads = 1;
    std::size_t states = 0;
    for (auto _ : state) {
        petri::ParallelReachabilityExplorer explorer(tr.net, one);
        states = explorer.count_states();
        benchmark::DoNotOptimize(states);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(states));
}
BENCHMARK(BM_ReachabilityOpeStates)->Unit(benchmark::kMillisecond);

void BM_VerifyAllSinglePass(benchmark::State& state) {
    // Deadlock + control-conflict + persistence in ONE exploration.
    const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    for (auto _ : state) {
        const verify::Verifier verifier(p.graph);
        benchmark::DoNotOptimize(verifier.verify_all());
    }
}
BENCHMARK(BM_VerifyAllSinglePass)->Unit(benchmark::kMillisecond);

void BM_CycleAnalysis(benchmark::State& state) {
    const int stages = static_cast<int>(state.range(0));
    const auto p = ope::build_reconfigurable_ope_dfs(stages, stages);
    for (auto _ : state) {
        benchmark::DoNotOptimize(perf::analyse_cycles(p.graph));
    }
}
BENCHMARK(BM_CycleAnalysis)->Arg(4)->Arg(6);

void BM_OpeEncoderPush(benchmark::State& state) {
    const int window = static_cast<int>(state.range(0));
    ope::PipelineEncoder encoder(window);
    chip::Lfsr lfsr(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(encoder.push(lfsr.next()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpeEncoderPush)->Arg(6)->Arg(18);

void BM_ReferenceEncoderPush(benchmark::State& state) {
    const int window = static_cast<int>(state.range(0));
    ope::ReferenceEncoder encoder(window);
    chip::Lfsr lfsr(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(encoder.push(lfsr.next()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceEncoderPush)->Arg(6)->Arg(18);

}  // namespace

BENCHMARK_MAIN();
