// Differential harness for the reachability engine: every fixture model
// runs through the ParallelReachabilityExplorer at 1/2/4/8 threads and is
// checked against the sequential std::set BFS oracle (petri_oracle.hpp)
// — states/edges explored, deadlock sets, persistence-violation sets,
// goal verdicts, witness lengths — plus exact equality of whole results
// across thread counts, repeated-run determinism, the truncation
// contract, the concurrent interning table's own invariants, and the
// facade adoption (verify::Verifier / flow::Design behind
// VerifyOptions::threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dfs/model.hpp"
#include "flow/design.hpp"
#include "ope/dfs_models.hpp"
#include "petri/parallel.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri/reuse.hpp"
#include "petri_fixtures.hpp"
#include "pipeline/builder.hpp"
#include "util/rng.hpp"
#include "util/steal_deque.hpp"

namespace rap::petri {
namespace {

using namespace testfx;  // model zoo + differential plumbing

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

MultiResult run_full(const CompiledNet& compiled, const MultiQuery& query,
                     std::size_t threads) {
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.threads = threads;
    return ParallelReachabilityExplorer(compiled, options).run_query(query);
}

std::string at(const std::string& name, std::size_t threads) {
    return name + " @" + std::to_string(threads) + "t";
}

// -------------------------------------------------------- differential --

// One ctest case per zoo fixture, so the oracle BFS of the biggest model
// (the 842k-state wagging stage) cannot push the whole zoo past a slow
// build's per-test timeout.
class ParallelReachabilityZoo : public ::testing::TestWithParam<Fixture> {};

TEST_P(ParallelReachabilityZoo, DifferentialAgainstSequential) {
    // The sequential reference is the std::set BFS oracle: every full
    // pass must match it exactly at every thread count.
    const Fixture& fixture = GetParam();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const oracle::Result reference = oracle_for(fixture.net, bundle.query);
    for (const std::size_t threads : kThreadCounts) {
        expect_matches_oracle(fixture.net, reference,
                              run_full(compiled, bundle.query, threads),
                              at(fixture.name, threads));
    }
}

INSTANTIATE_TEST_SUITE_P(EveryFixture, ParallelReachabilityZoo,
                         ::testing::ValuesIn(all_fixtures()));

TEST(ParallelReachability, RandomizedDifferentialFuzzer) {
    // 24 seeded random models across three topology classes (rings with
    // bridges, fork/join blocks, bridged meshes), each checked against
    // the oracle at 1/2/4/8 threads on every counter and set. On
    // mismatch the context names the seed and topology to replay.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Fixture fixture = fuzz_fixture(seed);
        SCOPED_TRACE("fuzz seed=" + std::to_string(seed) + " model=" +
                     fixture.name);
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);
        const oracle::Result reference = oracle_for(fixture.net, bundle.query);
        for (const std::size_t threads : kThreadCounts) {
            expect_matches_oracle(
                fixture.net, reference,
                run_full(compiled, bundle.query, threads),
                at("fuzz seed=" + std::to_string(seed) + " model=" +
                       fixture.name,
                   threads));
        }
    }
}

TEST(ParallelReachability, NarrowLayersMatchOracle) {
    // The steal-heavy workload: deep rings whose BFS layers stay narrow,
    // where deque scheduling actually redistributes work. Results must
    // match the oracle at every thread count.
    for (const Fixture& fixture :
         {deep_ring_fixture(16, 8), deep_ring_fixture(16, 4)}) {
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);
        const oracle::Result reference = oracle_for(fixture.net, bundle.query);
        for (const std::size_t threads : kThreadCounts) {
            expect_matches_oracle(fixture.net, reference,
                                  run_full(compiled, bundle.query, threads),
                                  at(fixture.name, threads));
        }
    }
}

TEST(ParallelReachability, FinderSurfaceMatchesSequential) {
    // The convenience entry points (find / find_all / find_deadlocks /
    // explore_all / count_states) answer like the oracle, and identically
    // at 4 threads and at 1.
    const Fixture fixture = gap_fixture();
    const Net& net = fixture.net;
    const CompiledNet compiled(net);
    const Predicate dead = Predicate::deadlock();
    const Predicate* goals[] = {&dead};
    const oracle::Result reference = oracle::explore(net, goals);
    ASSERT_TRUE(reference.goal_depth[0].has_value());

    ReachabilityOptions one;
    one.threads = 1;
    ReachabilityOptions four;
    four.threads = 4;
    ParallelReachabilityExplorer seq(compiled, one);
    ParallelReachabilityExplorer par(compiled, four);

    EXPECT_EQ(par.count_states(), reference.states);
    EXPECT_EQ(seq.count_states(), reference.states);
    EXPECT_EQ(par.explore_all().edges_explored, reference.edges);

    const auto seq_dead = seq.find_deadlocks();
    const auto par_dead = par.find_deadlocks();
    EXPECT_EQ(par_dead.states_explored, reference.states);
    EXPECT_EQ(par_dead.deadlocks, reference.deadlocks);
    EXPECT_EQ(seq_dead.deadlocks, par_dead.deadlocks);
    ASSERT_TRUE(par_dead.found());
    EXPECT_EQ(par_dead.witness_trace->firings.size(), *reference.goal_depth[0]);
    EXPECT_EQ(seq_dead.witness_trace->firings, par_dead.witness_trace->firings);

    // Early-stop single-goal search: the pass ends at the resolving
    // layer's boundary at every thread count, so counters and witness
    // agree exactly, not just the verdict.
    const auto seq_hit = seq.find(dead);
    const auto par_hit = par.find(dead);
    ASSERT_TRUE(seq_hit.found());
    ASSERT_TRUE(par_hit.found());
    EXPECT_EQ(par_hit.states_explored, seq_hit.states_explored);
    EXPECT_EQ(par_hit.witness, seq_hit.witness);
    EXPECT_EQ(par_hit.witness_trace->firings, seq_hit.witness_trace->firings);
    EXPECT_EQ(par_hit.witness_trace->firings.size(), *reference.goal_depth[0]);

    const auto found_all = par.find_all(goals);
    ASSERT_EQ(found_all.size(), 1u);
    EXPECT_EQ(found_all[0].witness, par_hit.witness);
}

TEST(ParallelReachability, ReportsIdenticalAtEveryThreadCount) {
    // One engine, one answer: whole results — counters, deadlock lists,
    // witness markings and traces, violation traces — are identical at
    // 1, 2 and 4 threads over the fixture zoo, both for exhaustive
    // passes and for early-stopped goal searches.
    for (const Fixture& fixture : all_fixtures()) {
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);
        MultiQuery early;
        early.goals = bundle.query.goals;

        std::optional<MultiResult> full_at_1;
        std::optional<MultiResult> early_at_1;
        for (const std::size_t threads : {1, 2, 4}) {
            auto full = run_full(compiled, bundle.query, threads);
            ReachabilityOptions options;
            options.threads = threads;
            auto stopped =
                ParallelReachabilityExplorer(compiled, options).run_query(
                    early);
            if (!full_at_1) {
                full_at_1 = std::move(full);
                early_at_1 = std::move(stopped);
                continue;
            }
            expect_identical(fixture.net, *full_at_1, full,
                             at(fixture.name, threads));
            expect_identical(fixture.net, *early_at_1, stopped,
                             at(fixture.name + " early stop", threads));
        }
    }
}

// --------------------------------------------------------- determinism --

TEST(ParallelReachability, RepeatedRunsAreDeterministic) {
    // Ten runs per thread count: verdicts, counters, deadlock sets and
    // full witness traces must be identical run over run (the canonical
    // witness selection makes them identical across thread counts too).
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    std::optional<MultiResult> baseline;
    for (const std::size_t threads : kThreadCounts) {
        for (int run = 0; run < 10; ++run) {
            auto result = run_full(compiled, bundle.query, threads);
            if (!baseline) {
                ASSERT_TRUE(result.goals[0].found());
                baseline = std::move(result);
                continue;
            }
            expect_identical(fixture.net, *baseline, result,
                             at("run " + std::to_string(run), threads));
        }
    }
}

// ---------------------------------------------------------- truncation --

TEST(ParallelReachability, TruncationContract) {
    // With max_states below the true count the pass must stop truncated.
    // Contract: never above max_states, and — because ids are allocated
    // densely below the cap — exactly max_states, at every thread count.
    const Fixture fixture = ope_fixture(3, 3);  // 191k true states
    const CompiledNet compiled(fixture.net);
    for (const std::size_t threads : kThreadCounts) {
        ReachabilityOptions options;
        options.max_states = 4096;
        options.threads = threads;
        ParallelReachabilityExplorer par(compiled, options);
        const auto result = par.explore_all();
        EXPECT_TRUE(result.truncated) << threads;
        EXPECT_EQ(result.states_explored, 4096u) << threads;
    }
}

TEST(ParallelReachability, NoTruncationAtExactFit) {
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const std::size_t exact =
        ParallelReachabilityExplorer(compiled).count_states();
    ReachabilityOptions options;
    options.max_states = exact;
    options.threads = 4;
    ParallelReachabilityExplorer par(compiled, options);
    const auto result = par.explore_all();
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states_explored, exact);
}

// ------------------------------------------------------- stop hook ------

TEST(StopHook, FiresWithinEdgeBoundOnReducedPasses) {
    // Regression: polling the stop hook on interned states or layers
    // only let a heavily POR-reduced pass — few fresh states, many edges
    // — run far past its deadline. The engine also polls every 256
    // edges per worker; with a hook that trips right after its first
    // call the pass must stop within a small edge budget, nowhere near
    // the fixture's full reduced exploration. The bound scales with the
    // worker count.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    query.collect_deadlocks = true;
    for (const std::size_t threads : kThreadCounts) {
        std::atomic<std::size_t> calls{0};
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.por = true;
        options.threads = threads;
        options.stop = [&calls] {
            return calls.fetch_add(1, std::memory_order_relaxed) >= 1;
        };
        ParallelReachabilityExplorer par(compiled, options);
        const auto result = par.run_query(query);
        EXPECT_TRUE(result.truncated) << threads;
        EXPECT_LE(result.edges_explored, 512u * threads + 512u)
            << "edge poll missed its bound @" << threads << "t";
    }
}

// ----------------------------------------------------- memory contract --

/// The same query on a fresh ReuseStore: the reuse path keeps every
/// state's enabled row inside its record (no frontier-only cache), so it
/// is the undieted reference for the diet's byte and result contracts.
MultiResult run_with_rows_resident(const CompiledNet& compiled,
                                   const MultiQuery& query,
                                   ReachabilityOptions options) {
    options.reuse = std::make_shared<ReuseStore>();
    return ParallelReachabilityExplorer(compiled, options).run_query(query);
}

TEST(MemoryDiet, CacheDropsEnabledShareAndKeepsResultsBitIdentical) {
    // The frontier-only enabled-set cache must (a) change no answer bit
    // and (b) shrink record bytes by the enabled-word share of the
    // record — the diet that fits the ~19M-state OPE models in memory.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.threads = 4;
    const auto with_cache =
        ParallelReachabilityExplorer(compiled, options).run_query(bundle.query);
    const auto without_cache =
        run_with_rows_resident(compiled, bundle.query, options);
    ASSERT_FALSE(without_cache.reuse_fallback);
    expect_identical(fixture.net, with_cache, without_cache,
                     "ope_s3_d3 cache on/off");

    // Record layout: marking + 2 witness meta words, plus the enabled
    // words only when rows stay resident. Arena block granularity makes
    // the measured byte counts approximate; 5% covers it at 191k states.
    const std::size_t mwords = compiled.marking_words();
    const std::size_t twords = compiled.enabled_words();
    const double expected_drop =
        static_cast<double>(twords) /
        static_cast<double>(mwords + 2 + twords);
    EXPECT_EQ(with_cache.memory.records, with_cache.states_explored);
    ASSERT_GT(without_cache.memory.record_bytes, 0u);
    const double drop =
        1.0 - static_cast<double>(with_cache.memory.record_bytes) /
                  static_cast<double>(without_cache.memory.record_bytes);
    EXPECT_NEAR(drop, expected_drop, 0.05)
        << "record diet off-target: " << with_cache.memory.record_bytes
        << " vs " << without_cache.memory.record_bytes << " bytes";
    EXPECT_LT(with_cache.memory.resident_bytes,
              without_cache.memory.resident_bytes);
    EXPECT_GE(with_cache.memory.peak_bytes,
              with_cache.memory.resident_bytes);
}

TEST(MemoryDiet, EvictionPathStressUnderEveryScheduler) {
    // Many-layer model through the one scheduler at every worker count:
    // the arena recycling path the ASan job must walk. Witness traces
    // are materialised to force reconstruction after eviction.
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const oracle::Result reference = oracle_for(fixture.net, bundle.query);
    for (const std::size_t threads : kThreadCounts) {
        expect_matches_oracle(fixture.net, reference,
                              run_full(compiled, bundle.query, threads),
                              at("gap eviction", threads));
    }
}

TEST(MemoryDiet, ReducedPassAccountsRowsAtAmpleWidth) {
    // A reduced pass that never widens (no persistence check, no proviso
    // — deadlock collection only) stores frontier rows as [full | ample]
    // with the ample set computed at discovery, and accounts out-edge
    // provisioning at ample width. The contract: answers and reduction
    // statistics are bit-identical to the expansion-time reduction path
    // (rows resident in the records), the deadlock set is the oracle's,
    // and the row arenas show up in the memory accounting.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    query.collect_deadlocks = true;

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.threads = 4;
    options.por = true;
    const auto with_cache =
        ParallelReachabilityExplorer(compiled, options).run_query(query);
    const auto without_cache = run_with_rows_resident(compiled, query, options);
    ASSERT_TRUE(with_cache.por.active);
    ASSERT_GT(with_cache.por.ignored(), 0u) << "fixture must actually reduce";
    expect_identical(fixture.net, with_cache, without_cache,
                     "reduced diet on/off");
    EXPECT_EQ(with_cache.deadlocks, oracle::explore(fixture.net).deadlocks);

    // Discovery-time and expansion-time ample computation must agree on
    // every reduction statistic, not just the verdicts.
    EXPECT_TRUE(without_cache.por.active);
    EXPECT_EQ(with_cache.por.expansions, without_cache.por.expansions);
    EXPECT_EQ(with_cache.por.reduced_expansions,
              without_cache.por.reduced_expansions);
    EXPECT_EQ(with_cache.por.proviso_expansions,
              without_cache.por.proviso_expansions);
    EXPECT_EQ(with_cache.por.enabled_transitions,
              without_cache.por.enabled_transitions);
    EXPECT_EQ(with_cache.por.expanded_transitions,
              without_cache.por.expanded_transitions);

    // Arena-block granularity dominates record_bytes at POR-reduced
    // sizes (a few thousand states), so the enabled-word byte ratio is
    // not measurable here — the full-pass diet test covers it. What
    // must hold on the reduced pass: every record is accounted, and the
    // per-worker [full | ample] row arenas show up in the peak (rows
    // resident in the records have no row arenas).
    EXPECT_EQ(with_cache.memory.records, with_cache.states_explored);
    ASSERT_GE(with_cache.memory.peak_bytes, with_cache.memory.record_bytes);
    const std::size_t with_overhead =
        with_cache.memory.peak_bytes - with_cache.memory.record_bytes;
    const std::size_t without_overhead =
        without_cache.memory.peak_bytes - without_cache.memory.record_bytes;
    EXPECT_GT(with_overhead, without_overhead)
        << "ample-width row arenas must be part of the memory accounting";
    EXPECT_GE(with_cache.memory.peak_bytes,
              with_cache.memory.resident_bytes);
}

// ------------------------------------------- concurrent interning table --

TEST(ConcurrentMarkingStore, InternsDedupesAndEnforcesCapacity) {
    ConcurrentMarkingStore store(2, 1);
    store.reserve(2);
    const std::uint64_t a[2] = {1, 2};
    const std::uint64_t b[2] = {3, 4};
    const auto ra = store.intern(a, 2);
    EXPECT_TRUE(ra.inserted);
    EXPECT_EQ(ra.id, 0u);
    const auto ra2 = store.intern(a, 2);
    EXPECT_FALSE(ra2.inserted);
    EXPECT_EQ(ra2.id, 0u);
    const auto rb = store.intern(b, 2);
    EXPECT_TRUE(rb.inserted);
    EXPECT_EQ(rb.id, 1u);
    const std::uint64_t c[2] = {5, 6};
    const auto rc = store.intern(c, 2);  // over capacity
    EXPECT_FALSE(rc.inserted);
    EXPECT_EQ(rc.id, ConcurrentMarkingStore::kNone);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store[1][0], 3u);
    // Meta words start zeroed and belong to the caller.
    EXPECT_EQ(store.meta_offset(), 2u);
    EXPECT_EQ(store[0][store.meta_offset()], 0u);
    store.record_mut(0)[store.meta_offset()] = 77;
    EXPECT_EQ(store[0][store.meta_offset()], 77u);
}

TEST(ConcurrentMarkingStore, SurvivesGrowthRehash) {
    // Serial reserve between inserts doubles the table several times;
    // every id must survive each rehash.
    ConcurrentMarkingStore store(1, 0);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        store.reserve(i + 1);
        const auto r = store.intern(&i, SIZE_MAX);
        ASSERT_TRUE(r.inserted);
        ASSERT_EQ(r.id, i);
    }
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const auto r = store.intern(&i, SIZE_MAX);
        ASSERT_FALSE(r.inserted);
        ASSERT_EQ(r.id, i);
        ASSERT_EQ(store.find(&i), i);
    }
}

TEST(ConcurrentMarkingStore, MetaWordsLiveInTheRecord) {
    // Records carry meta words after the marking payload: the first
    // `meta_init_words` copied in before publication, the rest zeroed,
    // untouched by dedup hits, stable across table growth (records never
    // move). The engine keeps witness links here, so trace rebuilding
    // must not depend on any side array staying aligned with insertion
    // order.
    ConcurrentMarkingStore store(1, /*meta_words=*/2);
    for (std::uint64_t i = 0; i < 3000; ++i) {
        store.reserve(i + 1);
        const std::uint64_t init = i * 2 + 1;
        const auto r = store.intern(&i, SIZE_MAX, &init, 1);
        ASSERT_TRUE(r.inserted);
        EXPECT_EQ(store[r.id][store.meta_offset()], init);
        EXPECT_EQ(store[r.id][store.meta_offset() + 1], 0u);
        store.record_mut(r.id)[store.meta_offset() + 1] = ~i;
    }
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const auto r = store.intern(&i, SIZE_MAX);  // after rehashes
        ASSERT_FALSE(r.inserted);
        const std::uint64_t* record = store[r.id];
        EXPECT_EQ(record[0], i);  // payload intact
        EXPECT_EQ(record[store.meta_offset()], i * 2 + 1);
        EXPECT_EQ(record[store.meta_offset() + 1], ~i);
    }
}

TEST(ConcurrentMarkingStore, ConcurrentInterningIsConsistent) {
    // All workers intern overlapping slices of the same key universe;
    // every key must get exactly one dense id, agreed on by all workers.
    constexpr std::size_t kKeys = 20000;
    constexpr std::size_t kWorkers = 8;
    ConcurrentMarkingStore store(1, 0);
    store.reserve(kKeys);

    std::vector<std::vector<std::uint32_t>> ids(
        kWorkers, std::vector<std::uint32_t>(kKeys));
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&store, &ids, w]() {
            // Distinct per-worker visit order so claims genuinely race.
            // (No gtest assertions in here: kNone sentinels are checked
            // on the main thread after the join.)
            util::Rng rng(0x9000 + w);
            std::vector<std::uint64_t> keys(kKeys);
            for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i;
            for (std::size_t i = kKeys; i > 1; --i) {
                std::swap(keys[i - 1], keys[rng.below(i)]);
            }
            for (const std::uint64_t key : keys) {
                ids[w][key] = store.intern(&key, kKeys).id;
            }
        });
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(store.size(), kKeys);
    for (std::size_t key = 0; key < kKeys; ++key) {
        ASSERT_NE(ids[0][key], ConcurrentMarkingStore::kNone) << key;
    }
    for (std::size_t w = 1; w < kWorkers; ++w) {
        ASSERT_EQ(ids[w], ids[0]) << "worker " << w;
    }
    for (std::size_t key = 0; key < kKeys; ++key) {
        EXPECT_EQ(store[ids[0][key]][0], key);
    }
}

// ------------------------------------------------- work-stealing deque --

TEST(StealDeque, OwnerAndThievesClaimEveryTaskExactlyOnce) {
    // Steal-heavy hammering: one owner pops while 7 thieves strip the
    // deque from the other end; every task must be claimed exactly once.
    // This is the stress profile of a narrow BFS layer, and the TSan CI
    // job runs it to keep the deque's memory ordering honest.
    constexpr std::size_t kTasks = 100000;
    constexpr std::size_t kThieves = 7;
    util::StealDeque deque;
    deque.reset_and_reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) deque.push(i);

    std::vector<std::atomic<std::uint32_t>> claimed(kTasks);
    std::atomic<bool> go{false};
    std::atomic<std::size_t> total{0};
    auto thief = [&deque, &claimed, &go, &total]() {
        while (!go.load(std::memory_order_acquire)) {}
        std::uint64_t task;
        std::size_t mine = 0;
        for (;;) {
            if (deque.steal(task)) {
                claimed[task].fetch_add(1, std::memory_order_relaxed);
                ++mine;
            } else if (deque.empty()) {
                break;
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
    };
    std::vector<std::thread> pool;
    for (std::size_t k = 0; k < kThieves; ++k) pool.emplace_back(thief);
    go.store(true, std::memory_order_release);
    {
        std::uint64_t task;
        std::size_t mine = 0;
        while (deque.pop(task)) {
            claimed[task].fetch_add(1, std::memory_order_relaxed);
            ++mine;
        }
        // The owner's pop can fail while thieves still drain; sweep like
        // the engine does until the deque reads empty.
        for (;;) {
            if (deque.steal(task)) {
                claimed[task].fetch_add(1, std::memory_order_relaxed);
                ++mine;
            } else if (deque.empty()) {
                break;
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(total.load(), kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(claimed[i].load(), 1u) << "task " << i;
    }
}

// ------------------------------------------------------ facade adoption --

TEST(ParallelVerify, VerifierThreadsKnobKeepsReportsEquivalent) {
    // Reports are identical at every thread count, 1 included: verdicts,
    // state counts, details and the full witness traces.
    auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                         dfs::TokenValue::False);

    verify::VerifyOptions sequential;
    sequential.threads = 1;
    const verify::Verifier seq(p.graph, sequential);
    const auto seq_report = seq.verify_all();
    ASSERT_FALSE(seq_report.clean());

    for (const std::size_t threads : kThreadCounts) {
        verify::VerifyOptions options;
        options.threads = threads;
        const verify::Verifier par(p.graph, options);
        const auto par_report = par.verify_all();
        ASSERT_EQ(par_report.findings.size(), seq_report.findings.size());
        for (std::size_t i = 0; i < seq_report.findings.size(); ++i) {
            const auto& sf = seq_report.findings[i];
            const auto& pf = par_report.findings[i];
            EXPECT_EQ(pf.property, sf.property);
            EXPECT_EQ(pf.violated, sf.violated) << i;
            EXPECT_EQ(pf.truncated, sf.truncated) << i;
            EXPECT_EQ(pf.states_explored, sf.states_explored) << i;
            EXPECT_EQ(pf.detail, sf.detail) << i;
            EXPECT_EQ(pf.trace, sf.trace) << i;
            EXPECT_EQ(pf.dfs_trace, sf.dfs_trace) << i;
        }
        EXPECT_EQ(par_report.to_string(), seq_report.to_string());
        EXPECT_EQ(par.explorations_run(), 1u);
    }
}

TEST(ParallelVerify, DesignAdoptsThreadsThroughOptions) {
    flow::DesignOptions options;
    options.verify.threads = 2;
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3), options);
    const auto report = design.verify();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(design.verifier().explorations_run(), 1u);

    flow::DesignOptions sequential_options;
    sequential_options.verify.threads = 1;  // pin: default 0 = all cores
    flow::Design sequential(ope::build_reconfigurable_ope_dfs(3, 3),
                            sequential_options);
    const auto seq_report = sequential.verify();
    ASSERT_EQ(report.findings.size(), seq_report.findings.size());
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        EXPECT_EQ(report.findings[i].violated,
                  seq_report.findings[i].violated);
        EXPECT_EQ(report.findings[i].states_explored,
                  seq_report.findings[i].states_explored);
    }
}

TEST(ParallelVerify, MemoryStatsSurfaceThroughVerifierAndDesign) {
    // memory_stats() rides the facades: std::nullopt before any
    // exploration, populated by verify(). An incremental session keeps
    // enabled rows inside its reused records, so the same verdicts come
    // with fatter records.
    flow::DesignOptions options;
    options.verify.threads = 2;
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3), options);
    EXPECT_FALSE(design.memory_stats().has_value());
    const auto report = design.verify();
    ASSERT_TRUE(report.clean());
    ASSERT_TRUE(design.memory_stats().has_value());
    const auto stats = *design.memory_stats();
    EXPECT_EQ(stats.records, report.findings[0].states_explored);
    EXPECT_GT(stats.record_bytes, 0u);
    EXPECT_GT(stats.resident_bytes, stats.record_bytes);
    EXPECT_GE(stats.peak_bytes, stats.resident_bytes);

    flow::DesignOptions fat_options;
    fat_options.verify.threads = 2;
    fat_options.incremental = true;
    flow::Design fat(ope::build_reconfigurable_ope_dfs(3, 3), fat_options);
    const auto fat_report = fat.verify();
    ASSERT_TRUE(fat_report.clean());
    EXPECT_EQ(fat_report.findings[0].states_explored,
              report.findings[0].states_explored);
    ASSERT_TRUE(fat.memory_stats().has_value());
    EXPECT_GT(fat.memory_stats()->record_bytes, stats.record_bytes);
}

}  // namespace
}  // namespace rap::petri
