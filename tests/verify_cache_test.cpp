// Tests for the concurrent LRU artifact cache: counter
// reconciliation under a multi-threaded hammer, build coalescing (no
// double-build when callers race on one key), byte-capacity LRU
// eviction, and pin semantics. Each TEST() runs as its own ctest
// process, so deltas of the global artifact_builds() counter are safe.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dfs_helpers.hpp"
#include "rap/verify/cache.hpp"

namespace rap::verify {
namespace {

using dfs::Graph;
using dfs::TokenValue;

/// A small distinct model: a 3-control ring whose name prefix makes the
/// content unique. Same node/arc counts for every id, so every variant
/// has the same approx_bytes() — convenient for capacity math.
///
/// Concurrent tests build their models INSIDE each thread: a Graph's
/// lazy adjacency cache is not thread-safe, so sharing one instance
/// across racing lookups is outside the library contract (the sweep
/// service likewise builds one model per grid point). Identical content
/// still dedups — the cache keys on the content hash, not the object.
Graph make_model(int id) {
    Graph g("cache_model_" + std::to_string(id));
    dfs::testing::add_control_ring(g, "r" + std::to_string(id),
                                   TokenValue::True);
    return g;
}

TEST(ArtifactCache, ConcurrentHammerCountersReconcile) {
    constexpr int kThreads = 8;
    constexpr int kRounds = 25;
    constexpr int kModels = 6;

    ArtifactCache cache;  // default: plenty of capacity
    const std::size_t builds_before = artifact_builds();

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            std::vector<Graph> models;
            for (int m = 0; m < kModels; ++m)
                models.push_back(make_model(m));
            while (!go.load()) {
            }
            for (int r = 0; r < kRounds; ++r) {
                for (const Graph& g : models) {
                    const auto model = cache.get(g);
                    ASSERT_NE(model, nullptr);
                    ASSERT_GT(model->approx_bytes(), 0u);
                }
            }
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const CacheStats stats = cache.stats();
    // Every lookup is exactly one hit or one miss (waiters on an
    // in-flight build count as hits)...
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::size_t>(kThreads) * kRounds * kModels);
    // ...and a miss is exactly one build: build coalescing means the
    // cache compiled each distinct model once, no matter how the 8
    // threads raced.
    EXPECT_EQ(stats.misses, static_cast<std::size_t>(kModels));
    EXPECT_EQ(artifact_builds() - builds_before,
              static_cast<std::size_t>(kModels));
    EXPECT_EQ(stats.entries, static_cast<std::size_t>(kModels));
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.pinned, 0u);
}

TEST(ArtifactCache, RacingMissesOnOneKeyBuildOnce) {
    constexpr int kThreads = 8;

    ArtifactCache cache;
    const std::size_t builds_before = artifact_builds();

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const Graph g = make_model(0);
            while (!go.load()) {
            }
            const auto model = cache.get(g);
            ASSERT_NE(model, nullptr);
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads) - 1);
    EXPECT_EQ(artifact_builds() - builds_before, 1u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedUnderCapacity) {
    // Size the capacity from a real artifact so the cache holds exactly
    // two of the (equally sized) models.
    std::size_t model_bytes = 0;
    {
        ArtifactCache probe;
        probe.get(make_model(0));
        model_bytes = probe.stats().bytes;
    }
    ASSERT_GT(model_bytes, 0u);

    ArtifactCache::Options options;
    options.capacity_bytes = 2 * model_bytes + model_bytes / 2;
    ArtifactCache cache(options);

    const Graph g0 = make_model(0);
    const Graph g1 = make_model(1);
    const Graph g2 = make_model(2);

    cache.get(g0);
    cache.get(g1);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Third insert overflows the cache: the least recently used (g0)
    // goes, the newcomer and g1 stay resident.
    cache.get(g2);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, options.capacity_bytes);

    const std::size_t misses_before = cache.stats().misses;
    cache.get(g1);  // still resident -> hit
    cache.get(g2);  // still resident -> hit
    EXPECT_EQ(cache.stats().misses, misses_before);
    cache.get(g0);  // was evicted -> miss, rebuilt
    EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ArtifactCache, CapacityIsTheWholeCache) {
    // The byte capacity bounds the whole cache, not a slice of it: room
    // for three models keeps one model resident across repeated gets.
    const Graph g = make_model(0);
    const std::size_t model_bytes = CompiledModel(g).approx_bytes();
    ASSERT_GT(model_bytes, 0u);

    ArtifactCache::Options options;
    options.capacity_bytes = 3 * model_bytes;
    ArtifactCache cache(options);

    cache.get(g);
    cache.get(g);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ArtifactCache, PinnedEntrySurvivesEvictionPressure) {
    std::size_t model_bytes = 0;
    {
        ArtifactCache probe;
        probe.get(make_model(0));
        model_bytes = probe.stats().bytes;
    }

    ArtifactCache::Options options;
    options.capacity_bytes = model_bytes;  // room for exactly one model
    ArtifactCache cache(options);

    const Graph g0 = make_model(0);
    const Graph g1 = make_model(1);

    ArtifactCache::Pin pin = cache.get_pinned(g0);
    ASSERT_TRUE(pin);
    EXPECT_EQ(cache.stats().pinned, 1u);

    // g1 overflows the cache, but the pinned g0 cannot be dropped — the
    // unpinned newcomer is reclaimed instead.
    cache.get(g1);
    {
        const CacheStats stats = cache.stats();
        EXPECT_EQ(stats.entries, 1u);
        EXPECT_EQ(stats.evictions, 1u);
    }
    const std::size_t misses_before = cache.stats().misses;
    EXPECT_NE(cache.get(g0), nullptr);  // hit: still resident
    EXPECT_EQ(cache.stats().misses, misses_before);

    // Once the pin drops, g0 is ordinary LRU prey again.
    pin.release();
    EXPECT_EQ(cache.stats().pinned, 0u);
    cache.get(g1);  // insert overflows -> evicts the now-unpinned g0
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 2u);
}

TEST(ArtifactCache, ClearDropsUnpinnedEntriesWithoutCountingEvictions) {
    ArtifactCache cache;
    cache.get(make_model(0));
    const Graph pinned_model = make_model(1);
    ArtifactCache::Pin pin = cache.get_pinned(pinned_model);

    cache.clear();
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);  // the pinned one survives
    EXPECT_EQ(stats.pinned, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.misses, 2u);  // counters survive clear()
}

}  // namespace
}  // namespace rap::verify
