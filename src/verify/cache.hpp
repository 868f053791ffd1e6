#pragma once

#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "verify/artifacts.hpp"

namespace rap::verify {

/// Cache snapshot, taken by ArtifactCache::stats(). Every lookup is
/// exactly one hit or one miss (waiting on another caller's in-flight
/// build counts as a hit — the waiter does not build), so
/// `hits + misses` reconciles with the total lookup count and `misses`
/// with the number of artifact builds the cache ran.
struct CacheStats {
    std::size_t hits = 0;       ///< lookups served from the cache
    std::size_t misses = 0;     ///< lookups that triggered a build
    std::size_t evictions = 0;  ///< entries dropped by the LRU policy
    std::size_t entries = 0;    ///< cached models right now
    std::size_t bytes = 0;      ///< estimated resident bytes right now
    std::size_t pinned = 0;     ///< entries currently pinned
    std::size_t capacity_bytes = 0;

    double hit_rate() const noexcept {
        const std::size_t lookups = hits + misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
    }
};

/// Concurrent LRU cache of CompiledModel artifacts, keyed by exact
/// model content (verify::model_fingerprint), under one mutex. Lookups
/// come at a few hundred per second at most (one per sweep point or
/// design session) and builds run outside the lock, so the lock is
/// never the bottleneck.
///
/// - **Byte-capacity LRU.** Capacity is bytes (CompiledModel::
///   approx_bytes) over the whole cache; least-recently-used unpinned
///   entries are evicted when it overflows.
/// - **Build coalescing.** The first caller to miss a key builds the
///   model *outside* the lock; concurrent callers for the same key
///   block until that build lands instead of compiling again —
///   dedup-before-compile for free, even when a batch driver's workers
///   race on identical configurations.
/// - **Pinned entries.** An in-flight build is pinned automatically,
///   and get_pinned() returns a RAII Pin that keeps the entry resident
///   until released — a sweep cannot evict what a worker is about to
///   use. Pinned entries may push the cache past capacity; the
///   overshoot is reclaimed on the next unpinned insertion or unpin.
class ArtifactCache {
public:
    struct Options {
        std::size_t capacity_bytes = 64 * 1024 * 1024;
    };

    ArtifactCache() : ArtifactCache(Options{}) {}
    explicit ArtifactCache(Options options) : options_(options) {}
    ArtifactCache(const ArtifactCache&) = delete;
    ArtifactCache& operator=(const ArtifactCache&) = delete;

    /// RAII eviction pin. While alive, the entry stays cached (the
    /// model itself is additionally kept alive by the shared_ptr, pin
    /// or no pin). Must not outlive the cache.
    class Pin {
    public:
        Pin() = default;
        Pin(Pin&& other) noexcept;
        Pin& operator=(Pin&& other) noexcept;
        Pin(const Pin&) = delete;
        Pin& operator=(const Pin&) = delete;
        ~Pin() { release(); }

        const std::shared_ptr<const CompiledModel>& model() const noexcept {
            return model_;
        }
        explicit operator bool() const noexcept { return model_ != nullptr; }
        void release();

    private:
        friend class ArtifactCache;
        Pin(ArtifactCache* cache, std::string key,
            std::shared_ptr<const CompiledModel> model)
            : cache_(cache), key_(std::move(key)), model_(std::move(model)) {}

        ArtifactCache* cache_ = nullptr;
        std::string key_;
        std::shared_ptr<const CompiledModel> model_;
    };

    /// The artifact for `graph`: a cache hit, or exactly one build per
    /// key no matter how many callers miss it concurrently.
    std::shared_ptr<const CompiledModel> get(const dfs::Graph& graph);

    /// get(), plus an eviction pin held until the returned Pin drops.
    Pin get_pinned(const dfs::Graph& graph);

    CacheStats stats() const;

    /// Drops every unpinned entry (hit/miss/eviction counters are kept;
    /// the dropped entries do not count as evictions).
    void clear();

    std::size_t capacity_bytes() const noexcept {
        return options_.capacity_bytes;
    }

    /// The process-wide instance behind verify::compile_model and every
    /// flow::Design session.
    static ArtifactCache& process_cache();

private:
    struct Entry {
        std::string key;
        std::shared_ptr<const CompiledModel> model;  ///< null while building
        std::size_t bytes = 0;
        std::size_t pin_count = 0;
        bool building = false;
    };

    std::shared_ptr<const CompiledModel> lookup(const dfs::Graph& graph,
                                                bool pin,
                                                std::string* key_out);
    void unpin(const std::string& key);
    void evict_overflow();  ///< caller holds mutex_

    Options options_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    /// Most-recently-used first; Entry addresses are stable.
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
};

/// Snapshot of the process-wide artifact cache (the instance behind
/// verify::compile_model and flow::Design) — hit/miss/eviction
/// counters, resident bytes and pin counts.
CacheStats cache_stats();

}  // namespace rap::verify
