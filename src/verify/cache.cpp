#include "verify/cache.hpp"

#include <utility>

namespace rap::verify {

ArtifactCache::Pin::Pin(Pin&& other) noexcept
    : cache_(std::exchange(other.cache_, nullptr)),
      key_(std::move(other.key_)),
      model_(std::move(other.model_)) {}

ArtifactCache::Pin& ArtifactCache::Pin::operator=(Pin&& other) noexcept {
    if (this != &other) {
        release();
        cache_ = std::exchange(other.cache_, nullptr);
        key_ = std::move(other.key_);
        model_ = std::move(other.model_);
    }
    return *this;
}

void ArtifactCache::Pin::release() {
    if (cache_ != nullptr) {
        cache_->unpin(key_);
        cache_ = nullptr;
    }
    model_.reset();
}

std::shared_ptr<const CompiledModel> ArtifactCache::lookup(
    const dfs::Graph& graph, bool pin, std::string* key_out) {
    std::string key = model_fingerprint(graph);
    if (key_out != nullptr) *key_out = key;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = index_.find(key);
        if (it != index_.end()) {
            Entry& entry = *it->second;
            if (entry.building) {
                // Another caller is compiling this exact model; wait for
                // its build instead of compiling again, then re-check
                // from scratch (the build may have failed and vanished).
                ready_.wait(lock);
                continue;
            }
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            if (pin) ++entry.pin_count;
            return entry.model;
        }

        // Miss: insert a building placeholder (pinned so concurrent
        // eviction cannot drop it) and compile outside the lock.
        ++misses_;
        lru_.push_front(Entry{key, nullptr, 0, 1, true});
        index_[key] = lru_.begin();
        lock.unlock();

        std::shared_ptr<const CompiledModel> model;
        try {
            model = std::make_shared<const CompiledModel>(graph);
        } catch (...) {
            lock.lock();
            auto placed = index_.find(key);
            lru_.erase(placed->second);
            index_.erase(placed);
            ready_.notify_all();  // waiters retry as builders
            throw;
        }

        lock.lock();
        Entry& entry = *index_.find(key)->second;
        entry.model = model;
        entry.bytes = model->approx_bytes();
        entry.building = false;
        entry.pin_count = pin ? 1 : 0;  // the build pin becomes the caller's
        bytes_ += entry.bytes;
        ready_.notify_all();
        evict_overflow();
        return model;
    }
}

std::shared_ptr<const CompiledModel> ArtifactCache::get(
    const dfs::Graph& graph) {
    return lookup(graph, /*pin=*/false, nullptr);
}

ArtifactCache::Pin ArtifactCache::get_pinned(const dfs::Graph& graph) {
    std::string key;
    auto model = lookup(graph, /*pin=*/true, &key);
    return Pin(this, std::move(key), std::move(model));
}

void ArtifactCache::unpin(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->pin_count > 0) {
        --it->second->pin_count;
        // Pinned entries may have pushed the cache past capacity;
        // reclaim the overshoot as soon as the pin drops.
        evict_overflow();
    }
}

void ArtifactCache::evict_overflow() {
    auto it = lru_.end();
    while (bytes_ > options_.capacity_bytes && it != lru_.begin()) {
        --it;
        if (it->pin_count > 0 || it->building) continue;
        bytes_ -= it->bytes;
        ++evictions_;
        index_.erase(it->key);
        it = lru_.erase(it);
    }
}

CacheStats ArtifactCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.entries = index_.size();
    stats.bytes = bytes_;
    stats.capacity_bytes = options_.capacity_bytes;
    for (const Entry& entry : lru_) {
        if (entry.pin_count > 0) ++stats.pinned;
    }
    return stats;
}

void ArtifactCache::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->pin_count > 0 || it->building) {
            ++it;
            continue;
        }
        bytes_ -= it->bytes;
        index_.erase(it->key);
        it = lru_.erase(it);
    }
}

ArtifactCache& ArtifactCache::process_cache() {
    static ArtifactCache cache;
    return cache;
}

CacheStats cache_stats() { return ArtifactCache::process_cache().stats(); }

}  // namespace rap::verify
