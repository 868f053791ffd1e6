#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rap::util {

/// Bump allocator for fixed-size records of 64-bit words. Records live in
/// chunked blocks, so the pointers it hands out stay stable while the
/// arena grows and growth never copies existing payload — the properties
/// the reachability engine's interned marking store depends on. There is
/// no per-record heap allocation: one block allocation amortises over
/// thousands of records.
class WordArena {
public:
    /// Every record is exactly `record_words` 64-bit words. Blocks hold
    /// ~`target_block_words` words each: the default amortises well for
    /// stores that grow monotonically; per-layer scratch arenas (the
    /// enabled-row cache) pass something small so a fleet of them does
    /// not pin half-empty blocks.
    explicit WordArena(std::size_t record_words,
                       std::size_t target_block_words = std::size_t{1}
                                                        << 16);

    std::size_t record_words() const noexcept { return record_words_; }
    std::size_t size() const noexcept { return size_; }

    /// Appends a zero-filled record; returns its dense index.
    std::size_t push_zero();

    /// Appends a copy of `src[0 .. record_words)`; returns its index.
    std::size_t push(const std::uint64_t* src);

    /// Heap bytes currently held by blocks. The arena's contribution to
    /// an engine's memory_stats().
    std::size_t resident_bytes() const noexcept {
        return blocks_.size() * records_per_block_ * record_words_ *
               sizeof(std::uint64_t);
    }

    std::uint64_t* operator[](std::size_t index) noexcept {
        return blocks_[index / records_per_block_].get() +
               (index % records_per_block_) * record_words_;
    }
    const std::uint64_t* operator[](std::size_t index) const noexcept {
        return blocks_[index / records_per_block_].get() +
               (index % records_per_block_) * record_words_;
    }

    /// Drops every record, keeping the blocks for reuse.
    void clear() noexcept { size_ = 0; }

private:
    std::uint64_t* grow_to(std::size_t index);

    std::size_t record_words_;
    std::size_t records_per_block_;
    std::size_t size_ = 0;
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
};

}  // namespace rap::util
