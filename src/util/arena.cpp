#include "util/arena.hpp"

#include <algorithm>
#include <cstring>

namespace rap::util {

WordArena::WordArena(std::size_t record_words,
                     std::size_t target_block_words)
    : record_words_(std::max<std::size_t>(record_words, 1)),
      records_per_block_(
          std::max<std::size_t>(target_block_words / record_words_, 1)) {}

std::uint64_t* WordArena::grow_to(std::size_t index) {
    if (index == blocks_.size() * records_per_block_) {
        blocks_.push_back(std::make_unique<std::uint64_t[]>(
            records_per_block_ * record_words_));
    }
    return (*this)[index];
}

std::size_t WordArena::push_zero() {
    std::uint64_t* slot = grow_to(size_);
    std::memset(slot, 0, record_words_ * sizeof(std::uint64_t));
    return size_++;
}

std::size_t WordArena::push(const std::uint64_t* src) {
    std::uint64_t* slot = grow_to(size_);
    std::memcpy(slot, src, record_words_ * sizeof(std::uint64_t));
    return size_++;
}

}  // namespace rap::util
