#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "petri/net.hpp"

namespace rap::petri {

/// Marking payload hash of the interning store (and the checkpoint
/// checksum): FNV-1a over the words plus a splitmix64 finisher (FNV alone
/// clusters under linear probing).
inline std::uint64_t hash_marking_words(const std::uint64_t* words,
                                        std::size_t count) noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < count; ++i) {
        h ^= words[i];
        h *= 1099511628211ULL;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/// Flattened, cache-friendly form of a Net for the reachability hot path.
///
/// Construction packs every transition's enabling condition and firing
/// effect into CSR-indexed (word, mask) term arrays over the marking's
/// 64-bit payload words:
///
///   enabled(t) <=> forall (w,m) in require(t): (marking[w] & m) == m
///               && forall (w,m) in forbid(t):  (marking[w] & m) == 0
///   fire(t):       marking[w] = (marking[w] & ~consume(t)) | produce(t)
///
/// `require` covers consume + read arcs, `forbid` the produce-only places
/// (1-safe contact-freeness) — mirroring Net::is_enabled exactly, but in
/// a handful of word ops instead of per-place bit probes.
///
/// An affected-transition index (per transition, the union over the
/// places its firing toggles of each place's dependent transitions)
/// enables incremental enabled-set maintenance: after firing t, only
/// affected(t) can change enabledness, so a successor's enabled set is
/// its parent's with just those bits re-tested.
class CompiledNet {
public:
    explicit CompiledNet(const Net& net);

    const Net& net() const noexcept { return *net_; }

    /// FNV-1a digest of the net's structure — place/transition counts and
    /// every arc, but NOT initial markings. Two nets that differ only in
    /// initial marking (a run-time reconfiguration) share it; it keys
    /// marking-store reuse and ties a checkpoint to its net.
    std::uint64_t structure_digest() const noexcept {
        return structure_digest_;
    }

    /// Structure digest of a net without compiling it.
    static std::uint64_t digest_structure(const Net& net) noexcept;
    std::size_t place_count() const noexcept { return place_count_; }
    std::size_t transition_count() const noexcept {
        return transition_count_;
    }

    /// 64-bit words per marking payload / per transition-enabled bitset.
    std::size_t marking_words() const noexcept { return marking_words_; }
    std::size_t enabled_words() const noexcept { return enabled_words_; }

    bool is_enabled(const std::uint64_t* marking,
                    TransitionId t) const noexcept;

    /// Fires `t` in place. Precondition: is_enabled(marking, t).
    void fire(std::uint64_t* marking, TransitionId t) const noexcept;

    /// Computes the full enabled bitset of `marking` into
    /// `out[0 .. enabled_words())` (bit i <=> transition i enabled).
    void enabled_set(const std::uint64_t* marking,
                     std::uint64_t* out) const noexcept;

    /// Incremental maintenance: given `marking` obtained by firing
    /// `fired`, refreshes in `enabled` (the parent's enabled bitset) the
    /// bits of exactly the transitions firing `fired` can have changed.
    void update_enabled(const std::uint64_t* marking, TransitionId fired,
                        std::uint64_t* enabled) const noexcept;

    /// Transitions whose enabledness can change when `t` fires,
    /// ascending by id.
    std::span<const std::uint32_t> affected(TransitionId t) const noexcept {
        return {affected_.data() + affected_off_[t.value],
                affected_.data() + affected_off_[t.value + 1]};
    }

private:
    struct Term {
        std::uint32_t word;
        std::uint64_t mask;
    };
    struct Effect {
        std::uint32_t word;
        std::uint64_t clear_mask;  // consume-arc places in this word
        std::uint64_t set_mask;    // produce-arc places in this word
    };

    const Net* net_;
    std::size_t place_count_;
    std::size_t transition_count_;
    std::size_t marking_words_;
    std::size_t enabled_words_;
    std::uint64_t structure_digest_ = 0;

    // Per-transition CSR offsets into the shared term arrays; offsets
    // have transition_count_+1 entries each.
    std::vector<std::uint32_t> require_off_;
    std::vector<std::uint32_t> forbid_off_;
    std::vector<std::uint32_t> effect_off_;
    std::vector<Term> require_;
    std::vector<Term> forbid_;
    std::vector<Effect> effect_;

    std::vector<std::uint32_t> affected_off_;
    std::vector<std::uint32_t> affected_;
};

/// Interning-table geometry of one store, for capacity planning and the
/// rap_store_* metrics: how many slots the dedup table holds and how its
/// bytes split against the record blocks.
struct StoreStats {
    std::size_t records = 0;    ///< interned markings
    std::size_t slots = 0;      ///< dedup-table capacity (slots)
    std::size_t table_bytes = 0;  ///< dedup table
    std::size_t arena_bytes = 0;  ///< record payload blocks
    double load_factor() const noexcept {
        return slots == 0 ? 0.0
                          : static_cast<double>(records) /
                                static_cast<double>(slots);
    }
};

}  // namespace rap::petri
