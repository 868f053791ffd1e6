#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "petri/compiled.hpp"
#include "petri/parallel.hpp"

namespace rap::petri {

/// Cross-pass marking-store retention — the substrate of incremental
/// re-verification. A ReuseStore owns a ConcurrentMarkingStore whose
/// records outlive any single exploration: interned markings, witness
/// links and enabled-set rows are kept across passes over nets that share
/// the same record dimensions, so re-verifying after a run-time
/// reconfiguration (the set_depth case: identical structure, different
/// initial marking) revisits mostly warm records instead of re-interning
/// the state space from scratch.
///
/// Record layout is fixed at mwords + 2 + twords words, the scratch
/// pass's layout plus the row: the marking payload, the canonical-min
/// witness link, the per-pass claim word in the depth word's place
/// (freshness is read from the claim), then the full enabled-set row.
/// All per-record state lives in the record itself; the store keeps no
/// per-id side arrays.
///
/// Per-pass state is epoch-tagged instead of bulk-cleared: each pass
/// calls `begin_pass()` and treats a record as reached only when its
/// claim word carries the current epoch. Claim words pack
/// (epoch << 32 | depth), with two sentinels in the low half for a claim
/// mid-publication and for a claim that lost the state-budget race;
/// stale claims from earlier epochs are simply never current, so a pass
/// starts in O(1) no matter how many records are resident. The store's
/// blocks are zero-provisioned, so a fresh record reads "unclaimed"
/// (epoch 0 is never current).
///
/// Rows are cached per *structure*: markings are content-addressed bit
/// patterns and stay valid across any same-dimension net, but a row is a
/// function of (marking, arcs). A claim winner always leaves the record
/// with a row for the attached structure, so the claim it replaced dates
/// the row: it is current when that claim completed at or after the
/// first epoch of the attached structure. When `attach` sees a different
/// structure digest it moves that epoch to the next pass, lazily
/// invalidating every cached row while keeping the markings and the
/// interning table intact.
///
/// Concurrency contract: `attach` and `begin_pass` are serial (between
/// passes); claim words are accessed atomically by workers mid-layer;
/// rows are read and written only by the record's claim winner.
/// Passes themselves must be externally sequenced — one exploration at a
/// time per ReuseStore.
class ReuseStore {
public:
    /// Claim-word low-half sentinel: claim won, record mid-publication.
    static constexpr std::uint32_t kPendingDepth = UINT32_MAX;
    /// Claim-word low-half sentinel: claim won after the pass's state
    /// budget was exhausted — the pass truncates (every prober treats
    /// the state as unreachable-this-pass).
    static constexpr std::uint32_t kOverflowDepth = UINT32_MAX - 1;
    ReuseStore() = default;

    /// Binds the store to a compiled net before a pass. The first call
    /// fixes the record dimensions; later calls return false when the
    /// net's marking/enabled word counts differ (callers fall back to a
    /// scratch exploration — the store is never silently corrupted). A
    /// changed structure digest invalidates cached enabled rows only.
    /// Serial.
    bool attach(const CompiledNet& compiled);

    bool attached() const noexcept { return store_.has_value(); }
    ConcurrentMarkingStore& store() noexcept { return *store_; }
    const ConcurrentMarkingStore& store() const noexcept { return *store_; }

    /// Starts a pass: returns the fresh epoch whose claims are current.
    /// Serial.
    std::uint32_t begin_pass() noexcept { return ++epoch_; }
    std::uint32_t epoch() const noexcept { return epoch_; }

    /// Row invalidations seen so far (attach calls that changed the
    /// structure digest) — observability for tests and benches.
    std::size_t row_invalidations() const noexcept { return invalidations_; }

    /// Attach refusals so far (record-dimension mismatches): each one is
    /// a pass that silently went scratch despite reuse being requested.
    /// Surfaced through MultiResult::reuse_fallback and the flow layer's
    /// rap_reuse_fallbacks_total metric, so an incremental sweep that
    /// quietly stopped being incremental is visible, not inferred from
    /// wall-clock drift.
    std::size_t fallbacks() const noexcept { return fallbacks_; }

    /// The record's per-pass claim word: epoch << 32 | BFS depth.
    std::atomic_ref<std::uint64_t> claim(std::uint64_t* record) const noexcept {
        return std::atomic_ref<std::uint64_t>(record[mwords_ + 1]);
    }

    /// Whether a record's cached enabled row matches the attached
    /// structure, given the claim word this pass's claim replaced: a
    /// claim that completed under the attached structure left a current
    /// row; a never-claimed record or an overflowed claim left none.
    bool row_valid(std::uint64_t prior_claim) const noexcept {
        return (prior_claim >> 32) >= rows_epoch_ &&
               static_cast<std::uint32_t>(prior_claim) != kOverflowDepth;
    }

    /// The record's cached enabled-set row.
    std::uint64_t* row(std::uint64_t* record) const noexcept {
        return record + mwords_ + 2;
    }

    std::size_t marking_words() const noexcept { return mwords_; }
    std::size_t enabled_words() const noexcept { return twords_; }

    /// Distinct markings resident across all passes so far — the
    /// incremental-sweep headline number (bench_incremental compares it
    /// against the deepest single run's state count).
    std::size_t interned_markings() const noexcept {
        return store_ ? store_->size() : 0;
    }

private:
    std::optional<ConcurrentMarkingStore> store_;
    std::uint64_t digest_ = 0;
    std::size_t mwords_ = 0;
    std::size_t twords_ = 0;
    std::uint32_t epoch_ = 0;  ///< claims at epoch 0 never match
    /// First epoch whose claims left rows for the attached structure.
    std::uint64_t rows_epoch_ = 1;
    std::size_t invalidations_ = 0;
    std::size_t fallbacks_ = 0;  ///< attach refusals (scratch fallbacks)
};

}  // namespace rap::petri
