#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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
/// Record layout is fixed at mwords + 2 + twords words: the marking
/// payload, two witness meta words (canonical-min link + scratch depth
/// word, matching the engine's scratch-pass layout), and the
/// full enabled-set row. Rows are cached per *structure*: markings are
/// content-addressed bit patterns and stay valid across any
/// same-dimension net, but a row is a function of (marking, arcs) — when
/// `attach` sees a different structure digest it bumps the geometry
/// revision, lazily invalidating every cached row while keeping the
/// markings and the interning table intact.
///
/// Per-pass state is epoch-tagged instead of bulk-cleared: each pass
/// calls `begin_pass()` and treats a record as reached only when its
/// claim word carries the current epoch. Claim words pack
/// (epoch << 32 | depth-or-order), with two sentinels in the low half
/// for a claim mid-publication and for a claim that lost the state-budget
/// race; stale claims from earlier epochs are simply never current, so a
/// pass starts in O(1) no matter how many records are resident.
///
/// Concurrency contract: `attach`, `begin_pass` and `ensure_capacity`
/// are serial (between passes / between layers at the engine's barrier);
/// `claim` words are accessed atomically by workers mid-layer; row
/// validity is read and written only by the record's claim winner.
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
    /// Grows the per-worker arena set to `workers` when needed. Serial.
    bool attach(const CompiledNet& compiled, std::size_t workers);

    bool attached() const noexcept { return store_.has_value(); }
    ConcurrentMarkingStore& store() noexcept { return *store_; }
    const ConcurrentMarkingStore& store() const noexcept { return *store_; }

    /// Starts a pass: returns the fresh epoch whose claims are current.
    /// Serial.
    std::uint32_t begin_pass() noexcept { return ++epoch_; }
    std::uint32_t epoch() const noexcept { return epoch_; }

    /// Bumped by attach() on a structure change; rows whose revision
    /// lags are stale.
    std::uint32_t geometry_rev() const noexcept { return geometry_rev_; }
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
    /// Callers must have ensured capacity past `id`.
    std::atomic<std::uint64_t>& claim(std::uint32_t id) noexcept {
        return claims_[id];
    }

    /// Whether the record's cached enabled row matches the attached
    /// structure. Claim-winner-only mid-pass.
    bool row_valid(std::uint32_t id) const noexcept {
        return row_rev_[id] == geometry_rev_;
    }
    void set_row_valid(std::uint32_t id) noexcept {
        row_rev_[id] = geometry_rev_;
    }

    /// Grows the claim/row-revision arrays to cover ids below `n`.
    /// Serial (the engine calls it where it provisions the store).
    void ensure_capacity(std::size_t n);

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
    std::uint32_t epoch_ = 0;         ///< claims at epoch 0 never match
    std::uint32_t geometry_rev_ = 1;  ///< row_rev_ entries start stale
    std::size_t invalidations_ = 0;
    std::size_t fallbacks_ = 0;  ///< attach refusals (scratch fallbacks)
    std::size_t claim_cap_ = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> claims_;
    std::vector<std::uint32_t> row_rev_;
};

}  // namespace rap::petri
