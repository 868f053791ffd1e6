#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"

namespace rap::petri {

/// Concurrent interned store of markings, the exploration engine's dedup
/// table. A record (marking payload + caller-owned meta words) lives at
/// a position derived from its dense id (`record = blocks[id >> shift] +
/// (id & mask) * record_words`), so the id IS the back-reference: there
/// is no id->record index and no per-worker arena. One shared
/// open-addressing table holds packed (hash fragment | id) slots claimed
/// by CAS; ids stay dense (discovery order of the whole pass) via a shared
/// counter, so BFS bookkeeping runs on plain arrays.
///
/// Blocks are zero-provisioned by `reserve` (serial, between layers): a
/// winning intern writes payload + pre-publication meta into its id's
/// record and publishes the table entry with release ordering, so every
/// meta word beyond `meta_init` reads zero until its owner writes it.
/// Probing is linear (robin-hood displacement is not lock-free) under a
/// 7/8 load ceiling.
///
/// Concurrency contract: `intern` may run from any worker concurrently;
/// everything else (`reserve`, reads of records the caller has not
/// itself published) must be separated from intern calls by an external
/// happens-before edge — the engine's per-layer barrier. Capacity is
/// fixed while workers run: `reserve` must have provisioned at least as
/// many records as the layer can insert (the engine bounds a layer's
/// inserts by the frontier's out-edge count).
class ConcurrentMarkingStore {
public:
    static constexpr std::uint32_t kNone = UINT32_MAX;

    ConcurrentMarkingStore(std::size_t marking_words, std::size_t meta_words);

    /// Records interned so far, clamped to the construction-independent
    /// `capacity_limit` the callers passed (losers of the capacity race
    /// bump the shared counter past the limit without owning a record).
    std::size_t size() const noexcept;

    const std::uint64_t* operator[](std::uint32_t id) const noexcept {
        return record(id);
    }
    std::uint64_t* record_mut(std::uint32_t id) noexcept { return record(id); }
    std::size_t meta_offset() const noexcept { return words_; }

    struct InternResult {
        std::uint32_t id = kNone;  ///< kNone when the limit blocked insert
        bool inserted = false;
    };

    /// Thread-safe lookup-or-insert. `capacity_limit` is the max_states
    /// cap (ids are only ever allocated below it, so when an insert fails
    /// on capacity exactly `capacity_limit` records exist).
    ///
    /// The first `meta_init_words` words of the record's meta area are
    /// copied from `meta_init` BEFORE the id is published, so concurrent
    /// readers of a freshly interned record always see them initialised
    /// (the canonical-min witness link depends on this). Any remaining
    /// meta words start zeroed and belong to the inserting caller until
    /// the next barrier publishes them.
    InternResult intern(const std::uint64_t* words,
                        std::size_t capacity_limit,
                        const std::uint64_t* meta_init = nullptr,
                        std::size_t meta_init_words = 0);

    /// Serial (between-layers): ensures the table and the record blocks
    /// can absorb `needed` records without any mid-layer growth.
    /// Rehashing recomputes record hashes instead of caching one word
    /// per id — O(records) per doubling, in exchange for 8 fewer resident
    /// bytes per record for the whole pass.
    void reserve(std::size_t needed);

    /// Serial lookup without insertion; kNone when absent.
    std::uint32_t find(const std::uint64_t* words) const noexcept;

    /// Bytes of the provisioned record blocks.
    std::size_t record_bytes() const noexcept;

    /// Record blocks + interning table. Serial only.
    std::size_t resident_bytes() const noexcept;

    /// Interning-table geometry for rap_store_* metrics. Serial only.
    StoreStats stats() const noexcept;

private:
    std::uint64_t hash(const std::uint64_t* words) const noexcept;

    std::uint64_t* record(std::uint32_t id) const noexcept {
        return blocks_[id >> shift_].get() +
               static_cast<std::size_t>(id & mask_) * record_words_;
    }

    // Slot states: empty, pending (claimed, record not yet published),
    // or final packed (hash fragment << 32 | id). Pending carries the
    // claimant's hash fragment so probes for other fragments skip past
    // without waiting. kCapacityId resolves a claim that lost the
    // capacity race — every prober treats it as "store full".
    static constexpr std::uint64_t kEmptySlot = UINT64_MAX;
    static constexpr std::uint32_t kPendingId = UINT32_MAX - 1;
    static constexpr std::uint32_t kCapacityId = UINT32_MAX - 2;
    static std::uint64_t pack(std::uint64_t h, std::uint32_t id) noexcept {
        return (h & 0xFFFFFFFF00000000ULL) | id;
    }

    std::size_t words_;         ///< marking payload words (hashed, deduped)
    std::size_t record_words_;  ///< payload + meta words per record
    std::atomic<std::uint32_t> count_{0};
    std::size_t table_size_ = 0;  ///< power of two
    std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
    // Id-indexed zero-provisioned blocks, 2^shift_ records each. Only
    // `reserve` (serial) grows this, so worker reads of blocks_ race
    // nothing.
    std::size_t shift_ = 0;
    std::uint32_t mask_ = 0;
    std::size_t reserved_ = 0;  ///< records covered by blocks_
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
};

/// Layer-synchronous breadth-first reachability over 1-safe nets — the
/// one exploration engine. Each BFS layer is sharded across N worker
/// threads (work-stealing deques over contiguous frontier chunks) over
/// one shared immutable CompiledNet; workers intern successors through
/// the ConcurrentMarkingStore, discover the next layer into per-worker
/// lists, and meet at a barrier whose serial completion stitches the
/// frontier, grows the table, and settles per-goal hits. One worker runs
/// the same pass inline (no thread is spawned); results are identical at
/// every thread count, 1 included:
///  - states_explored / edges_explored / deadlock sets / persistence
///    violation sets / goal verdicts are those of the reachable graph
///    (for exhaustive passes; the reduced graph under POR).
///  - witnesses are BFS-shortest and canonical: a goal's witness marking
///    is the lexicographically smallest among the earliest layer's
///    matches, and its trace follows each state's lexicographically
///    smallest (parent marking, transition) in-edge from the previous
///    layer, maintained by CAS during exploration.
///  - truncation stops with `truncated = true` and states_explored ==
///    max_states exactly (ids are allocated densely below the cap; there
///    is no overshoot slack).
///  - with stop_at_first_match (or persistence_stop_at_first) the pass
///    stops at the end of the layer that resolved it. The cooperative
///    stop hook is honoured both at layer granularity and every 256
///    per-worker edges (so wide or heavily reduced layers cannot
///    postpone a timeout).
///
/// With ReachabilityOptions::reuse set, the pass runs against the shared
/// ReuseStore instead of a private store: markings, witness links and
/// enabled rows resident from earlier passes are claimed per-epoch
/// rather than re-interned, and every result above is bit-identical to
/// the scratch pass (states_explored counts this pass's reached set, not
/// the store's resident records).
///
/// Goal predicates and the persistence exemption callback are invoked
/// concurrently from worker threads and must be thread-safe for const
/// access (every predicate built from Predicate atoms/connectives is).
class ParallelReachabilityExplorer {
public:
    explicit ParallelReachabilityExplorer(const Net& net,
                                          ReachabilityOptions options = {});

    /// Runs on an externally owned CompiledNet (the verify::CompiledModel
    /// / flow::Design sharing hook). The artifact must outlive the
    /// explorer; it is never written to, so any number of explorers and
    /// verifiers can share it concurrently.
    explicit ParallelReachabilityExplorer(const CompiledNet& compiled,
                                          ReachabilityOptions options = {});

    ReachabilityResult find(const Predicate& goal);
    std::vector<ReachabilityResult> find_all(
        std::span<const Predicate* const> goals);
    MultiResult run_query(const MultiQuery& query);
    ReachabilityResult find_deadlocks();
    ReachabilityResult explore_all();
    std::size_t count_states();

    const CompiledNet& compiled() const noexcept { return *compiled_; }

    /// Worker threads a pass will use (options.threads resolved).
    std::size_t threads() const noexcept { return threads_; }

    /// 0 -> hardware_concurrency (at least 1), else the request itself.
    static std::size_t resolve_threads(std::size_t requested) noexcept;

private:
    const Net& net_;
    ReachabilityOptions options_;
    std::optional<CompiledNet> owned_;  ///< set by the Net constructor only
    const CompiledNet* compiled_;       ///< owned_ or the shared artifact
    std::size_t threads_;
};

}  // namespace rap::petri
