#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "petri/por.hpp"

namespace rap::petri {

/// Serialized resume point of one reachability exploration: the interned
/// marking arena (payload + meta words, in dense id order), the BFS
/// frontier, and every per-pass verdict accumulator — enough that the
/// engine handed this object continues to the exact
/// `(states, edges, verdicts, witnesses)` of the uninterrupted run.
///
/// The on-disk format is versioned, checksummed and mmap-friendly: a
/// fixed-width little-endian header of 64-bit words, the variable-length
/// cursor arrays, then the record payload as one contiguous 8-byte-aligned
/// word run (by far the dominant section at the 100M-state tier — a
/// future reader can map it and hand the engine the mapping directly),
/// closed by an FNV-1a checksum over everything before it. `load` rejects
/// a bad magic/version, a truncated file and a checksum mismatch loudly
/// (std::runtime_error) — a corrupted checkpoint must never resume as a
/// silently wrong exploration.
///
/// What is deliberately NOT serialized: enabled-set rows (recomputed for
/// the frontier on resume — they are derived data and dominate transient
/// memory, not information) and memory statistics (machine-dependent).
class StoreCheckpoint {
public:
    /// One recorded persistence violation, by state id (materialized
    /// lazily at the end of the resumed pass, like in-pass ones).
    struct Violation {
        std::uint32_t state = 0;
        std::uint32_t depth = 0;  ///< BFS depth (canonical sort key)
        std::uint32_t fired = 0;
        std::uint32_t disabled = 0;
    };

    /// CompiledNet::structure_digest() of the explored net. Resume
    /// refuses a mismatch: after a structural edit the interned ids mean
    /// nothing (a reconfiguration that only flips initial markings also
    /// changes record 0, caught separately).
    std::uint64_t structure_digest = 0;
    std::uint32_t marking_words = 0;
    std::uint32_t meta_words = 0;

    /// Interned records in dense id order, `marking_words + meta_words`
    /// words each (payload first, then the meta words — witness link,
    /// depth). records.size() == record_count * that stride.
    std::uint64_t record_count = 0;
    std::vector<std::uint64_t> records;

    // -- pass counters / cursor ------------------------------------------
    std::uint64_t edges_explored = 0;
    /// BFS depth of `frontier`, whose ids are the stitched, deterministic
    /// discovery-order frontier of that layer.
    std::uint64_t depth = 0;
    std::vector<std::uint32_t> frontier;

    // -- verdict accumulators --------------------------------------------
    /// Per-goal first-hit state id, UINT32_MAX while unmatched. Sized by
    /// the checkpointed query's goal count; resume refuses a query whose
    /// goal count differs.
    std::vector<std::uint32_t> goal_hits;
    std::vector<std::uint32_t> deadlocks;  ///< deadlocked state ids
    std::vector<Violation> violations;
    PorStats por;

    std::size_t record_stride() const noexcept {
        return static_cast<std::size_t>(marking_words) + meta_words;
    }
    const std::uint64_t* record(std::uint64_t id) const noexcept {
        return records.data() + id * record_stride();
    }

    /// Atomic save: writes `path + ".tmp"` then renames over `path`, so a
    /// crash mid-write leaves the previous checkpoint intact. Throws
    /// std::runtime_error on any IO failure.
    void save(const std::string& path) const;

    /// Loads and fully validates framing (magic, version, section
    /// lengths, trailing checksum). Structural/geometry validation
    /// against a net happens at resume time, where the net is known.
    static StoreCheckpoint load(const std::string& path);
};

}  // namespace rap::petri
