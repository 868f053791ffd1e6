#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/por.hpp"
#include "petri/predicate.hpp"

namespace rap::petri {

class ReuseStore;       // petri/reuse.hpp — cross-pass store retention
class StoreCheckpoint;  // petri/checkpoint.hpp — serialized resume point

/// A firing sequence from the initial marking, used as counterexample
/// witness (what MPSAT prints as a violation trace).
struct Trace {
    std::vector<TransitionId> firings;

    std::string to_string(const Net& net) const;
};

/// Options of one ParallelReachabilityExplorer pass (petri/parallel.hpp).
/// Results do not depend on `threads` or `reuse`.
struct ReachabilityOptions {
    /// Exploration stops (with `truncated = true`) beyond this many states.
    std::size_t max_states = 2'000'000;
    /// When set, exploration stops at the end of the BFS layer holding
    /// the first marking satisfying the goal predicate (for multi-goal
    /// queries: once every goal matched) instead of exhausting the state
    /// space.
    bool stop_at_first_match = true;
    /// Worker threads: 0 = one per hardware thread. Results (states,
    /// edges, verdicts, witnesses) are identical at every count; one
    /// worker runs the same layer-synchronous pass inline.
    std::size_t threads = 0;
    /// Partial-order (stubborn-set) reduction: expand a property-aware
    /// stubborn subset of each state's enabled set instead of all of it
    /// (see petri::PorContext). Verdicts are preserved — deadlock sets
    /// exactly, goal reachability and the persistence verdict through
    /// visibility conditions plus the BFS-queue ignoring proviso — while
    /// the explored state count can shrink by large factors on highly
    /// concurrent nets. Under reduction, witnesses remain genuine firing
    /// sequences but need not be globally shortest, a goal's witness
    /// marking may differ from the full pass's, states_explored/
    /// edges_explored count the *reduced* graph (still identical across
    /// thread counts), and collected persistence violations are a subset
    /// of the full pass's (non-emptiness — the verdict — is preserved).
    /// Passes carrying a goal with unknown support places fall back to
    /// full exploration (PorStats::active reports false).
    bool por = false;
    /// Cooperative stop hook: polled once per BFS layer (in the barrier's
    /// serial step) plus every 256 edges per worker. Returning true ends
    /// the exploration early with `truncated = true` — the mechanism
    /// behind flow::Sweep cancellation and per-configuration timeouts.
    /// May be invoked concurrently from worker threads, so it must be
    /// thread-safe for const access (reading atomics / the clock, as the
    /// sweep's deadline hook does, is fine). Must not throw. Null (the
    /// default) never stops.
    std::function<bool()> stop;
    /// Cross-pass store retention (incremental re-verification): when
    /// set, the exploration attaches to this shared ReuseStore and
    /// claims resident markings per-pass instead of re-interning them —
    /// see petri/reuse.hpp for the contract. Results are bit-identical
    /// to a scratch pass. Falls back to scratch when the store's record
    /// dimensions don't match the net — counted in
    /// ReuseStore::fallbacks() and MultiResult::reuse_fallback so a
    /// topology change degrading every "incremental" pass to cold is
    /// visible. Passes sharing one ReuseStore must be externally
    /// sequenced.
    std::shared_ptr<ReuseStore> reuse;
    /// When non-empty, the exploration periodically serializes a
    /// petri::StoreCheckpoint here (atomically: tmp file + rename) so a
    /// killed pass can resume instead of rerunning from t=0. Written in
    /// the barrier's serial step; incompatible with an attached
    /// ReuseStore. A failed write aborts the pass with ExplorationAborted
    /// rather than run a soak whose "checkpoints" silently don't exist.
    std::string checkpoint_path;
    /// Checkpoint cadence in expanded states, checked at BFS layer
    /// boundaries: a checkpoint is written at the first boundary after at
    /// least this many more states were expanded (1 = every layer). The
    /// same at every thread count; 0 picks the default, 65536.
    std::size_t checkpoint_every = 0;
    /// Resume point: continue a previously checkpointed exploration
    /// instead of starting from the initial marking. The checkpoint must
    /// come from the same net structure (structural digest) and record
    /// geometry — anything else throws std::runtime_error. The continued
    /// pass reproduces the uninterrupted run's (states, edges, verdicts,
    /// witnesses) exactly.
    std::shared_ptr<const StoreCheckpoint> resume;
};

/// Memory footprint of one exploration pass, for capacity planning at the
/// 19M-state scale (surfaced as ReachabilityResult/MultiResult::memory
/// and through verify::Verifier / flow::Design).
struct MemoryStats {
    std::size_t records = 0;        ///< interned markings
    std::size_t record_bytes = 0;   ///< arena-resident record payloads
    /// Record blocks + interning table + frontier bookkeeping, at
    /// the end of the pass (the enabled-row cache dies with the last
    /// layer, so only peak_bytes counts it).
    std::size_t resident_bytes = 0;
    /// Max resident over the pass, sampled at every layer boundary with
    /// the live enabled-row cache included.
    std::size_t peak_bytes = 0;
    /// Interning-table geometry (slots, load factor, table vs
    /// arena byte split) — the rap_store_* metrics source.
    StoreStats store;
};

/// Thrown when an exploration dies mid-pass — a goal predicate threw, a
/// checkpoint write failed — after states were already interned. Carries
/// the footprint at the moment of death so callers can still account for
/// partial-pass memory (flow::Sweep's peak-resident aggregation would
/// otherwise under-report exactly the contended runs that die).
class ExplorationAborted : public std::runtime_error {
public:
    ExplorationAborted(const std::string& what, MemoryStats stats)
        : std::runtime_error(what), memory(stats) {}

    MemoryStats memory;
};

struct ReachabilityResult {
    std::size_t states_explored = 0;
    std::size_t edges_explored = 0;
    bool truncated = false;
    MemoryStats memory;
    PorStats por;  ///< reduction statistics (inactive when por was off)

    /// Set when a goal predicate was supplied and matched. Always a match
    /// from the earliest BFS layer holding one (the canonical, smallest
    /// such marking), i.e. a shortest witness, regardless of
    /// stop_at_first_match.
    std::optional<Marking> witness;
    std::optional<Trace> witness_trace;

    /// All deadlocked markings found (populated by find_deadlocks /
    /// explore-with-deadlock-goal).
    std::vector<Marking> deadlocks;

    bool found() const noexcept { return witness.has_value(); }
};

/// A persistence violation: at `marking`, `disabled` was enabled, then
/// firing `fired` withdrew its enabling. In speed-independent circuit
/// terms this is a potential hazard — the paper reports hunting exactly
/// these (plus deadlocks) in the OPE DFS models.
struct PersistenceViolation {
    Marking marking;
    TransitionId fired;
    TransitionId disabled;
    Trace trace_to_marking;

    std::string to_string(const Net& net) const;
};

/// One exploration, many questions: reachability goals, deadlock
/// collection and persistence checking share a single BFS pass instead of
/// re-exploring the state space per property.
struct MultiQuery {
    /// Goal predicates, each answered independently with its first
    /// (BFS-shortest) witness.
    std::vector<const Predicate*> goals;
    /// Collect every deadlocked marking (find_deadlocks semantics).
    bool collect_deadlocks = false;
    /// Check output persistence along every explored edge.
    bool check_persistence = false;
    /// Transition pairs for which mutual disabling is *intended* choice
    /// (see PersistenceOptions::exempt).
    std::function<bool(const Net&, TransitionId, TransitionId)>
        persistence_exempt;
    /// Stop the whole exploration at the first persistence violation.
    bool persistence_stop_at_first = false;
    /// Keep at most this many violations (exploration continues so other
    /// questions still get exact answers).
    std::size_t persistence_max_violations = SIZE_MAX;
};

struct MultiResult {
    std::size_t states_explored = 0;
    std::size_t edges_explored = 0;
    bool truncated = false;
    MemoryStats memory;
    PorStats por;  ///< reduction statistics (inactive when por was off)

    /// One entry per MultiQuery::goals entry, all sharing the pass's
    /// states/edges/truncated counters.
    std::vector<ReachabilityResult> goals;

    std::vector<Marking> deadlocks;
    std::vector<PersistenceViolation> persistence_violations;

    /// True when ReachabilityOptions::reuse was set but this pass ran
    /// scratch anyway (record-dimension mismatch after a topology
    /// change). The
    /// verdicts are still exact; the incremental speed-up silently is
    /// not, which is why verify::Verifier and flow::Sweep count these
    /// into rap_reuse_fallbacks_total.
    bool reuse_fallback = false;
};

}  // namespace rap::petri
