#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"

namespace rap::petri {

/// Reduction statistics of one exploration pass (ReachabilityResult /
/// MultiResult::por). All counters are deterministic: the reduced state
/// graph depends only on the net and the query, never on scheduling, so
/// the same pass reports the same numbers at every thread count.
struct PorStats {
    /// Reduction actually ran. False when ReachabilityOptions::por was
    /// off or the pass had to fall back to full exploration (a goal
    /// predicate with unknown support places).
    bool active = false;
    std::size_t expansions = 0;  ///< states expanded by the pass
    /// States expanded with a proper stubborn subset of their enabled set.
    std::size_t reduced_expansions = 0;
    /// Reduced expansions widened back to the full enabled set by the
    /// BFS-queue ignoring proviso (no stubborn successor was fresh).
    std::size_t proviso_expansions = 0;
    /// Sum of |enabled| over expanded states (the full-exploration work).
    std::size_t enabled_transitions = 0;
    /// Sum of |expanded| over expanded states (the work actually done);
    /// expanded == ample plus any proviso widening.
    std::size_t expanded_transitions = 0;

    /// Enabled transitions skipped thanks to the reduction.
    std::size_t ignored() const noexcept {
        return enabled_transitions - expanded_transitions;
    }

    void merge(const PorStats& other) noexcept {
        active = active || other.active;
        expansions += other.expansions;
        reduced_expansions += other.reduced_expansions;
        proviso_expansions += other.proviso_expansions;
        enabled_transitions += other.enabled_transitions;
        expanded_transitions += other.expanded_transitions;
    }
};

/// What a pass needs preserved, distilled from MultiQuery by the engine:
/// the goal predicates drive the visibility condition, persistence adds
/// the conflict-pair visibility and the exempt filter.
struct PorRequest {
    std::vector<const Predicate*> goals;
    bool check_persistence = false;
    std::function<bool(const Net&, TransitionId, TransitionId)>
        persistence_exempt;
};

/// Property-aware stubborn-set (ample/persistent-set) reduction for the
/// reachability engine, built on the same "safe enabling" semantics as
/// CompiledNet:
///
///   enabled(t) <=> require(t) = pre ∪ read all marked
///               && forbid(t)  = post ∖ pre all unmarked
///
/// Static tables (construction, one pass each over the net's arcs):
///
/// - toggle sets: ton(t) = post ∖ pre (= forbid(t)), toff(t) = pre ∖ post
/// - per-place producers (p ∈ ton) and unmarkers (p ∈ toff)
/// - a symmetric *disabling* dependence CSR:
///     dependent(t,u) <=> toff(t)∩require(u) ≠ ∅ ∨ ton(t)∩forbid(u) ≠ ∅
///                      ∨ (the same with t and u swapped)
///   Transitions outside dependent(t) can neither disable t nor race its
///   effect: under 1-safe contact-free semantics every shared-toggle case
///   either implies mutual disabling (covered) or the pair can never be
///   co-enabled, so independent firings commute.
///
/// Per state, reduce() closes a seed transition under
///
///   D1  enabled t in the set  -> all of dependent(t) joins
///   D2  disabled t in the set -> the necessary enablers of ONE
///       unsatisfied condition join (producers of an unmarked required
///       place, or unmarkers of a marked forbidden place — the smallest
///       such list, deterministically tie-broken)
///
/// and returns ample = closure ∩ enabled. Every enabled member is a key
/// transition, so all deadlocks of the full graph stay reachable and the
/// reduced deadlock set is *exactly* the full one. Goal reachability and
/// persistence additionally require the visibility condition (a proper
/// ample set contains no transition that can change a watched predicate)
/// and the BFS-queue ignoring proviso, which the engine applies through
/// proviso_needed() and its layer bookkeeping. The choice of ample set
/// depends only on (marking, enabled set, static tables), so the reduced
/// state graph — and every verdict and counter derived from it — is
/// identical across thread counts.
class PorContext {
public:
    PorContext(const CompiledNet& compiled, const PorRequest& request);

    /// False when some goal predicate has unknown support places — the
    /// pass cannot tell which transitions are visible to it, so the
    /// engine must fall back to full exploration.
    bool active() const noexcept { return active_; }

    /// True when a visibility-sensitive property (a non-deadlock goal or
    /// persistence) is present: proper ample sets must then contain no
    /// visible transition and the engine must apply the ignoring
    /// proviso. Deadlock-only passes skip both and reduce harder.
    bool proviso_needed() const noexcept { return proviso_; }

    /// Per-thread scratch for reduce(); reusable across states.
    struct Scratch {
        std::vector<std::uint32_t> stamp;  ///< closure membership, epoched
        std::uint32_t epoch = 0;
        std::vector<std::uint32_t> queue;  ///< closure worklist / members
        std::vector<std::uint64_t> best;   ///< best ample bitset so far
    };

    /// Computes a stubborn subset of `enabled` at `marking` into `ample`
    /// (enabled_words() words). Returns true when ample is a *proper*
    /// subset worth expanding instead of the full enabled set; false
    /// means no admissible reduction was found (expand everything,
    /// `ample` contents are unspecified). Deterministic in its inputs.
    bool reduce(const std::uint64_t* marking, const std::uint64_t* enabled,
                std::uint64_t* ample, Scratch& scratch) const;

private:
    struct Csr {
        std::vector<std::uint32_t> off;    // n + 1 entries
        std::vector<std::uint32_t> items;  // sorted within each row
        std::span<const std::uint32_t> row(std::uint32_t i) const noexcept {
            return {items.data() + off[i], items.data() + off[i + 1]};
        }
    };
    static Csr build_csr(std::size_t rows,
                         const std::vector<std::vector<std::uint32_t>>& adj);
    void mark_togglers_visible(std::uint32_t place);
    void mark_enabledness_support_visible(std::uint32_t transition);

    const Net* net_;
    std::size_t transition_count_;
    std::size_t marking_words_;
    std::size_t enabled_words_;
    bool active_ = true;
    bool proviso_ = false;

    Csr require_;    // transition -> places (pre ∪ read)
    Csr forbid_;     // transition -> places (post ∖ pre)
    Csr producers_;  // place -> transitions with p ∈ ton  (can mark p)
    Csr unmarkers_;  // place -> transitions with p ∈ toff (can unmark p)
    Csr dependent_;  // symmetric disabling dependence
    std::vector<std::uint8_t> visible_;
    std::vector<std::uint8_t> support_marked_;  // memo for persistence viz

    static constexpr int kSeedTrials = 8;
};

}  // namespace rap::petri
