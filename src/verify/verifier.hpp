#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "petri/checkpoint.hpp"
#include "petri/parallel.hpp"
#include "petri/persistence.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "verify/artifacts.hpp"
#include "verify/spec.hpp"

namespace rap::verify {

/// The properties the Workcraft/MPSAT flow checks on DFS models
/// (Section II-D): the standard ones (deadlock) plus the custom functional
/// hazards of the dynamic extension (control-token conflicts,
/// non-persistence) expressed in Reach on the translated Petri net.
enum class Property {
    Deadlock,
    ControlConflict,
    Persistence,
    Custom,
};

std::string_view to_string(Property property);

/// Outcome of one property check.
struct Finding {
    Property property = Property::Custom;
    bool violated = false;
    bool truncated = false;          ///< state space cap hit — inconclusive
    std::size_t states_explored = 0;
    std::string detail;              ///< human-readable violation summary
    std::vector<std::string> trace;  ///< PN firing trace witness
    /// The same witness translated back to DFS-level events through the
    /// translation's name map ("push filt destroys a bypassed token"
    /// instead of "Mf_filt+") — the debugging aid of Section III-A,
    /// aligned entry-for-entry with `trace`.
    std::vector<std::string> dfs_trace;
    /// The witness as typed DFS events, aligned entry-for-entry with
    /// `trace` — machine-readable (unlike dfs_trace) so it can feed
    /// TimedSimulator::set_stimulus directly for witness replay on the
    /// timed simulator.
    std::vector<dfs::Event> event_trace;

    std::string to_string() const;
};

struct VerifyOptions {
    std::size_t max_states = 2'000'000;
    /// Worker threads for the state-space exploration
    /// (petri::ParallelReachabilityExplorer): 0 = one per hardware
    /// thread. One verification pass answers every property in one
    /// exploration, and reports — verdicts, canonical witness traces,
    /// states_explored — are identical at every thread count, 1
    /// included.
    std::size_t threads = 0;
    /// Partial-order (stubborn-set) reduction forwarded to the
    /// exploration engine (petri::ReachabilityOptions::por). Verdicts
    /// are preserved for every property the verifier checks — the
    /// standard goals carry support places, so the unknown-support
    /// fallback never triggers for Spec::standard() — but
    /// states_explored counts the reduced graph and violation witnesses
    /// need not be globally shortest. por_stats() reports the measured
    /// reduction after a pass.
    bool por = false;
    /// Cooperative stop hook forwarded to the exploration engine
    /// (petri::ReachabilityOptions::stop): polled cheaply mid-pass; when
    /// it returns true the exploration ends early and every finding of
    /// the pass reports `truncated = true` (inconclusive). flow::Sweep
    /// drives cancellation and per-configuration timeouts through this.
    /// Must not throw. Null (the default) never stops.
    std::function<bool()> stop;
    /// Cross-pass marking-store retention forwarded to the exploration
    /// engine (petri::ReachabilityOptions::reuse) — the incremental
    /// re-verification hook. Passes sharing one store re-claim resident
    /// markings (and their cached enabled rows) instead of re-interning
    /// them, which pays off when consecutive verifications differ only
    /// in the net's initial marking (flow::Design reconfigurations).
    /// Verdicts, witnesses and counters are bit-identical to scratch;
    /// dimension mismatches fall back to scratch (counted in
    /// reuse_fallbacks()). The same store must not be used by two
    /// explorations concurrently.
    std::shared_ptr<petri::ReuseStore> reuse;
    /// Periodic checkpointing (petri::ReachabilityOptions::
    /// checkpoint_path): when non-empty, every exploration this verifier
    /// runs serializes resume points there. See the engine option for
    /// the cadence and the no-reuse restriction.
    std::string checkpoint_path;
    /// Cadence in expanded states, forwarded to
    /// petri::ReachabilityOptions::checkpoint_every (0 = engine default).
    std::size_t checkpoint_every = 0;
    /// Resume point forwarded to petri::ReachabilityOptions::resume: the
    /// next exploration continues the checkpointed pass instead of
    /// starting at the initial marking.
    std::shared_ptr<const petri::StoreCheckpoint> resume;
};

/// Aggregate report of a full verification pass. Findings are always in
/// the canonical deterministic order — Deadlock, ControlConflict,
/// Persistence, then custom properties in their registration order —
/// regardless of how the Spec was assembled.
struct Report {
    std::vector<Finding> findings;

    bool clean() const {
        for (const auto& f : findings) {
            if (f.violated) return false;
        }
        return true;
    }

    /// First finding of the given property; nullptr when the pass did not
    /// check it.
    const Finding* find(Property property) const {
        for (const auto& f : findings) {
            if (f.property == property) return &f;
        }
        return nullptr;
    }

    /// One line per finding, in the canonical order documented above.
    std::string to_string() const;
};

/// Verifies DFS models by translating them to their Petri-net semantics
/// and model-checking the result — the same pipeline the paper automates
/// in Workcraft with the MPSAT backend.
///
/// Construction is cheap when the model was compiled before: the
/// translation + CompiledNet artifact comes from the shared
/// verify::compile_model cache, so sequential constructions (and copies)
/// over the same model content share ONE compile.
class Verifier {
public:
    explicit Verifier(const dfs::Graph& graph, VerifyOptions options = {});

    /// Shares an externally cached artifact (flow::Design's constructor
    /// path). `model` must have been compiled from `graph`'s current
    /// content.
    Verifier(const dfs::Graph& graph,
             std::shared_ptr<const CompiledModel> model,
             VerifyOptions options = {});

    /// Runs exactly the properties `spec` asks for, sharing ONE
    /// state-space exploration across all of them, and reports findings
    /// in the canonical order.
    Report verify(const Spec& spec) const;

    /// Reachability of a marking with no enabled transitions.
    Finding check_deadlock() const;

    /// Reachability of a marking where some node's control preset is
    /// fully marked with mixed True/False tokens — the "disabled node"
    /// hazard of Section II-B.
    Finding check_control_conflict() const;

    /// Output persistence of the PN, exempting the intended Mt+/Mf+
    /// free choices of control registers (Fig. 4's non-deterministic
    /// evaluation outcome is a choice, not a hazard).
    Finding check_persistence() const;

    /// Reachability of a custom Reach-style predicate.
    Finding check_custom(const petri::Predicate& predicate,
                         std::string description) const;

    /// Runs all standard checks — deadlock, control conflict, persistence
    /// — in ONE state-space exploration; shorthand for
    /// verify(Spec::standard()). Custom properties go through
    /// verify(Spec) (the Spec owns its predicates).
    Report verify_all() const;

    /// Number of state-space explorations this verifier has run so far.
    /// Lets callers (and tests) confirm verify_all's single-pass claim.
    std::size_t explorations_run() const noexcept { return explorations_; }

    /// True once at least one exploration has run, i.e. memory_stats()
    /// reports a real footprint rather than its all-zero initial state.
    bool has_memory_stats() const noexcept { return explorations_ > 0; }

    /// Memory footprint of the most recent exploration (records, resident
    /// and peak bytes) — all zeros until one has run; check
    /// has_memory_stats() (flow::Design::memory_stats() wraps this in a
    /// std::optional instead).
    const petri::MemoryStats& memory_stats() const noexcept {
        return last_memory_;
    }

    /// True once at least one exploration has run, i.e. por_stats()
    /// reports the last pass rather than its all-zero initial state.
    bool has_por_stats() const noexcept { return explorations_ > 0; }

    /// Reduction statistics of the most recent exploration (inactive
    /// unless VerifyOptions::por was on and the pass could reduce);
    /// all-zero until one has run — check has_por_stats()
    /// (flow::Design::por_stats() wraps this in a std::optional instead).
    const petri::PorStats& por_stats() const noexcept { return last_por_; }

    /// Explorations that requested cross-pass reuse but ran scratch (a
    /// record-dimension mismatch). A nonzero count means
    /// the "incremental" speed-up silently stopped being incremental —
    /// flow::Design aggregates this into rap_reuse_fallbacks_total.
    std::size_t reuse_fallbacks() const noexcept {
        return reuse_fallbacks_;
    }

    const dfs::Translation& translation() const noexcept {
        return model_->translation();
    }

    /// The shared compiled artifact backing this verifier.
    const std::shared_ptr<const CompiledModel>& model() const noexcept {
        return model_;
    }

private:
    Finding from_reachability(Property property,
                              const petri::ReachabilityResult& result,
                              std::string detail_on_violation) const;
    Finding persistence_finding(const petri::MultiResult& multi) const;
    void fill_traces(Finding& finding, const petri::Trace& trace) const;

    /// The control-conflict Reach predicate; nullopt when no node has
    /// multiple controls (trivially safe, nothing to explore).
    std::optional<petri::Predicate> control_conflict_predicate() const;
    static bool persistence_exempt(const petri::Net& net,
                                   petri::TransitionId a,
                                   petri::TransitionId b);

    Report run_spec(const Spec& spec, bool stop_at_first) const;
    petri::MultiResult run_exploration(const petri::MultiQuery& query,
                                       bool stop_at_first_match) const;

    const dfs::Graph* graph_;
    VerifyOptions options_;
    std::shared_ptr<const CompiledModel> model_;
    mutable std::size_t explorations_ = 0;
    mutable std::size_t reuse_fallbacks_ = 0;
    mutable petri::MemoryStats last_memory_;
    mutable petri::PorStats last_por_;
};

}  // namespace rap::verify
