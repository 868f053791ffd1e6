#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "asim/timed_sim.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/simulator.hpp"
#include "dfs/state.hpp"
#include "dfs/translate.hpp"
#include "netlist/netlist.hpp"
#include "petri/compiled.hpp"
#include "pipeline/builder.hpp"
#include "tech/voltage.hpp"
#include "verify/artifacts.hpp"
#include "verify/spec.hpp"
#include "verify/verifier.hpp"

namespace rap::flow {

/// Session-wide knobs, fixed at construction: they parameterise how the
/// derived artifacts are built, not what the model is. Validated by the
/// Design constructor (and therefore by make_design and flow::Sweep):
/// inconsistent options — a zero state cap, a process model whose
/// nominal voltage does not clear the freeze voltage, a non-positive
/// alpha exponent — throw std::invalid_argument with a message naming
/// the offending field, instead of surfacing as puzzling downstream
/// failures mid-verification or mid-simulation.
struct DesignOptions {
    verify::VerifyOptions verify{};          ///< state-space cap
    netlist::Library::Options library{};     ///< NCL-D mapping options
    tech::ProcessParams process{};           ///< voltage/leakage model
    /// Incremental re-verification: the session keeps one
    /// petri::ReuseStore across reconfigurations (set_depth /
    /// set_initial / reset_ring), so each verify() after a
    /// reconfiguration re-claims the markings, witness links and enabled
    /// rows already resident from earlier passes instead of re-interning
    /// them. Verdicts, witnesses and counters are bit-identical to
    /// scratch at the same thread count. A structural edit() drops the
    /// store (a different structure must not inherit rows; markings
    /// would survive an attach, but the session conservatively starts
    /// clean). Ignored when verify.reuse is set explicitly — then the
    /// caller owns the store's lifecycle (flow::Sweep's shared-store
    /// mode does this).
    bool incremental = false;
};

/// Throws std::invalid_argument if `options` is inconsistent (see
/// DesignOptions). Called by every Design constructor; exposed so batch
/// drivers can reject a bad configuration before spinning up workers.
void validate_options(const DesignOptions& options);

/// One design session over one DFS model — the paper's flow (dataflow
/// structure → Petri-net verification → direct mapping → silicon) as a
/// single object. The Design owns the model and lazily builds + caches
/// every derived artifact:
///
///   dynamics()        token-game semantics (structure-only)
///   compiled_model()  PN translation + CompiledNet (shared artifact)
///   verifier()        model checker over the shared artifact
///   netlist()         NCL-D direct mapping
///   timing()          per-node delay/energy annotation
///   timed_sim()       event-driven timed simulator over all of the above
///
/// Mutating the model invalidates exactly the artifacts it affects:
/// reconfiguration (set_depth / set_initial / reset_ring) changes only
/// initial markings, so the PN-derived artifacts rebuild on next use
/// while the netlist mapping (structure-only) survives; a structural
/// edit() invalidates everything. Artifact (re)builds are counted —
/// pn_builds() / netlist_builds() — so tests and benches can assert the
/// caching contract.
///
/// ## Pinning contract (the one place it is documented)
///
/// A Design is pinned in place: no copies, no moves. Cached artifacts
/// (dynamics, verifier, netlist, timing) point into the owned graph, and
/// every reference the Design hands out stays valid only while the
/// Design itself stays at its address and alive. Consequences:
///
/// - Anything that needs to *store or move* sessions — containers,
///   `flow::Sweep` workers, hand-rolled pools — holds them through
///   `flow::make_design(...)`, which returns std::unique_ptr<Design>:
///   the pointer moves freely while the session stays pinned.
/// - References obtained from a Design (translation(), netlist(), ...)
///   must not outlive it; copy the data out if it must survive.
///
/// Constructors validate their DesignOptions (see validate_options) and
/// throw std::invalid_argument with a field-naming message on bad input.
class Design {
public:
    explicit Design(dfs::Graph graph, DesignOptions options = {});

    /// Wraps a built pipeline, keeping its stage handles available for
    /// reconfiguration (set_depth / ring access).
    explicit Design(pipeline::Pipeline pipeline, DesignOptions options = {});

    Design(const Design&) = delete;
    Design& operator=(const Design&) = delete;

    const dfs::Graph& graph() const noexcept;
    const std::string& name() const noexcept { return graph().name(); }
    const DesignOptions& options() const noexcept { return options_; }

    bool has_pipeline() const noexcept { return pipeline_.has_value(); }
    /// The wrapped pipeline; throws std::logic_error for graph-backed
    /// designs.
    const pipeline::Pipeline& pipeline() const;

    // -- reconfiguration (initial-marking mutations) --------------------
    // These model writing the chip's `config` input between runs: the
    // structure is untouched, so only the PN-derived artifacts (which
    // encode the initial marking) are invalidated.

    /// pipeline::set_depth on the wrapped pipeline. Throws
    /// std::logic_error ("set_depth needs a pipeline-backed design") for
    /// graph-backed designs, std::invalid_argument for an out-of-range
    /// depth or a bypassed static stage (see pipeline::set_depth). On
    /// any throw the model, the cached artifacts, revision() and the
    /// build counters are all untouched — a failed reconfiguration
    /// leaves the session exactly as it was.
    void set_depth(int depth);

    /// dfs::Graph::set_initial with artifact invalidation.
    void set_initial(dfs::NodeId node, bool marked,
                     dfs::TokenValue token = dfs::TokenValue::True);

    /// pipeline::reset_ring with artifact invalidation (the mis-init
    /// seeding hook of the Section III-A workflow).
    void reset_ring(const pipeline::ControlRing& ring,
                    dfs::TokenValue polarity);

    // -- structural edits ------------------------------------------------

    /// Mutable access to the model for structural edits (adding nodes or
    /// arcs). Invalidates EVERY cached artifact. For pipeline-backed
    /// designs the stage handles keep pointing at the original nodes.
    dfs::Graph& edit();

    // -- cached artifacts ------------------------------------------------

    const dfs::Dynamics& dynamics() const;
    std::shared_ptr<const verify::CompiledModel> compiled_model() const;
    const dfs::Translation& translation() const;
    const petri::CompiledNet& compiled_net() const;
    const verify::Verifier& verifier() const;
    const netlist::Netlist& netlist() const;
    const asim::TimingMap& timing() const;

    // -- verification -----------------------------------------------------

    /// All standard checks (deadlock, control conflict, persistence) in
    /// one exploration.
    verify::Report verify() const;

    /// Exactly the properties `spec` asks for, one exploration.
    verify::Report verify(const verify::Spec& spec) const;

    /// Memory footprint of the most recent verification exploration
    /// (records, resident bytes, peak) — the capacity-planning surface
    /// for the deep OPE configurations. std::nullopt until a verify()
    /// has run in this session (model mutations do not reset it; the
    /// last completed exploration's footprint stays readable).
    std::optional<petri::MemoryStats> memory_stats() const;

    /// Partial-order-reduction statistics of the most recent verification
    /// exploration (inactive unless options.verify.por was on).
    /// std::nullopt until a verify() has run in this session; like
    /// memory_stats(), the last completed exploration's numbers stay
    /// readable across model mutations.
    std::optional<petri::PorStats> por_stats() const;

    /// Verification passes of this session that requested cross-pass
    /// reuse but ran scratch (dimension mismatch after a topology
    /// change). Accumulated across verifier rebuilds, so the
    /// count survives reconfigurations — a session whose "incremental"
    /// sweeps silently went cold shows it here (and in the flow metrics
    /// as rap_reuse_fallbacks_total).
    std::size_t reuse_fallbacks() const noexcept;

    // -- checkpointing ----------------------------------------------------

    /// Points verification checkpointing at `path` (empty disables):
    /// subsequent explorations periodically serialize a
    /// petri::StoreCheckpoint there. `every` is the cadence in expanded
    /// states, checked at BFS layer boundaries — the same at every
    /// thread count (1 = every layer; 0 = the engine default, 65536).
    /// Not a model mutation — cached artifacts other than the verifier
    /// survive, and revision() does not change.
    void set_checkpoint(std::string path, std::size_t every = 0);

    /// Makes the next exploration resume from a loaded checkpoint
    /// instead of the initial marking (pass nullptr to clear). The
    /// checkpoint must match the session's net structure; the engine
    /// refuses anything else loudly. One-shot in spirit: callers clear or
    /// replace it after the resumed pass completes.
    void set_resume(std::shared_ptr<const petri::StoreCheckpoint> resume);

    /// The checkpoint path explorations currently write to ("" = off).
    const std::string& checkpoint_path() const noexcept {
        return options_.verify.checkpoint_path;
    }

    // -- simulation -------------------------------------------------------

    dfs::State initial_state() const;

    /// Untimed random token game over the cached dynamics.
    dfs::Simulator simulator(std::uint64_t seed = 1) const;

    /// Event-driven timed simulator annotated from the mapped netlist
    /// (delays, energies, leakage gate count) under the given supply
    /// schedule.
    asim::TimedSimulator timed_sim(tech::VoltageSchedule schedule) const;

    /// timed_sim at a constant nominal supply.
    asim::TimedSimulator timed_sim() const;

    // -- exports ----------------------------------------------------------

    std::string to_dot() const;      ///< Graphviz rendering of the model
    std::string to_astg() const;     ///< .g (petrify/Workcraft) of the PN
    std::string to_verilog() const;  ///< Verilog of the mapped netlist

    // -- cache observability ----------------------------------------------

    /// Times the PN translation + CompiledNet artifact was (re)built for
    /// this design. At most one build per model mutation.
    std::size_t pn_builds() const noexcept { return pn_builds_; }

    /// Times the netlist mapping was (re)built for this design.
    std::size_t netlist_builds() const noexcept { return netlist_builds_; }

    /// Bumped on every model mutation (reconfiguration or edit()).
    std::size_t revision() const noexcept { return revision_; }

    /// The session's cross-pass marking store (DesignOptions::
    /// incremental): null until the first verifier() build, and reset to
    /// null by edit(). Exposed so tests and benches can read
    /// interned_markings() / row_invalidations() between passes.
    const std::shared_ptr<petri::ReuseStore>& reuse_store() const noexcept {
        return reuse_;
    }

private:
    dfs::Graph& graph_mut() noexcept;
    void invalidate_marking_artifacts();
    void invalidate_all_artifacts();
    /// Drops the cached verifier after folding its counters and stats
    /// into the session-level accumulators (so nothing observable resets).
    void flush_verifier() const;

    DesignOptions options_;
    /// Exactly one of the two holds the model.
    std::optional<pipeline::Pipeline> pipeline_;
    std::optional<dfs::Graph> graph_;

    mutable std::optional<dfs::Dynamics> dynamics_;
    mutable std::shared_ptr<const verify::CompiledModel> model_;
    mutable std::optional<verify::Verifier> verifier_;
    /// Cross-pass store (DesignOptions::incremental): survives
    /// reconfiguration invalidation, dropped by edit().
    mutable std::shared_ptr<petri::ReuseStore> reuse_;
    mutable std::unique_ptr<netlist::Netlist> netlist_;
    mutable std::optional<asim::TimingMap> timing_;

    mutable std::size_t pn_builds_ = 0;
    mutable std::size_t netlist_builds_ = 0;
    std::size_t revision_ = 0;
    /// Reuse-requested-but-scratch passes folded in from dropped
    /// verifiers; reuse_fallbacks() adds the live verifier's share.
    mutable std::size_t reuse_fallbacks_ = 0;
    /// Footprint of the last completed exploration, surviving verifier
    /// invalidation so memory_stats() keeps answering after reconfigure.
    mutable std::optional<petri::MemoryStats> last_memory_;
    /// Same survival contract for the reduction statistics.
    mutable std::optional<petri::PorStats> last_por_;
};

/// Heap-pinned session factory: the way to own a Design that has to be
/// stored, moved or pooled (Design itself is non-movable — see the
/// pinning contract above). flow::Sweep holds its per-configuration
/// sessions through exactly this.
std::unique_ptr<Design> make_design(dfs::Graph graph,
                                    DesignOptions options = {});
std::unique_ptr<Design> make_design(pipeline::Pipeline pipeline,
                                    DesignOptions options = {});

}  // namespace rap::flow
