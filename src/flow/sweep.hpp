#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/design.hpp"
#include "flow/metrics.hpp"
#include "pipeline/builder.hpp"
#include "tech/voltage.hpp"
#include "verify/spec.hpp"

namespace rap::flow {

namespace detail {
struct SweepState;
}

/// One point of a sweep's parameter grid, in stable grid order (stages
/// outermost, then depth, then voltage schedule).
struct SweepPoint {
    std::size_t index = 0;  ///< position in the expanded grid
    int stages = 0;
    int depth = 0;
    std::size_t schedule = 0;  ///< index into the schedules() axis
    std::string label;         ///< "s4/d3/v1"
};

enum class SweepStatus {
    kOk,         ///< verified (report may still be truncated by max_states)
    kInvalid,    ///< factory/options rejected the configuration
    kTimedOut,   ///< per-config timeout stopped the exploration
    kCancelled,  ///< Handle::cancel() hit before/while this config ran
};

std::string_view to_string(SweepStatus status);

/// One completed grid point, streamed through the on_result callback as
/// it finishes and collected (in grid order) by Handle::wait().
struct SweepResult {
    SweepPoint point;
    SweepStatus status = SweepStatus::kOk;
    std::string error;      ///< what() of the rejecting exception (kInvalid)
    verify::Report report;  ///< findings (kOk; truncated ones on kTimedOut)
    bool clean = false;     ///< report.clean() shortcut
    std::size_t states = 0;           ///< states explored by the pass
    double verify_seconds = 0.0;      ///< wall time of the verification
    /// Exploration footprint. Present on kOk and kTimedOut rows, and on
    /// kInvalid rows whose exploration died mid-pass (the partial pass's
    /// interned footprint is real and counts toward the sweep's
    /// peak-resident aggregate) — absent only when no exploration ran at
    /// all (factory rejection, cancellation before start).
    std::optional<petri::MemoryStats> memory;
    /// Passes of this row's session that requested cross-pass reuse but
    /// ran scratch (shared-store chains gone cold after a topology
    /// change) — aggregated into rap_reuse_fallbacks_total.
    std::size_t reuse_fallbacks = 0;
    /// Partial-order-reduction statistics of the verification pass
    /// (sweeps verify with reduction on by default — Sweep::por()).
    std::optional<petri::PorStats> por;
    /// Wall seconds for one nominal-speed second of work under this
    /// point's voltage schedule (+inf when the supply never recovers
    /// above the freeze voltage) — the schedule axis' figure of merit.
    double schedule_finish_s = 0.0;
};

/// Batch design-space sweep driver: the paper's verification flow as a
/// high-traffic workload. A fluent grid builder expands depth × stage
/// count × voltage schedule into configurations, schedules one
/// flow::Design session per configuration over a worker pool, and
/// streams SweepResult rows as they complete:
///
///     auto results =
///         flow::Sweep::ope()                 // reconfigurable OPE factory
///             .stages({3, 4, 5})
///             .depths(1, 6)                  // invalid combos -> kInvalid
///             .schedules({nominal, droop})
///             .workers(4)
///             .on_result([](const flow::SweepResult& r) { ... })
///             .run();
///
/// Scaling contract:
///
/// - **Dedup before compile.** Configurations are content-keyed
///   (verify::model_fingerprint); the verify::ArtifactCache
///   coalesces concurrent builds, so identical models reached through
///   different grid points (e.g. the same depth under two voltage
///   schedules) compile exactly once — artifact_builds() grows by the
///   number of *distinct* models, not grid points.
/// - **Pinned artifacts.** Each worker pins its configuration's
///   compiled model while the session runs, so LRU eviction under a
///   tight cache capacity can never drop an artifact a worker is about
///   to use.
/// - **Bounded in-flight memory.** Each worker runs one configuration at
///   a time, so at most workers() sessions hold exploration state
///   simultaneously; per-config engine threads default to 1 inside a
///   sweep (grid-level parallelism owns the cores — set
///   base.verify.threads explicitly to override).
/// - **Cooperative cancellation + timeouts.** Handle::cancel() stops
///   new work and interrupts running explorations through the engine's
///   stop hook; per_config_timeout() bounds each configuration the same
///   way (status kTimedOut, findings truncated).
///
/// Results arrive through on_result in completion order (never after
/// cancel() returns) and from Handle::wait() as one vector in stable
/// grid order.
class Sweep {
public:
    /// Builds the model of one configuration. Throwing (e.g. an invalid
    /// stages/depth combination) marks that grid point kInvalid with the
    /// exception's message — the validity gate of the grid.
    using Factory = std::function<pipeline::Pipeline(int stages, int depth)>;
    using ResultCallback = std::function<void(const SweepResult&)>;

    explicit Sweep(Factory factory, DesignOptions base = {});

    /// Sweep over the paper's reconfigurable OPE pipeline
    /// (ope::build_reconfigurable_ope_dfs as the factory; depths below
    /// ope::min_depth() or above the stage count come back kInvalid).
    static Sweep ope(DesignOptions base = {});

    // -- grid axes (empty axis = the base factory defaults below) -------

    Sweep& depths(int lo, int hi);  ///< inclusive range
    Sweep& depths(std::vector<int> values);
    Sweep& stages(std::vector<int> values);
    Sweep& schedules(std::vector<tech::VoltageSchedule> values);

    // -- per-configuration behaviour ------------------------------------

    /// Properties each configuration verifies (default Spec::standard()).
    Sweep& spec(verify::Spec value);
    /// Partial-order reduction for the per-configuration verifications.
    /// Defaults to ON inside sweeps (it preserves every verdict while
    /// shrinking the explored graph — see VerifyOptions::por), overriding
    /// the base options; pass false to measure full explorations.
    Sweep& por(bool enabled);
    /// Worker pool size; 0 (default) = one per hardware thread, capped
    /// at the grid size.
    Sweep& workers(std::size_t count);
    /// Wall-clock budget per configuration; <= 0 (default) = none.
    Sweep& per_config_timeout(double seconds);
    /// Incremental re-verification across the depth axis: grid points
    /// sharing (stages, schedule) form a chain that runs on ONE worker,
    /// in depth order, with one shared petri::ReuseStore — each depth's
    /// verification re-claims the markings and enabled rows the chain's
    /// earlier depths already interned, so a d=1..N chain costs about as
    /// much interning as its deepest configuration alone. Verdicts and
    /// reports are bit-identical to the independent-session default.
    /// Chains are the unit of scheduling here (distinct chains still run
    /// in parallel), so a single-chain grid serialises; leave this off
    /// (the default) when grid-level parallelism matters more than
    /// cross-depth reuse.
    Sweep& shared_store(bool enabled);
    /// Per-configuration checkpointing: each grid point's exploration
    /// periodically serializes a petri::StoreCheckpoint to
    /// `<dir>/<label>.ckpt` (grid labels like "s4/d3/v0" are flattened to
    /// "s4_d3_v0"), so a killed sweep resumes its longest configurations
    /// instead of rerunning them (the nightly soak wires this to CI
    /// artifacts). The directory must exist. Empty (default) = off.
    /// Incompatible with shared_store (the engine refuses reuse +
    /// checkpoint, so launch() rejects the combination up front with
    /// std::invalid_argument).
    Sweep& checkpoint_dir(std::string dir);
    /// Streaming sink, invoked from worker threads (serialised — at most
    /// one callback at a time) as rows complete. The callback must not
    /// call back into the Handle (it runs under the sweep's result lock).
    /// One that throws cancels the sweep; Handle::wait() rethrows.
    Sweep& on_result(ResultCallback callback);

    /// The expanded grid in stable order, without running anything.
    std::vector<SweepPoint> grid() const;

    /// A launched sweep. Movable handle over shared state; the
    /// destructor waits for the pool (call cancel() first to end early).
    class Handle {
    public:
        Handle(Handle&&) noexcept = default;
        Handle& operator=(Handle&&) noexcept = default;
        Handle(const Handle&) = delete;
        Handle& operator=(const Handle&) = delete;
        ~Handle();

        /// Cooperative cancellation: no new configurations start,
        /// running explorations stop at their next poll, and once
        /// cancel() returns no further on_result callbacks fire.
        /// Unfinished grid points report kCancelled.
        void cancel();
        bool cancelled() const;

        std::size_t done() const;   ///< rows completed so far
        std::size_t total() const;  ///< grid size

        /// Distinct model contents seen so far (the dedup denominator:
        /// artifact builds can never exceed this).
        std::size_t distinct_models() const;

        /// Scrapeable engine metrics snapshot: sweep progress (configs
        /// done/total, queue depth, in-flight), aggregate states/s and
        /// peak resident bytes, and the process artifact cache's
        /// hit/miss/eviction counters — render with
        /// metrics::to_prometheus().
        Metrics metrics() const;

        /// Joins the pool and returns every row in stable grid order.
        /// Rethrows, after the join, the first exception on_result threw.
        /// Call at most once; the pool is joined either way.
        std::vector<SweepResult> wait();

    private:
        friend class Sweep;
        explicit Handle(std::shared_ptr<detail::SweepState> state);

        std::shared_ptr<detail::SweepState> state_;
    };

    /// Starts the worker pool and returns immediately.
    Handle launch();

    /// launch() + wait(): the whole grid, rows in stable grid order.
    std::vector<SweepResult> run();

private:
    Factory factory_;
    DesignOptions base_;
    verify::Spec spec_;
    std::vector<int> depths_{1};
    std::vector<int> stages_{1};
    std::vector<tech::VoltageSchedule> schedules_;
    std::size_t workers_ = 0;
    double timeout_s_ = 0.0;
    bool shared_store_ = false;
    std::string checkpoint_dir_;
    ResultCallback callback_;
};

}  // namespace rap::flow
