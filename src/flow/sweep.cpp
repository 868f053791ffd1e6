#include "flow/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "flow/job_runner.hpp"

#include "ope/dfs_models.hpp"
#include "petri/reuse.hpp"
#include "verify/cache.hpp"

namespace rap::flow {

std::string_view to_string(SweepStatus status) {
    switch (status) {
        case SweepStatus::kOk: return "ok";
        case SweepStatus::kInvalid: return "invalid";
        case SweepStatus::kTimedOut: return "timed-out";
        case SweepStatus::kCancelled: return "cancelled";
    }
    return "?";
}

namespace detail {

/// Everything a running sweep shares between the launching thread, the
/// worker pool and the Handle. Lifetime: shared_ptr held by the Handle;
/// the workers use it by raw pointer and are joined before it dies.
struct SweepState {
    // -- immutable after launch -----------------------------------------
    Sweep::Factory factory;
    DesignOptions base;
    verify::Spec spec;
    std::vector<SweepPoint> grid;
    std::vector<tech::VoltageSchedule> schedules;
    double timeout_s = 0.0;
    Sweep::ResultCallback callback;
    /// Chains of grid indices, the scheduling unit: a chain's points run
    /// on one worker, in depth order. One chain per point, or in
    /// shared-store mode one per (stages, schedule) pair whose points
    /// share one ReuseStore (explorations sharing a store must be
    /// sequenced).
    std::vector<std::vector<std::size_t>> chains;
    bool shared_store = false;
    /// Checkpoint directory ("" = off): each point writes
    /// `<dir>/<flattened label>.ckpt`.
    std::string checkpoint_dir;
    /// Cache counters at launch, so the metrics snapshot can attribute
    /// hit-rate to this sweep rather than the whole process lifetime.
    verify::CacheStats cache_before;

    // -- results (guarded by the runner's lock) ---------------------------
    std::vector<SweepResult> results;  ///< slot per grid point
    std::unordered_set<std::string> distinct;  ///< model fingerprints

    JobRunner runner;  // last: its pool is joined before the rest dies
};

namespace {

/// Runs one grid point start to finish. Never throws: every failure mode
/// maps to a row status.
SweepResult process_point(SweepState& state, const SweepPoint& point,
                          const std::shared_ptr<petri::ReuseStore>& reuse) {
    SweepResult row;
    row.point = point;

    // The schedule axis' analytic figure of merit is defined even for
    // configurations the factory rejects.
    if (point.schedule < state.schedules.size()) {
        row.schedule_finish_s =
            state.schedules[point.schedule].finish_time(
                tech::VoltageModel(state.base.process), 0.0, 1.0);
    }

    if (state.runner.cancelled()) {
        row.status = SweepStatus::kCancelled;
        return row;
    }

    std::optional<pipeline::Pipeline> model;
    try {
        model.emplace(state.factory(point.stages, point.depth));
    } catch (const std::exception& e) {
        row.status = SweepStatus::kInvalid;
        row.error = e.what();
        return row;
    }

    // Dedup bookkeeping + pin: the cache coalesces concurrent builds of
    // the same content, and the pin keeps LRU eviction off this model
    // until the session below is done with it.
    const std::string key = verify::model_fingerprint(model->graph);
    {
        const auto lock = state.runner.lock();
        state.distinct.insert(key);
    }

    const auto deadline =
        state.timeout_s > 0.0
            ? std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(state.timeout_s))
            : std::chrono::steady_clock::time_point::max();

    DesignOptions options = state.base;
    if (options.verify.threads == 0) {
        // Grid-level parallelism owns the cores; explicit base settings
        // are respected.
        options.verify.threads = 1;
    }
    if (reuse != nullptr) {
        // Shared-store chain: this point re-claims what the chain's
        // earlier depths interned. Sound because the chain runs on one
        // worker, one point at a time.
        options.verify.reuse = reuse;
    }
    const std::function<bool()> user_stop = options.verify.stop;
    options.verify.stop = [&state, deadline, user_stop] {
        return state.runner.cancelled() ||
               std::chrono::steady_clock::now() >= deadline ||
               (user_stop && user_stop());
    };
    if (!state.checkpoint_dir.empty()) {
        // `<dir>/<label>.ckpt` with the grid label's slashes flattened
        // ("s4/d3/v0" -> "s4_d3_v0") so every point is one file.
        std::string name = point.label;
        std::replace(name.begin(), name.end(), '/', '_');
        options.verify.checkpoint_path =
            state.checkpoint_dir + "/" + name + ".ckpt";
    }

    // The session outlives the try: a pass that dies mid-exploration
    // still has a real interned footprint (petri::ExplorationAborted
    // carries it into Design::memory_stats()), and dropping it here used
    // to under-report the sweep's peak-resident aggregate.
    std::unique_ptr<Design> design;
    try {
        const auto pin =
            verify::ArtifactCache::process_cache().get_pinned(model->graph);
        design = make_design(std::move(*model), options);

        const auto t0 = std::chrono::steady_clock::now();
        row.report = design->verify(state.spec);
        const auto t1 = std::chrono::steady_clock::now();

        row.verify_seconds =
            std::chrono::duration<double>(t1 - t0).count();
        row.clean = row.report.clean();
        for (const auto& finding : row.report.findings) {
            row.states = std::max(row.states, finding.states_explored);
        }
        row.memory = design->memory_stats();
        row.por = design->por_stats();
        row.reuse_fallbacks = design->reuse_fallbacks();

        bool truncated_by_stop = false;
        for (const auto& finding : row.report.findings) {
            truncated_by_stop |= finding.truncated;
        }
        if (state.runner.cancelled()) {
            row.status = SweepStatus::kCancelled;
        } else if (truncated_by_stop && t1 >= deadline) {
            row.status = SweepStatus::kTimedOut;
        } else {
            row.status = SweepStatus::kOk;
        }
    } catch (const std::exception& e) {
        row.status = SweepStatus::kInvalid;
        row.error = e.what();
        if (design) {
            // Salvage whatever the dead pass measured before it threw.
            row.memory = design->memory_stats();
            row.por = design->por_stats();
            row.reuse_fallbacks = design->reuse_fallbacks();
        }
    }
    return row;
}

/// One runner job: a chain, one result row per point.
void run_job(SweepState& state, std::size_t job) {
    const auto reuse = state.shared_store
                           ? std::make_shared<petri::ReuseStore>()
                           : nullptr;
    for (const std::size_t index : state.chains[job]) {
        SweepResult result = process_point(state, state.grid[index], reuse);
        state.runner.finish_row(
            [&] { state.results[index] = std::move(result); },
            [&] {
                if (state.callback) state.callback(state.results[index]);
            });
    }
}

Metrics build_metrics(SweepState& state) {
    Metrics m;
    using Type = Metrics::Type;

    auto lock = state.runner.lock();
    // Aggregates over the rows published so far; unfinished slots carry
    // no states, memory or reduction and add nothing.
    std::size_t states_total = 0;
    double verify_seconds = 0.0;
    // The peak-resident exploration: the rap_store_* gauges describe the
    // sweep's biggest state space, the one capacity planning cares about.
    const petri::MemoryStats* peak = nullptr;
    std::size_t reuse_fallbacks = 0;
    std::size_t por_active = 0;
    petri::PorStats por;  // summed over the rows whose pass reduced
    for (const SweepResult& row : state.results) {
        states_total += row.states;
        verify_seconds += row.verify_seconds;
        if (row.memory &&
            (peak == nullptr || row.memory->peak_bytes >= peak->peak_bytes)) {
            peak = &*row.memory;
        }
        reuse_fallbacks += row.reuse_fallbacks;
        if (row.por && row.por->active) {
            ++por_active;
            por.merge(*row.por);
        }
    }
    const std::size_t done = state.runner.done();
    const std::size_t in_flight = state.runner.in_flight();
    const std::size_t total = state.grid.size();
    const std::size_t queued = total - std::min(total, done + in_flight);

    m.set("rap_sweep_configs_total",
          "Grid points in the sweep", Type::kGauge,
          static_cast<double>(total));
    m.set("rap_sweep_configs_done",
          "Grid points completed so far", Type::kGauge,
          static_cast<double>(done));
    m.set("rap_sweep_queue_depth",
          "Grid points neither done nor running", Type::kGauge,
          static_cast<double>(queued));
    m.set("rap_sweep_in_flight",
          "Configurations holding exploration state right now",
          Type::kGauge, static_cast<double>(in_flight));
    m.set("rap_sweep_cancelled",
          "1 once Handle::cancel() was called", Type::kGauge,
          state.runner.cancelled() ? 1.0 : 0.0);
    m.set("rap_sweep_distinct_models",
          "Distinct model contents seen (the dedup denominator)",
          Type::kGauge, static_cast<double>(state.distinct.size()));
    m.set("rap_sweep_states_total",
          "States explored across all completed configurations",
          Type::kCounter, static_cast<double>(states_total));
    m.set("rap_sweep_verify_seconds_total",
          "Wall seconds spent verifying across all configurations",
          Type::kCounter, verify_seconds);
    m.set("rap_sweep_states_per_second",
          "Aggregate verification throughput", Type::kGauge,
          verify_seconds > 0.0
              ? static_cast<double>(states_total) / verify_seconds
              : 0.0);
    m.set("rap_sweep_peak_resident_bytes",
          "Largest single-exploration resident footprint seen",
          Type::kGauge,
          static_cast<double>(peak != nullptr ? peak->peak_bytes : 0));
    m.set("rap_reuse_fallbacks_total",
          "Passes that requested cross-pass reuse but ran scratch",
          Type::kCounter, static_cast<double>(reuse_fallbacks));

    // Marking-store shape of the peak-resident exploration — the
    // capacity-tier surface (table vs arena split, load factor).
    if (peak != nullptr) {
        const petri::StoreStats& store = peak->store;
        m.set("rap_store_slots",
              "Hash-table slots of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(store.slots));
        m.set("rap_store_load_factor",
              "Records / slots of the peak-resident exploration's store",
              Type::kGauge, store.load_factor());
        m.set("rap_store_table_bytes",
              "Hash-table bytes of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(store.table_bytes));
        m.set("rap_store_arena_bytes",
              "Record-arena bytes of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(store.arena_bytes));
    }

    // Partial-order reduction aggregates across completed rows. The
    // ratio compares transition-expansion work, the quantity reduction
    // actually saves (state counts are a second-order consequence).
    m.set("rap_por_active_configs",
          "Completed configurations whose pass ran with reduction",
          Type::kGauge, static_cast<double>(por_active));
    m.set("rap_por_enabled_transitions_total",
          "Enabled transitions across expanded states (full-exploration "
          "work)",
          Type::kCounter, static_cast<double>(por.enabled_transitions));
    m.set("rap_por_expanded_transitions_total",
          "Transitions actually expanded under reduction",
          Type::kCounter, static_cast<double>(por.expanded_transitions));
    m.set("rap_por_ignored_transitions_total",
          "Enabled transitions skipped thanks to reduction",
          Type::kCounter,
          static_cast<double>(
              por.enabled_transitions -
              std::min(por.enabled_transitions, por.expanded_transitions)));
    m.set("rap_por_reduction_ratio",
          "Enabled / expanded transition work across reduced passes",
          Type::kGauge,
          por.expanded_transitions > 0
              ? static_cast<double>(por.enabled_transitions) /
                    static_cast<double>(por.expanded_transitions)
              : 0.0);

    lock.unlock();

    // Process artifact-cache counters, as deltas since launch so the
    // exposition describes THIS sweep's traffic.
    const verify::CacheStats now = verify::cache_stats();
    const verify::CacheStats& before = state.cache_before;
    const auto delta = [](std::size_t a, std::size_t b) {
        return static_cast<double>(a - std::min(a, b));
    };
    const double hits = delta(now.hits, before.hits);
    const double misses = delta(now.misses, before.misses);
    m.set("rap_cache_hits_total",
          "Artifact cache hits since the sweep launched", Type::kCounter,
          hits);
    m.set("rap_cache_misses_total",
          "Artifact cache misses (= builds) since the sweep launched",
          Type::kCounter, misses);
    m.set("rap_cache_evictions_total",
          "Artifact cache LRU evictions since the sweep launched",
          Type::kCounter, delta(now.evictions, before.evictions));
    m.set("rap_cache_hit_rate",
          "Hits / lookups of the artifact cache since the sweep launched",
          Type::kGauge,
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    m.set("rap_cache_entries", "Artifacts resident in the cache",
          Type::kGauge, static_cast<double>(now.entries));
    m.set("rap_cache_resident_bytes",
          "Approximate bytes held by cached artifacts", Type::kGauge,
          static_cast<double>(now.bytes));
    m.set("rap_cache_capacity_bytes", "Artifact cache byte capacity",
          Type::kGauge, static_cast<double>(now.capacity_bytes));
    m.set("rap_cache_pinned", "Artifacts pinned by in-flight sessions",
          Type::kGauge, static_cast<double>(now.pinned));
    return m;
}

}  // namespace
}  // namespace detail

// -- Sweep (builder) -----------------------------------------------------

Sweep::Sweep(Factory factory, DesignOptions base)
    : factory_(std::move(factory)),
      base_(std::move(base)),
      spec_(verify::Spec::standard()) {
    if (!factory_) {
        throw std::invalid_argument(
            "flow::Sweep: the model factory must be callable");
    }
    validate_options(base_);
    // Sweeps verify with partial-order reduction by default: verdicts
    // are preserved and every configuration explores a smaller graph.
    // Sweep::por(false) restores full explorations.
    base_.verify.por = true;
    schedules_.push_back(
        tech::VoltageSchedule::constant(base_.process.v_nominal));
}

Sweep Sweep::ope(DesignOptions base) {
    return Sweep(
        [](int stages, int depth) {
            return ope::build_reconfigurable_ope_dfs(stages, depth);
        },
        std::move(base));
}

Sweep& Sweep::depths(int lo, int hi) {
    depths_.clear();
    for (int d = lo; d <= hi; ++d) depths_.push_back(d);
    if (depths_.empty()) {
        throw std::invalid_argument("flow::Sweep: empty depth range");
    }
    return *this;
}

Sweep& Sweep::depths(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Sweep: empty depth axis");
    }
    depths_ = std::move(values);
    return *this;
}

Sweep& Sweep::stages(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Sweep: empty stage axis");
    }
    stages_ = std::move(values);
    return *this;
}

Sweep& Sweep::schedules(std::vector<tech::VoltageSchedule> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Sweep: empty schedule axis");
    }
    schedules_ = std::move(values);
    return *this;
}

Sweep& Sweep::spec(verify::Spec value) {
    spec_ = std::move(value);
    return *this;
}

Sweep& Sweep::por(bool enabled) {
    base_.verify.por = enabled;
    return *this;
}

Sweep& Sweep::workers(std::size_t count) {
    workers_ = count;
    return *this;
}

Sweep& Sweep::per_config_timeout(double seconds) {
    timeout_s_ = seconds;
    return *this;
}

Sweep& Sweep::shared_store(bool enabled) {
    shared_store_ = enabled;
    return *this;
}

Sweep& Sweep::checkpoint_dir(std::string dir) {
    checkpoint_dir_ = std::move(dir);
    return *this;
}

Sweep& Sweep::on_result(ResultCallback callback) {
    callback_ = std::move(callback);
    return *this;
}

std::vector<SweepPoint> Sweep::grid() const {
    std::vector<SweepPoint> points;
    points.reserve(stages_.size() * depths_.size() * schedules_.size());
    char label[64];
    for (const int stages : stages_) {
        for (const int depth : depths_) {
            for (std::size_t schedule = 0; schedule < schedules_.size();
                 ++schedule) {
                std::snprintf(label, sizeof(label), "s%d/d%d/v%zu",
                              stages, depth, schedule);
                points.push_back(SweepPoint{points.size(), stages, depth,
                                            schedule, label});
            }
        }
    }
    return points;
}

// -- Sweep::Handle -------------------------------------------------------

Sweep::Handle::Handle(std::shared_ptr<detail::SweepState> state)
    : state_(std::move(state)) {}

// The Handle owns the state alone; destroying it joins the pool.
Sweep::Handle::~Handle() = default;

void Sweep::Handle::cancel() { state_->runner.cancel(); }

bool Sweep::Handle::cancelled() const { return state_->runner.cancelled(); }

std::size_t Sweep::Handle::done() const {
    const auto lock = state_->runner.lock();
    return state_->runner.done();
}

std::size_t Sweep::Handle::total() const { return state_->grid.size(); }

std::size_t Sweep::Handle::distinct_models() const {
    const auto lock = state_->runner.lock();
    return state_->distinct.size();
}

Metrics Sweep::Handle::metrics() const {
    return detail::build_metrics(*state_);
}

std::vector<SweepResult> Sweep::Handle::wait() {
    state_->runner.wait();
    // A copy: metrics() keeps folding over the rows after wait().
    return state_->results;
}

// -- launch --------------------------------------------------------------

Sweep::Handle Sweep::launch() {
    auto state = std::make_shared<detail::SweepState>();
    state->factory = factory_;
    state->base = base_;
    state->spec = spec_;
    state->grid = grid();
    state->schedules = schedules_;
    state->timeout_s = timeout_s_;
    state->callback = callback_;
    state->checkpoint_dir = checkpoint_dir_;
    state->cache_before = verify::cache_stats();
    if (shared_store_ && !checkpoint_dir_.empty()) {
        throw std::invalid_argument(
            "flow::Sweep: checkpoint_dir is incompatible with "
            "shared_store — the engine refuses to checkpoint a "
            "cross-pass ReuseStore, so every chained point would come "
            "back kInvalid");
    }

    // One chain per (stages, schedule) pair in shared-store mode, one
    // per point otherwise; the grid is ordered stages -> depth ->
    // schedule, so pushing indices in grid order leaves each chain
    // sorted by depth. Every result slot starts as its point, kCancelled,
    // so rows never started still identify themselves.
    state->shared_store = shared_store_;
    state->results.resize(state->grid.size());
    std::map<std::pair<int, std::size_t>, std::size_t> chain_of;
    for (std::size_t i = 0; i < state->grid.size(); ++i) {
        const SweepPoint& p = state->grid[i];
        state->results[i].point = p;
        state->results[i].status = SweepStatus::kCancelled;
        const auto key = shared_store_ ? std::make_pair(p.stages, p.schedule)
                                       : std::make_pair(-1, i);
        const auto [it, added] = chain_of.emplace(key, state->chains.size());
        if (added) state->chains.emplace_back();
        state->chains[it->second].push_back(i);
    }

    state->runner.launch(
        state->chains.size(), workers_,
        [raw = state.get()](std::size_t job) { detail::run_job(*raw, job); });
    return Handle(std::move(state));
}

std::vector<SweepResult> Sweep::run() { return launch().wait(); }

}  // namespace rap::flow
