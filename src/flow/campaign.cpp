#include "flow/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "flow/job_runner.hpp"
#include "ope/dfs_models.hpp"
#include "util/rng.hpp"
#include "verify/witness.hpp"

namespace rap::flow {

namespace detail {

namespace {

/// FNV-1a over raw bytes — the campaign's reproducibility fingerprint.
/// Frozen: changing it invalidates every recorded campaign checksum.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, 8); }

void fnv_double(std::uint64_t& h, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    fnv_u64(h, bits);
}

/// Seed-space tag separating per-point calibration from the per-run
/// streams (which use plain stream_seed(master, point * runs + run)).
constexpr std::uint64_t kCalibTag = 0x63616c6962ULL;  // "calib"

}  // namespace

/// Everything a running campaign shares between the launching thread,
/// the worker pool and the Handle (mirrors SweepState).
struct CampaignState {
    // -- immutable after launch -----------------------------------------
    Campaign::Factory factory;
    DesignOptions base;
    asim::FaultSpec faults;
    std::vector<CampaignPoint> grid;
    std::size_t runs = 1;
    std::uint64_t seed = 1;
    std::uint64_t items = 1;
    double budget_factor = 8.0;
    bool confirm_hazards = false;
    double knee_fraction = 0.05;
    Campaign::RunCallback callback;

    // -- results + aggregates (guarded by the runner's lock) --------------
    /// Slot per grid point, filled when the point finishes all its runs.
    std::vector<std::optional<CampaignAggregate>> rows;
    std::size_t runs_done = 0;
    std::size_t failures = 0;
    std::size_t hazards = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t glitch_windows = 0;

    JobRunner runner;  // last: its pool is joined before the rest dies
};

namespace {

void fold_run(std::uint64_t& h, const CampaignRun& r) {
    fnv_u64(h, r.seed);
    fnv_u64(h, (r.completed ? 1u : 0u) | (r.deadlocked ? 2u : 0u) |
                   (r.frozen ? 4u : 0u) | (r.hazard ? 8u : 0u) |
                   (r.hazard_confirmed ? 16u : 0u));
    fnv_double(h, r.time_s);
    fnv_double(h, r.energy_j);
    fnv_u64(h, r.items);
    fnv_u64(h, r.events);
    fnv_u64(h, r.faults.drops);
    fnv_u64(h, r.faults.duplicates);
    fnv_u64(h, r.faults.stuck_nodes);
    fnv_u64(h, r.glitches);
}

/// Publishes one finished run: aggregate counters, then the on_run sink.
void publish_run(CampaignState& state, const CampaignRun& row) {
    state.runner.publish(
        [&] {
            ++state.runs_done;
            if (!row.completed) ++state.failures;
            if (row.hazard) ++state.hazards;
            state.faults_injected += row.faults.injected();
            state.glitch_windows += row.glitches;
        },
        [&] {
            if (state.callback) state.callback(row);
        });
}

/// One runner job: a grid point start to finish. Calibrate, then `runs`
/// seeded Monte-Carlo runs in run order. A point skipped or interrupted
/// by cancel() (polled between runs) stays unfinished: it neither counts
/// as done nor reaches the summary.
void run_point(CampaignState& state, std::size_t index) {
    if (state.runner.cancelled()) return;
    const CampaignPoint& point = state.grid[index];
    CampaignAggregate agg;
    agg.point = point;
    agg.runs = state.runs;
    agg.checksum = kFnvOffset;

    std::unique_ptr<Design> design;
    try {
        design = make_design(state.factory(point.depth), state.base);
    } catch (const std::exception&) {
        // Invalid depth for this factory: no run simulates, so every run
        // of the point fails with zero events — a deterministic failure
        // band of the survival curve.
    }

    const tech::VoltageModel model(state.base.process);
    const dfs::NodeId out = design ? design->pipeline().out : dfs::NodeId{};
    // Guard rail against pathological fault configurations that never
    // reach the item target: generous, but finite.
    const std::uint64_t event_cap =
        std::max<std::uint64_t>(1, state.items) *
        (design ? design->graph().node_count() : 0) * 64;

    // Calibrate the point's fault-free run time at the nominal supply;
    // the per-run simulated-time budget scales it by the voltage's
    // speed factor.
    double nominal_s = 0.0;
    if (design) {
        asim::TimedSimulator sim = design->timed_sim();
        sim.set_seed(util::stream_seed(state.seed ^ kCalibTag, point.index));
        dfs::State s = dfs::State::initial(design->graph());
        asim::RunLimits limits;
        limits.target_marks = state.items;
        limits.observe = out;
        limits.max_events = event_cap;
        nominal_s = sim.run(s, limits).time_s;
    }
    const double sf = model.speed_factor(point.voltage);
    const double budget_s =
        state.budget_factor * nominal_s / (sf > 0.0 ? sf : 1.0);

    const asim::FaultSpec spec = state.faults.scaled(point.fault_scale);
    const tech::VoltageSchedule base_schedule =
        tech::VoltageSchedule::constant(point.voltage);

    for (std::size_t r = 0; r < state.runs; ++r) {
        if (state.runner.cancelled()) return;
        CampaignRun row;
        row.point = point.index;
        row.run = r;
        row.seed =
            util::stream_seed(state.seed, point.index * state.runs + r);
        if (!design) {  // a failed run with zero events
            fold_run(agg.checksum, row);
            publish_run(state, row);
            continue;
        }

        const asim::GlitchedSchedule glitched = asim::splice_glitches(
            base_schedule, spec.glitch, row.seed, budget_s);
        row.glitches = glitched.glitches();

        asim::TimedSimulator sim = design->timed_sim(glitched.schedule);
        sim.set_seed(row.seed);
        sim.set_faults(spec);
        if (state.confirm_hazards) {
            sim.enable_event_trace(event_cap);
        }

        dfs::State s = dfs::State::initial(design->graph());
        asim::RunLimits limits;
        limits.target_marks = state.items;
        limits.observe = out;
        limits.max_events = event_cap;
        limits.max_time_s = budget_s;
        const asim::TimedStats stats = sim.run(s, limits);

        row.items = stats.marks_at(out);
        row.completed = row.items >= state.items;
        row.deadlocked = stats.deadlocked;
        row.frozen = stats.frozen;
        row.time_s = stats.time_s;
        row.energy_j = stats.total_energy_j();
        row.events = stats.events;
        row.faults = stats.faults;
        row.hazard = design->dynamics().control_conflict(s).has_value();
        if (row.hazard && state.confirm_hazards &&
            !stats.events_log_truncated) {
            std::vector<dfs::Event> events;
            events.reserve(stats.events_log.size());
            for (const asim::TimedEvent& te : stats.events_log) {
                events.push_back(te.event);
            }
            const verify::WitnessReplay replay = verify::replay_events_on_net(
                design->dynamics(), design->translation(), events);
            row.hazard_confirmed = replay.ok && replay.marking_agrees;
        }

        if (row.completed) {
            ++agg.completed;
        } else if (row.deadlocked) {
            ++agg.deadlocks;
        } else if (row.frozen) {
            ++agg.frozen;
        }
        fold_run(agg.checksum, row);
        if (row.hazard) ++agg.hazards;
        if (row.hazard_confirmed) ++agg.hazards_confirmed;
        agg.faults_injected += row.faults.injected();
        agg.glitch_windows += row.glitches;
        if (row.completed) {
            agg.mean_time_s += row.time_s;
            if (row.items > 0) {
                agg.mean_energy_per_item_j += row.energy_j / row.items;
            }
        }
        publish_run(state, row);
    }

    if (agg.completed > 0) {
        agg.mean_time_s /= agg.completed;
        agg.mean_energy_per_item_j /= agg.completed;
    }
    agg.survival =
        agg.runs > 0 ? static_cast<double>(agg.completed) / agg.runs : 0.0;
    state.runner.finish_row([&] { state.rows[index] = std::move(agg); },
                            [] {});
}

Metrics build_metrics(CampaignState& state) {
    Metrics m;
    using Type = Metrics::Type;

    const auto lock = state.runner.lock();
    m.set("rap_mc_points_total", "Grid points in the campaign",
          Type::kGauge, static_cast<double>(state.grid.size()));
    m.set("rap_mc_points_done", "Grid points completed so far",
          Type::kGauge, static_cast<double>(state.runner.done()));
    m.set("rap_mc_in_flight", "Grid points simulating right now",
          Type::kGauge, static_cast<double>(state.runner.in_flight()));
    m.set("rap_mc_cancelled", "1 once Handle::cancel() was called",
          Type::kGauge, state.runner.cancelled() ? 1.0 : 0.0);
    m.set("rap_mc_runs_total", "Monte-Carlo runs the grid will execute",
          Type::kGauge,
          static_cast<double>(state.grid.size() * state.runs));
    m.set("rap_mc_runs_done", "Monte-Carlo runs completed so far",
          Type::kCounter, static_cast<double>(state.runs_done));
    m.set("rap_mc_failures_total",
          "Runs that missed the item target (deadlock, freeze or budget)",
          Type::kCounter, static_cast<double>(state.failures));
    m.set("rap_mc_hazards_total",
          "Runs ending in a control-token conflict", Type::kCounter,
          static_cast<double>(state.hazards));
    m.set("rap_mc_faults_injected_total",
          "Event faults injected across all runs (drops, duplicates, "
          "stuck-ats)",
          Type::kCounter, static_cast<double>(state.faults_injected));
    m.set("rap_mc_glitch_windows_total",
          "Supply-droop windows realised across all runs", Type::kCounter,
          static_cast<double>(state.glitch_windows));
    m.set("rap_mc_survival",
          "Completed / executed runs so far", Type::kGauge,
          state.runs_done > 0
              ? static_cast<double>(state.runs_done - state.failures) /
                    state.runs_done
              : 0.0);
    return m;
}

CampaignSummary build_summary(CampaignState& state) {
    CampaignSummary summary;
    summary.checksum = kFnvOffset;
    for (const std::optional<CampaignAggregate>& slot : state.rows) {
        if (!slot) continue;  // unfinished: skipped or interrupted
        const CampaignAggregate& row = *slot;
        summary.runs_total += row.runs;
        summary.completed_total += row.completed;
        summary.hazards_total += row.hazards;
        if (row.completed < row.runs) {
            const double failure_fraction =
                row.runs > 0
                    ? static_cast<double>(row.runs - row.completed) /
                          static_cast<double>(row.runs)
                    : 0.0;
            if (failure_fraction >= state.knee_fraction) {
                if (!summary.first_failure_voltage ||
                    row.point.voltage > *summary.first_failure_voltage) {
                    summary.first_failure_voltage = row.point.voltage;
                }
            } else {
                // A statistical blip: failures happened, but too few to
                // call this voltage the knee. Reported separately so the
                // signal is not lost.
                ++summary.blip_points;
                if (!summary.highest_blip_voltage ||
                    row.point.voltage > *summary.highest_blip_voltage) {
                    summary.highest_blip_voltage = row.point.voltage;
                }
            }
        }
        fnv_u64(summary.checksum, row.checksum);
        summary.rows.push_back(row);
    }
    return summary;
}

}  // namespace
}  // namespace detail

// -- Campaign (builder) --------------------------------------------------

Campaign::Campaign(Factory factory, DesignOptions base)
    : factory_(std::move(factory)), base_(std::move(base)) {
    if (!factory_) {
        throw std::invalid_argument(
            "flow::Campaign: the model factory must be callable");
    }
    validate_options(base_);
    voltages_.push_back(base_.process.v_nominal);
}

Campaign Campaign::ope(int stages, DesignOptions base) {
    return Campaign(
        [stages](int depth) {
            return ope::build_reconfigurable_ope_dfs(stages, depth);
        },
        std::move(base));
}

Campaign& Campaign::voltages(std::vector<double> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Campaign: empty voltage axis");
    }
    voltages_ = std::move(values);
    return *this;
}

Campaign& Campaign::fault_scales(std::vector<double> values) {
    if (values.empty()) {
        throw std::invalid_argument(
            "flow::Campaign: empty fault-scale axis");
    }
    for (const double scale : values) {
        if (!(scale >= 0.0)) {
            throw std::invalid_argument(
                "flow::Campaign: fault scales must be non-negative");
        }
    }
    fault_scales_ = std::move(values);
    return *this;
}

Campaign& Campaign::depths(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Campaign: empty depth axis");
    }
    depths_ = std::move(values);
    return *this;
}

Campaign& Campaign::base_faults(asim::FaultSpec spec) {
    const asim::GlitchSpec& g = spec.glitch;
    if (g.droop_v > 0.0 &&
        !(g.min_duration_s >= 0.0 && g.max_duration_s >= g.min_duration_s)) {
        throw std::invalid_argument(
            "flow::Campaign: glitch durations need 0 <= min_duration_s <= "
            "max_duration_s");
    }
    faults_ = spec;
    return *this;
}

Campaign& Campaign::runs(std::size_t per_point) {
    if (per_point == 0) {
        throw std::invalid_argument(
            "flow::Campaign: need at least one run per point");
    }
    runs_ = per_point;
    return *this;
}

Campaign& Campaign::seed(std::uint64_t master) {
    seed_ = master;
    return *this;
}

Campaign& Campaign::items(std::uint64_t count) {
    if (count == 0) {
        throw std::invalid_argument(
            "flow::Campaign: need at least one item per run");
    }
    items_ = count;
    return *this;
}

Campaign& Campaign::time_budget_factor(double factor) {
    if (factor <= 0.0) {
        throw std::invalid_argument(
            "flow::Campaign: time_budget_factor must be positive");
    }
    budget_factor_ = factor;
    return *this;
}

Campaign& Campaign::confirm_hazards(bool enabled) {
    confirm_hazards_ = enabled;
    return *this;
}

Campaign& Campaign::knee_min_failure_fraction(double fraction) {
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
        throw std::invalid_argument(
            "flow::Campaign: knee_min_failure_fraction must be in [0, 1]");
    }
    knee_fraction_ = fraction;
    return *this;
}

Campaign& Campaign::workers(std::size_t count) {
    workers_ = count;
    return *this;
}

Campaign& Campaign::on_run(RunCallback callback) {
    callback_ = std::move(callback);
    return *this;
}

std::vector<CampaignPoint> Campaign::grid() const {
    std::vector<CampaignPoint> points;
    points.reserve(depths_.size() * fault_scales_.size() *
                   voltages_.size());
    char label[64];
    for (const int depth : depths_) {
        for (const double scale : fault_scales_) {
            for (const double voltage : voltages_) {
                std::snprintf(label, sizeof(label), "d%d/f%.2f/v%.2f",
                              depth, scale, voltage);
                points.push_back(CampaignPoint{points.size(), depth, scale,
                                               voltage, label});
            }
        }
    }
    return points;
}

// -- Campaign::Handle ----------------------------------------------------

Campaign::Handle::Handle(std::shared_ptr<detail::CampaignState> state)
    : state_(std::move(state)) {}

// The Handle owns the state alone; destroying it joins the pool.
Campaign::Handle::~Handle() = default;

void Campaign::Handle::cancel() { state_->runner.cancel(); }

bool Campaign::Handle::cancelled() const {
    return state_->runner.cancelled();
}

std::size_t Campaign::Handle::done() const {
    const auto lock = state_->runner.lock();
    return state_->runner.done();
}

std::size_t Campaign::Handle::total() const {
    return state_->grid.size();
}

Metrics Campaign::Handle::metrics() const {
    return detail::build_metrics(*state_);
}

CampaignSummary Campaign::Handle::wait() {
    state_->runner.wait();
    return detail::build_summary(*state_);
}

// -- launch --------------------------------------------------------------

Campaign::Handle Campaign::launch() {
    auto state = std::make_shared<detail::CampaignState>();
    state->factory = factory_;
    state->base = base_;
    state->faults = faults_;
    state->grid = grid();
    state->runs = runs_;
    state->seed = seed_;
    state->items = items_;
    state->budget_factor = budget_factor_;
    state->confirm_hazards = confirm_hazards_;
    state->knee_fraction = knee_fraction_;
    state->callback = callback_;

    state->rows.resize(state->grid.size());
    state->runner.launch(
        state->grid.size(), workers_,
        [raw = state.get()](std::size_t job) { detail::run_point(*raw, job); });
    return Handle(std::move(state));
}

CampaignSummary Campaign::run() { return launch().wait(); }

}  // namespace rap::flow
