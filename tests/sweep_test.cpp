// Tests for the flow::Sweep batch driver and the flow::Metrics
// exposition: 3-axis grid expansion, dedup-before-compile proven by the
// artifact-build counters, differential equality against serial Design
// runs, mid-sweep cancellation, per-configuration timeouts, and the
// Prometheus text format.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dfs_helpers.hpp"
#include "rap/flow/metrics.hpp"
#include "rap/flow/sweep.hpp"
#include "rap/verify/cache.hpp"

namespace rap::flow {
namespace {

/// OPE-style factory over the generic pipeline builder: small enough for
/// tier-1 runs (the real 3-stage reconfigurable OPE is ~191k states),
/// with the chip's validity rule expressed by throwing.
pipeline::Pipeline ope_style_factory(int stages, int depth) {
    if (depth < 1 || depth > stages) {
        throw std::invalid_argument(
            "depth " + std::to_string(depth) + " out of range for " +
            std::to_string(stages) + " stages");
    }
    return pipeline::build_pipeline(
        "sweep_s" + std::to_string(stages) + "_d" + std::to_string(depth),
        dfs::testing::ope_style_stages(stages, depth));
}

std::vector<tech::VoltageSchedule> two_schedules() {
    tech::VoltageSchedule droop;
    droop.add_segment(1e-6, 1.2);
    droop.add_segment(1e-6, 0.9);
    droop.add_segment(1e-6, 1.2);
    return {tech::VoltageSchedule::constant(1.2), droop};
}

TEST(Sweep, GridExpandsInStableOrder) {
    Sweep sweep(&ope_style_factory);
    const auto grid = sweep.stages({2, 3})
                          .depths(1, 3)
                          .schedules(two_schedules())
                          .grid();
    ASSERT_EQ(grid.size(), 2u * 3u * 2u);
    // stages outermost, then depth, then schedule
    EXPECT_EQ(grid[0].label, "s2/d1/v0");
    EXPECT_EQ(grid[1].label, "s2/d1/v1");
    EXPECT_EQ(grid[2].label, "s2/d2/v0");
    EXPECT_EQ(grid[6].label, "s3/d1/v0");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].index, i);
    }
}

TEST(Sweep, RejectsEmptyAxesAndNullFactory) {
    EXPECT_THROW(Sweep(Sweep::Factory{}), std::invalid_argument);
    Sweep sweep(&ope_style_factory);
    EXPECT_THROW(sweep.stages({}), std::invalid_argument);
    EXPECT_THROW(sweep.depths({}), std::invalid_argument);
    EXPECT_THROW(sweep.depths(3, 2), std::invalid_argument);
    EXPECT_THROW(sweep.schedules({}), std::invalid_argument);
}

// The acceptance sweep: 3 axes, dedup-before-compile proven by the
// global artifact-build counter, results identical to running each
// configuration's Design serially.
TEST(Sweep, ThreeAxisSweepDedupsBeforeCompileAndMatchesSerialRuns) {
    const auto schedules = two_schedules();
    DesignOptions base;

    // Valid (stages, depth) pairs with stages in {1,2,3}, depth 1..6:
    // s1:d1, s2:d1-2, s3:d1-3 -> 6 distinct model contents. The
    // schedule axis doubles the grid without changing model content.
    const std::size_t kDistinct = 6;
    const std::size_t kGrid = 3 * 6 * 2;

    const std::size_t builds_before = verify::artifact_builds();
    const verify::CacheStats cache_before = verify::cache_stats();

    std::atomic<std::size_t> streamed{0};
    Sweep sweep(&ope_style_factory, base);
    Sweep::Handle handle =
        sweep.stages({1, 2, 3})
            .depths(1, 6)
            .schedules(schedules)
            .workers(4)
            .on_result([&](const SweepResult&) { ++streamed; })
            .launch();
    const std::vector<SweepResult> rows = handle.wait();

    ASSERT_EQ(rows.size(), kGrid);
    EXPECT_EQ(streamed.load(), kGrid);
    EXPECT_EQ(handle.done(), kGrid);
    EXPECT_EQ(handle.total(), kGrid);
    EXPECT_FALSE(handle.cancelled());

    // Dedup before compile: 36 grid points, 6 distinct model contents,
    // exactly 6 artifact builds — every other lookup was a cache hit.
    EXPECT_EQ(handle.distinct_models(), kDistinct);
    EXPECT_EQ(verify::artifact_builds() - builds_before, kDistinct);
    const verify::CacheStats cache_after = verify::cache_stats();
    EXPECT_EQ(cache_after.misses - cache_before.misses, kDistinct);
    EXPECT_GT(cache_after.hits, cache_before.hits);

    std::size_t ok = 0;
    std::size_t invalid = 0;
    for (const SweepResult& row : rows) {
        EXPECT_EQ(row.point.index,
                  static_cast<std::size_t>(&row - rows.data()));
        if (row.status == SweepStatus::kInvalid) {
            ++invalid;
            EXPECT_GT(row.point.depth, row.point.stages);
            EXPECT_NE(row.error.find("out of range"), std::string::npos);
            continue;
        }
        ASSERT_EQ(row.status, SweepStatus::kOk) << row.point.label;
        ++ok;
        EXPECT_TRUE(row.clean) << row.point.label;
        EXPECT_GT(row.states, 0u);
        EXPECT_GE(row.verify_seconds, 0.0);
        ASSERT_TRUE(row.memory.has_value());
        EXPECT_GT(row.memory->records, 0u);
        EXPECT_GT(row.schedule_finish_s, 0.0);

        // Sweeps verify with partial-order reduction on by default; the
        // pass over these nets carries persistence, so reduction must
        // at least have been attempted (active), whatever it saved.
        ASSERT_TRUE(row.por.has_value()) << row.point.label;
        EXPECT_TRUE(row.por->active) << row.point.label;
        EXPECT_GT(row.por->expansions, 0u) << row.point.label;
        EXPECT_GE(row.por->enabled_transitions,
                  row.por->expanded_transitions)
            << row.point.label;

        // Differential: a serial Design session over the same factory
        // output, same options shape (one worker, same reduction
        // default as the sweep), must agree verdict-for-verdict and
        // state-for-state.
        DesignOptions serial_options = base;
        serial_options.verify.threads = 1;
        serial_options.verify.por = true;
        const auto design = make_design(
            ope_style_factory(row.point.stages, row.point.depth),
            serial_options);
        const verify::Report serial = design->verify();
        ASSERT_EQ(row.report.findings.size(), serial.findings.size());
        for (std::size_t i = 0; i < serial.findings.size(); ++i) {
            EXPECT_EQ(row.report.findings[i].violated,
                      serial.findings[i].violated);
            EXPECT_EQ(row.report.findings[i].states_explored,
                      serial.findings[i].states_explored);
            EXPECT_EQ(row.report.findings[i].trace,
                      serial.findings[i].trace);
        }
    }
    EXPECT_EQ(ok, kDistinct * 2);
    EXPECT_EQ(invalid, kGrid - kDistinct * 2);

    // The metrics snapshot agrees with the counters and reports the
    // sweep's cache traffic (hit rate strictly positive).
    const Metrics m = handle.metrics();
    EXPECT_EQ(m.value("rap_sweep_configs_total"),
              static_cast<double>(kGrid));
    EXPECT_EQ(m.value("rap_sweep_configs_done"),
              static_cast<double>(kGrid));
    EXPECT_EQ(m.value("rap_sweep_distinct_models"),
              static_cast<double>(kDistinct));
    EXPECT_EQ(m.value("rap_sweep_in_flight"), 0.0);
    EXPECT_EQ(m.value("rap_sweep_queue_depth"), 0.0);
    EXPECT_GT(m.value("rap_sweep_states_total"), 0.0);
    EXPECT_GT(m.value("rap_cache_hit_rate"), 0.0);
    EXPECT_LE(m.value("rap_cache_hit_rate"), 1.0);
}

// Cancellation honoured mid-sweep: after cancel() returns no further
// callbacks fire, in-flight work stops through the engines' stop hook,
// and wait() drains the pool with the tail rows marked kCancelled.
TEST(Sweep, CancelStopsCallbacksAndDrainsPool) {
    std::promise<void> first_row;
    auto first_row_seen = first_row.get_future();
    std::promise<void> gate;
    auto gate_open = gate.get_future().share();
    std::atomic<int> factory_calls{0};

    // The factory blocks from the second configuration on until the
    // test opens the gate *after* cancelling — deterministic mid-sweep
    // cancellation without timing assumptions.
    auto factory = [&](int stages, int depth) {
        if (factory_calls.fetch_add(1) > 0) gate_open.wait();
        return ope_style_factory(stages, depth);
    };

    std::atomic<std::size_t> callbacks{0};
    bool first_signalled = false;
    Sweep sweep{Sweep::Factory(factory)};
    Sweep::Handle handle =
        sweep.stages({2, 3})
            .depths(1, 2)  // 4 configurations, all valid
            .workers(1)
            .on_result([&](const SweepResult&) {
                ++callbacks;
                if (!first_signalled) {
                    first_signalled = true;
                    first_row.set_value();
                }
            })
            .launch();

    first_row_seen.wait();
    handle.cancel();
    EXPECT_TRUE(handle.cancelled());
    const std::size_t callbacks_at_cancel = callbacks.load();
    gate.set_value();

    const std::vector<SweepResult> rows = handle.wait();
    // The pool drained: every slot reports, but no callback fired after
    // cancel() returned.
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(handle.done(), 4u);
    EXPECT_EQ(callbacks.load(), callbacks_at_cancel);

    EXPECT_EQ(rows[0].status, SweepStatus::kOk);
    std::size_t cancelled = 0;
    for (const SweepResult& row : rows) {
        if (row.status == SweepStatus::kCancelled) ++cancelled;
    }
    EXPECT_GE(cancelled, 3u);
    EXPECT_EQ(handle.metrics().value("rap_sweep_cancelled"), 1.0);
}

// A sink that throws ends the sweep instead of the process: the
// exception cancels the rest of the grid, wait() joins the pool and
// rethrows it, and no callback fires after the one that threw.
TEST(Sweep, ThrowingSinkRethrowsFromWaitAndStopsCallbacks) {
    std::size_t callbacks = 0;
    Sweep sweep(&ope_style_factory);
    Sweep::Handle handle = sweep.stages({2, 3})
                               .depths(1, 2)  // 4 configurations
                               .workers(1)
                               .on_result([&](const SweepResult&) {
                                   ++callbacks;
                                   throw std::runtime_error("sink failed");
                               })
                               .launch();
    EXPECT_THROW(handle.wait(), std::runtime_error);
    EXPECT_EQ(callbacks, 1u);
    EXPECT_TRUE(handle.cancelled());
    // Joined and drained: every point reported, none still running.
    EXPECT_EQ(handle.done(), 4u);
    EXPECT_EQ(handle.metrics().value("rap_sweep_in_flight"), 0.0);
    EXPECT_EQ(handle.metrics().value("rap_sweep_queue_depth"), 0.0);
}

// A per-configuration wall-clock budget interrupts the exploration
// through the same stop hook: the row reports kTimedOut and its
// findings are truncated (inconclusive), while the sweep carries on.
TEST(Sweep, PerConfigTimeoutMarksRowTimedOut) {
    // The real 3-stage reconfigurable OPE (~191k states) cannot finish
    // in a millisecond; one worker polls the stop hook once per layer
    // and every 256 edges.
    DesignOptions base;
    base.verify.threads = 1;
    const std::vector<SweepResult> rows = Sweep::ope(base)
                                              .stages({3})
                                              .depths({3})
                                              .per_config_timeout(0.001)
                                              .run();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, SweepStatus::kTimedOut);
    ASSERT_FALSE(rows[0].report.findings.empty());
    bool any_truncated = false;
    for (const auto& finding : rows[0].report.findings) {
        any_truncated |= finding.truncated;
    }
    EXPECT_TRUE(any_truncated);
    EXPECT_LT(rows[0].states, 191000u);
}

// A pass that dies mid-exploration must not vanish from the memory
// accounting: petri::ExplorationAborted carries the interned footprint at
// the moment of death through the Verifier into the row and the sweep's
// peak-resident aggregate. An unwritable checkpoint directory kills the
// pass deterministically at the first save boundary (head 64).
TEST(Sweep, AbortedPassStillSalvagesPartialMemory) {
    DesignOptions base;
    base.verify.checkpoint_every = 64;
    Sweep sweep = Sweep::ope(base);
    Sweep::Handle handle = sweep.stages({3})
                               .depths({3})
                               .workers(1)
                               .checkpoint_dir("/nonexistent-rap-ckpt-dir")
                               .launch();
    const std::vector<SweepResult> rows = handle.wait();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, SweepStatus::kInvalid);
    EXPECT_NE(rows[0].error.find("cannot be opened for writing"),
              std::string::npos)
        << rows[0].error;
    // The partial pass interned at least the 64 expanded states before
    // the save threw — that footprint survives into the row...
    ASSERT_TRUE(rows[0].memory.has_value());
    EXPECT_GT(rows[0].memory->records, 64u);
    EXPECT_GT(rows[0].memory->resident_bytes, 0u);
    // ...and into the sweep-wide aggregate (this used to report 0).
    EXPECT_GT(handle.metrics().value("rap_sweep_peak_resident_bytes"),
              0.0);
}

// checkpoint_dir happy path: each grid point periodically serializes to
// `<dir>/<flattened-label>.ckpt`, and the finished handle exposes the
// peak configuration's store geometry gauges.
TEST(Sweep, CheckpointDirWritesPerPointFiles) {
    std::string dir = testing::TempDir();
    while (!dir.empty() && dir.back() == '/') dir.pop_back();
    const std::string path = dir + "/s3_d3_v0.ckpt";
    std::remove(path.c_str());

    DesignOptions base;
    base.verify.checkpoint_every = 4096;
    Sweep sweep = Sweep::ope(base);
    Sweep::Handle handle =
        sweep.stages({3}).depths({3}).workers(1).checkpoint_dir(dir).launch();
    const std::vector<SweepResult> rows = handle.wait();
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].status, SweepStatus::kOk) << rows[0].error;

    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "no checkpoint written at " << path;

    const Metrics m = handle.metrics();
    EXPECT_GT(m.value("rap_store_slots"), 0.0);
    EXPECT_GT(m.value("rap_store_table_bytes"), 0.0);
    EXPECT_GT(m.value("rap_store_arena_bytes"), 0.0);
    EXPECT_GT(m.value("rap_store_load_factor"), 0.0);
    EXPECT_LE(m.value("rap_store_load_factor"), 1.0);
}

// The engines refuse reuse + checkpoint, so the grid driver rejects the
// shared_store + checkpoint_dir combination before any worker starts.
TEST(Sweep, CheckpointDirRefusesSharedStoreChains) {
    Sweep sweep = Sweep::ope();
    sweep.stages({2}).depths(1, 2).shared_store(true).checkpoint_dir("/tmp");
    EXPECT_THROW(sweep.launch(), std::invalid_argument);
}

TEST(Metrics, PrometheusExpositionFormat) {
    Metrics m;
    m.set("rap_demo_total", "A counter", Metrics::Type::kCounter, 42.0);
    m.set("rap_demo_gauge", "A labelled gauge", Metrics::Type::kGauge,
          0.5, {{"shard", "3"}, {"mode", "a\"b\\c\nd"}});
    m.add("rap_demo_total", "A counter", Metrics::Type::kCounter, 1.0);

    const std::string text = metrics::to_prometheus(m);
    EXPECT_NE(text.find("# HELP rap_demo_total A counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE rap_demo_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("\nrap_demo_total 43\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE rap_demo_gauge gauge\n"),
              std::string::npos);
    // Label values escape backslash, double-quote and newline.
    EXPECT_NE(
        text.find(
            "rap_demo_gauge{shard=\"3\",mode=\"a\\\"b\\\\c\\nd\"} 0.5\n"),
        std::string::npos);
}

// The exposition of a finished sweep parses line by line: every line is
// a HELP/TYPE comment or `name{labels} value` with a finite value, and
// the families the dashboard needs are all present.
TEST(Metrics, SweepExpositionParses) {
    Sweep sweep(&ope_style_factory);
    Sweep::Handle handle =
        sweep.stages({2}).depths(1, 2).workers(2).launch();
    handle.wait();
    const std::string text = metrics::to_prometheus(handle.metrics());

    std::set<std::string> names;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            continue;
        }
        // name{...} value  |  name value
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string value_str = line.substr(space + 1);
        std::size_t parsed = 0;
        const double value = std::stod(value_str, &parsed);
        EXPECT_EQ(parsed, value_str.size()) << line;
        EXPECT_TRUE(std::isfinite(value)) << line;
        std::string name = line.substr(0, space);
        const std::size_t brace = name.find('{');
        if (brace != std::string::npos) name.resize(brace);
        ASSERT_FALSE(name.empty());
        for (const char c : name) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_')
                << line;
        }
        names.insert(name);
    }
    for (const char* required :
         {"rap_sweep_configs_total", "rap_sweep_configs_done",
          "rap_sweep_queue_depth", "rap_sweep_in_flight",
          "rap_sweep_distinct_models", "rap_sweep_states_total",
          "rap_sweep_states_per_second", "rap_sweep_peak_resident_bytes",
          "rap_por_active_configs", "rap_por_enabled_transitions_total",
          "rap_por_expanded_transitions_total",
          "rap_por_ignored_transitions_total", "rap_por_reduction_ratio",
          "rap_cache_hits_total", "rap_cache_misses_total",
          "rap_cache_hit_rate", "rap_cache_entries"}) {
        EXPECT_TRUE(names.count(required)) << required;
    }
}

}  // namespace
}  // namespace rap::flow
