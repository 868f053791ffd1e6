// Tests for the flow::Campaign Monte-Carlo harness: grid expansion,
// bit-reproducibility across worker counts (the seeding contract),
// survival-curve aggregation, streaming per-run rows, hazard
// confirmation plumbing, and the rap_mc_* metrics exposition.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs_helpers.hpp"
#include "rap/flow/campaign.hpp"
#include "rap/flow/metrics.hpp"

namespace rap::flow {
namespace {

/// Small OPE-style pipeline factory (the real reconfigurable OPE is too
/// heavy for a tier-1 Monte-Carlo grid), with the chip's validity rule
/// expressed by throwing.
Campaign::Factory small_factory(int stages) {
    return [stages](int depth) {
        if (depth < 1 || depth > stages) {
            throw std::invalid_argument(
                "depth " + std::to_string(depth) + " out of range for " +
                std::to_string(stages) + " stages");
        }
        return pipeline::build_pipeline(
            "mc_s" + std::to_string(stages) + "_d" + std::to_string(depth),
            dfs::testing::ope_style_stages(stages, depth));
    };
}

TEST(Campaign, GridExpandsInStableOrder) {
    Campaign campaign(small_factory(2));
    const auto grid = campaign.depths({1, 2})
                          .fault_scales({0.0, 1.0})
                          .voltages({1.2, 0.6})
                          .grid();
    ASSERT_EQ(grid.size(), 2u * 2u * 2u);
    // depth outermost, then fault scale, then voltage
    EXPECT_EQ(grid[0].label, "d1/f0.00/v1.20");
    EXPECT_EQ(grid[1].label, "d1/f0.00/v0.60");
    EXPECT_EQ(grid[2].label, "d1/f1.00/v1.20");
    EXPECT_EQ(grid[4].label, "d2/f0.00/v1.20");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].index, i);
    }
}

TEST(Campaign, RejectsBadConfiguration) {
    EXPECT_THROW(Campaign(Campaign::Factory{}), std::invalid_argument);
    Campaign campaign(small_factory(2));
    EXPECT_THROW(campaign.voltages({}), std::invalid_argument);
    EXPECT_THROW(campaign.fault_scales({}), std::invalid_argument);
    EXPECT_THROW(campaign.depths({}), std::invalid_argument);
    EXPECT_THROW(campaign.runs(0), std::invalid_argument);
    EXPECT_THROW(campaign.items(0), std::invalid_argument);
    EXPECT_THROW(campaign.time_budget_factor(0.0), std::invalid_argument);
}

TEST(Campaign, RejectsFaultConfigsAtTheSetter) {
    // A negative fault scale or an inverted droop-duration range used to
    // be accepted here and then throw inside a pool worker, terminating
    // the process. The setters reject them and leave the campaign as it
    // was, so it still runs.
    Campaign campaign = Campaign::ope(3).depths({3}).runs(2).items(4);
    EXPECT_THROW(campaign.fault_scales({-1.0}), std::invalid_argument);
    EXPECT_THROW(campaign.fault_scales({1.0, -0.5}), std::invalid_argument);
    asim::FaultSpec inverted;
    inverted.glitch.rate_hz = 1e6;
    inverted.glitch.droop_v = 0.4;
    inverted.glitch.min_duration_s = 5e-8;
    inverted.glitch.max_duration_s = 1e-8;
    EXPECT_THROW(campaign.base_faults(inverted), std::invalid_argument);
    inverted.glitch.min_duration_s = -1e-8;
    EXPECT_THROW(campaign.base_faults(inverted), std::invalid_argument);

    const CampaignSummary summary = campaign.run();
    ASSERT_EQ(summary.rows.size(), 1u);
    EXPECT_EQ(summary.rows[0].runs, 2u);
    EXPECT_EQ(summary.rows[0].completed, 2u);
}

// The seeding contract: the full result set — every per-point checksum
// and the campaign checksum — is bit-identical at any worker count.
TEST(Campaign, BitReproducibleAcrossWorkerCounts) {
    asim::FaultSpec faults;
    faults.delay_sigma = 0.2;
    faults.drop_rate = 0.02;
    faults.glitch.rate_hz = 1e6;  // a few droops per microsecond-scale run
    faults.glitch.droop_v = 0.4;
    faults.glitch.min_duration_s = 1e-8;
    faults.glitch.max_duration_s = 5e-8;

    auto summary_at = [&](std::size_t workers) {
        return Campaign(small_factory(2))
            .depths({1, 2})
            .fault_scales({0.0, 1.0})
            .voltages({1.2, 0.7})
            .base_faults(faults)
            .runs(6)
            .items(6)
            .seed(99)
            .workers(workers)
            .run();
    };

    const CampaignSummary serial = summary_at(1);
    const CampaignSummary pooled = summary_at(4);
    ASSERT_EQ(serial.rows.size(), pooled.rows.size());
    EXPECT_EQ(serial.checksum, pooled.checksum);
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].checksum, pooled.rows[i].checksum)
            << serial.rows[i].point.label;
        EXPECT_EQ(serial.rows[i].completed, pooled.rows[i].completed);
        EXPECT_EQ(serial.rows[i].mean_time_s, pooled.rows[i].mean_time_s);
    }

    // A different master seed realises a different campaign.
    const CampaignSummary other = summary_at(1);
    EXPECT_EQ(other.checksum, serial.checksum) << "same seed reruns match";
    const CampaignSummary reseeded = Campaign(small_factory(2))
                                         .depths({1, 2})
                                         .fault_scales({0.0, 1.0})
                                         .voltages({1.2, 0.7})
                                         .base_faults(faults)
                                         .runs(6)
                                         .items(6)
                                         .seed(100)
                                         .run();
    EXPECT_NE(reseeded.checksum, serial.checksum);
}

TEST(Campaign, CleanNominalCampaignSurvivesEverywhere) {
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .runs(4)
                                        .items(8)
                                        .seed(7)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 1u);
    EXPECT_EQ(summary.survival(), 1.0);
    EXPECT_FALSE(summary.first_failure_voltage.has_value());
    EXPECT_EQ(summary.hazards_total, 0u);
    EXPECT_GT(summary.rows[0].mean_energy_per_item_j, 0.0);
    EXPECT_GT(summary.rows[0].mean_time_s, 0.0);
}

TEST(Campaign, SubFreezeVoltageShowsUpInTheSurvivalCurve) {
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .voltages({1.2, 0.3})  // < v_freeze
                                        .runs(3)
                                        .items(4)
                                        .seed(7)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 2u);
    EXPECT_EQ(summary.rows[0].survival, 1.0);  // nominal
    EXPECT_EQ(summary.rows[1].survival, 0.0);  // frozen supply
    EXPECT_EQ(summary.rows[1].frozen, 3u);
    ASSERT_TRUE(summary.first_failure_voltage.has_value());
    EXPECT_NEAR(*summary.first_failure_voltage, 0.3, 1e-12);
}

// The knee-detection bugfix: a statistical blip at nominal voltage (a
// few flaky runs out of many) must not drag first_failure_voltage to
// the top of the axis. With the minimum-failure-fraction knob the knee
// lands on the decisively failing band and the blip is reported
// separately; the knob never perturbs the reproducibility checksums.
TEST(Campaign, KneeRequiresMinimumFailureFraction) {
    asim::FaultSpec faults;
    faults.stuck_rate = 0.002;  // rare stuck-ats: flaky, not broken

    auto run_with = [&](double knee) {
        return Campaign(small_factory(2))
            .depths({2})
            .voltages({1.2, 0.3})  // nominal + sub-freeze
            .base_faults(faults)
            .runs(8)
            .items(6)
            .seed(99)
            .knee_min_failure_fraction(knee)
            .run();
    };

    // Legacy behaviour (threshold 0): ANY failing run moves the knee.
    const CampaignSummary strict = run_with(0.0);
    ASSERT_EQ(strict.rows.size(), 2u);
    const CampaignAggregate& nominal = strict.rows[0];
    const CampaignAggregate& frozen = strict.rows[1];
    ASSERT_EQ(frozen.completed, 0u);  // sub-freeze: every run fails
    // The seed must realise a partial failure at nominal — the blip.
    ASSERT_GT(nominal.completed, 0u);
    ASSERT_LT(nominal.completed, nominal.runs);
    ASSERT_TRUE(strict.first_failure_voltage.has_value());
    EXPECT_NEAR(*strict.first_failure_voltage, 1.2, 1e-12);  // the bug
    EXPECT_EQ(strict.blip_points, 0u);

    // With the threshold above the blip's fraction the knee lands on
    // the decisively failing band and the blip is reported separately.
    const double blip_fraction =
        static_cast<double>(nominal.runs - nominal.completed) /
        static_cast<double>(nominal.runs);
    const CampaignSummary tolerant = run_with(blip_fraction + 0.01);
    ASSERT_TRUE(tolerant.first_failure_voltage.has_value());
    EXPECT_NEAR(*tolerant.first_failure_voltage, 0.3, 1e-12);
    EXPECT_EQ(tolerant.blip_points, 1u);
    ASSERT_TRUE(tolerant.highest_blip_voltage.has_value());
    EXPECT_NEAR(*tolerant.highest_blip_voltage, 1.2, 1e-12);
    EXPECT_EQ(tolerant.checksum, strict.checksum)
        << "knee classification must not perturb result checksums";

    EXPECT_THROW(Campaign(small_factory(2)).knee_min_failure_fraction(-0.1),
                 std::invalid_argument);
    EXPECT_THROW(Campaign(small_factory(2)).knee_min_failure_fraction(1.5),
                 std::invalid_argument);
}

TEST(Campaign, StuckFaultsDegradeSurvival) {
    asim::FaultSpec faults;
    faults.stuck_rate = 0.05;
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .fault_scales({0.0, 20.0})
                                        .base_faults(faults)
                                        .runs(4)
                                        .items(8)
                                        .seed(13)
                                        .confirm_hazards(true)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 2u);
    EXPECT_EQ(summary.rows[0].survival, 1.0);  // scale 0 disarms
    EXPECT_EQ(summary.rows[1].survival, 0.0);  // stuck_rate 1.0
    EXPECT_GT(summary.rows[1].faults_injected, 0u);
}

TEST(Campaign, InvalidDepthPointsReportAsDeterministicFailures) {
    const CampaignSummary a = Campaign(small_factory(2))
                                  .depths({3})  // factory throws
                                  .runs(3)
                                  .seed(5)
                                  .run();
    const CampaignSummary b = Campaign(small_factory(2))
                                  .depths({3})
                                  .runs(3)
                                  .seed(5)
                                  .run();
    ASSERT_EQ(a.rows.size(), 1u);
    EXPECT_EQ(a.rows[0].completed, 0u);
    EXPECT_EQ(a.runs_total, 3u);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(Campaign, StreamsRowsInRunOrderPerPoint) {
    std::map<std::size_t, std::vector<std::size_t>> seen;
    std::size_t rows = 0;
    const CampaignSummary summary =
        Campaign(small_factory(2))
            .depths({1, 2})
            .runs(4)
            .items(4)
            .seed(3)
            .on_run([&](const CampaignRun& run) {
                seen[run.point].push_back(run.run);
                ++rows;
            })
            .run();
    EXPECT_EQ(rows, summary.runs_total);
    for (const auto& [point, runs] : seen) {
        ASSERT_EQ(runs.size(), 4u) << "point " << point;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            EXPECT_EQ(runs[r], r) << "rows of one point arrive in order";
        }
    }
}

// cancel() interrupts a running point between runs: the point is dropped
// from the summary as unfinished and no on_run fires once cancel()
// returns.
TEST(Campaign, CancelInterruptsARunningPoint) {
    constexpr std::size_t kRuns = 100000;
    std::promise<void> first_run;
    auto first_run_seen = first_run.get_future();
    std::size_t calls = 0;
    Campaign campaign(small_factory(2));
    Campaign::Handle handle = campaign.depths({2})
                                  .runs(kRuns)
                                  .items(4)
                                  .on_run([&](const CampaignRun&) {
                                      if (++calls == 1) first_run.set_value();
                                  })
                                  .launch();
    first_run_seen.wait();
    handle.cancel();
    const std::size_t calls_at_cancel = calls;

    const CampaignSummary summary = handle.wait();
    EXPECT_EQ(calls, calls_at_cancel);
    EXPECT_TRUE(summary.rows.empty());
    EXPECT_EQ(summary.runs_total, 0u);
    EXPECT_EQ(handle.done(), 0u);
    const Metrics m = handle.metrics();
    EXPECT_LT(m.value("rap_mc_runs_done"), static_cast<double>(kRuns));
    EXPECT_EQ(m.value("rap_mc_cancelled"), 1.0);
    EXPECT_EQ(m.value("rap_mc_in_flight"), 0.0);
}

// A throwing on_run ends the campaign instead of the process: wait()
// joins the pool and rethrows, and no further on_run fires.
TEST(Campaign, ThrowingSinkRethrowsFromWait) {
    std::size_t calls = 0;
    Campaign::Handle handle = Campaign(small_factory(2))
                                  .depths({1, 2})
                                  .runs(4)
                                  .items(4)
                                  .workers(1)
                                  .on_run([&](const CampaignRun&) {
                                      ++calls;
                                      throw std::runtime_error("sink failed");
                                  })
                                  .launch();
    EXPECT_THROW(handle.wait(), std::runtime_error);
    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(handle.metrics().value("rap_mc_in_flight"), 0.0);
}

TEST(Campaign, MetricsExposeMonteCarloCounters) {
    auto handle = Campaign(small_factory(2))
                      .depths({1, 2})
                      .runs(2)
                      .items(4)
                      .seed(21)
                      .launch();
    const CampaignSummary summary = handle.wait();
    const Metrics snapshot = handle.metrics();
    const std::string text = metrics::to_prometheus(snapshot);
    EXPECT_NE(text.find("rap_mc_points_total 2"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_points_done 2"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_runs_done 4"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_failures_total 0"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_survival 1"), std::string::npos);
    EXPECT_EQ(summary.runs_total, 4u);
}

}  // namespace
}  // namespace rap::flow
