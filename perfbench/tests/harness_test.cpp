// Tests of the benchmark's own helpers: the tail-percentile rule, span
// self time, the pass clock and failure accounting.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace rapbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Tail, HighestPercentileLeavingTenBeyond) {
    // 100 samples 1..100: p90 is rank 90 with exactly 10 ranked above.
    const Tail t = tail(one_to(100));
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);
}

TEST(Tail, SmallSampleMovesThePercentileDown) {
    // 25 samples: p60 -> rank 15, 10 beyond; p61 -> rank 16, only 9.
    const Tail t = tail(one_to(25));
    EXPECT_EQ(t.percentile, 60);
    EXPECT_EQ(t.value, 15.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, TooFewSamplesReportTheMaximum) {
    // 19 samples: p50 is rank 10 with 9 beyond, and a tail below the
    // median is no tail.
    const Tail t = tail(one_to(19));
    EXPECT_EQ(t.percentile, 100);
    EXPECT_EQ(t.value, 19.0);
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(tail(one_to(20)).percentile, 50);
    EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Median, OddEvenAndEmpty) {
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce) {
    Tracer tracer("test");
    tracer.enable(true);
    {
        auto root = tracer.span("verify.verify");
        {
            auto child = tracer.span("petri.explore");
            auto grandchild = tracer.span("petri.compile");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        {
            auto child = tracer.span("dfs.translate", true);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    const auto& spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[3].parent, 0);
    EXPECT_TRUE(spans[3].probe);

    // Root self time: its duration minus both children (the grandchild
    // sits inside the first child and is not subtracted again).
    const double root_self = tracer.self_time(0);
    EXPECT_NEAR(root_self,
                spans[0].duration() - spans[1].duration() -
                    spans[3].duration(),
                1e-12);
    EXPECT_GE(root_self, 0.015);
    EXPECT_NEAR(tracer.self_time(1),
                spans[1].duration() - spans[2].duration(), 1e-12);
    EXPECT_NEAR(tracer.self_time(2), spans[2].duration(), 1e-12);

    // The probe is left out of the table: the layers add up to the
    // root's duration minus the probe's.
    const auto by_layer = tracer.self_by_layer(0);
    EXPECT_EQ(by_layer.count("dfs"), 0u);
    EXPECT_NEAR(by_layer.at("verify") + by_layer.at("petri"),
                spans[0].duration() - spans[3].duration(), 1e-12);
    EXPECT_NEAR(by_layer.at("petri"),
                tracer.self_time(1) + tracer.self_time(2), 1e-12);
    EXPECT_EQ(tracer.roots("verify.verify"), std::vector<std::size_t>{0});
    EXPECT_EQ(tracer.durations("petri.explore").size(), 1u);
    EXPECT_EQ(tracer.self_times("petri.explore"),
              std::vector<double>{tracer.self_time(1)});
}

TEST(SelfTime, DerivedSpansSplitTheirParent) {
    Tracer tracer("test");
    tracer.enable(true);
    {
        auto op = tracer.span("bench.op");
        auto facade = tracer.span("flow.sweep");
        const auto start = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        // A pool's verify time, and the exploration inside it.
        const long verify = tracer.add(
            "verify.rows", start, start + std::chrono::milliseconds(20),
            tracer.current());
        tracer.add("petri.pass", start + std::chrono::milliseconds(5),
                   start + std::chrono::milliseconds(17), verify);
    }
    const auto& spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[3].parent, 2);
    EXPECT_TRUE(spans[2].derived);
    EXPECT_FALSE(spans[1].derived);
    EXPECT_NEAR(tracer.self_time(2), 0.008, 1e-6);

    const auto by_layer = tracer.self_by_layer(0);
    EXPECT_NEAR(by_layer.at("petri"), 0.012, 1e-6);
    EXPECT_NEAR(by_layer.at("verify"), 0.008, 1e-6);
    EXPECT_NEAR(by_layer.at("bench") + by_layer.at("flow") +
                    by_layer.at("verify") + by_layer.at("petri"),
                spans[0].duration(), 1e-12);
    EXPECT_NE(tracer.to_jsonl().find("\"derived\": true"), std::string::npos);
}

TEST(PassClock, SpansEveryThreadsPolls) {
    PassClock clock;
    Clock::time_point first, last;
    EXPECT_FALSE(clock.interval(first, last));
    const auto hook = clock.hook();
    const auto before = Clock::now();
    std::thread worker([&] {
        EXPECT_FALSE(hook());
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hook();
        EXPECT_GE(PassClock::take_thread_seconds(), 0.02);
        EXPECT_EQ(PassClock::take_thread_seconds(), 0.0);
    });
    worker.join();
    hook();
    const auto after = Clock::now();
    ASSERT_TRUE(clock.interval(first, last));
    EXPECT_LE(before, first);
    EXPECT_LE(last, after);
    EXPECT_GE(seconds_between(first, last), 0.02);
    EXPECT_EQ(PassClock::take_thread_seconds(), 0.0);  // one poll only
    clock.reset(false);
    hook();
    EXPECT_FALSE(clock.interval(first, last));
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
    Tracer tracer("test");
    { auto span = tracer.span("petri.explore"); }
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tally, CountsFailedOperationsOnce) {
    Tally tally;
    tally.attempt("ok", [] { return std::string(); });
    tally.attempt("wrong count", [] { return std::string("states 3 != 4"); });
    tally.attempt("throws", []() -> std::string {
        throw std::runtime_error("boom");
    });
    tally.record("ok again", "");
    EXPECT_EQ(tally.attempted(), 4u);
    EXPECT_EQ(tally.failed(), 2u);
    EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.5);
    ASSERT_EQ(tally.failures().size(), 2u);
    EXPECT_EQ(tally.failures()[0], "wrong count: states 3 != 4");
    EXPECT_EQ(tally.failures()[1], "throws: threw: boom");
}

TEST(Tally, NothingAttemptedIsNoFailure) {
    EXPECT_EQ(Tally{}.failed_frac(), 0.0);
}

TEST(ResultLine, ExactKeysAndAllDigits) {
    const std::string line =
        result_line(true, 3, 0, {{"verify_s", 0.1234567890123, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"verify_s\": {\"value\": 0.1234567890123, "
              "\"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace rapbench
