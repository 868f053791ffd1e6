#pragma once

// Measurement helpers of the rap benchmark: sample statistics, failure
// accounting, in-memory spans and the result line. Nothing here knows
// about librap, so the helpers are tested on their own
// (tests/harness_test.cpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rapbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

/// Median of `samples` (mean of the middle two for an even count); 0
/// when there are none.
double median(std::vector<double> samples);

/// The tail of a timing distribution: the value at the highest integer
/// percentile that still leaves at least `min_beyond` samples ranked
/// above it (nearest-rank percentiles). A tail is never taken below the
/// median: when even p50 leaves fewer than `min_beyond` samples above
/// it, the maximum is reported, as percentile 100 with 0 beyond.
struct Tail {
    double value = 0.0;
    int percentile = 100;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};
Tail tail(std::vector<double> samples, std::size_t min_beyond = 10);

/// Failure accounting: every checked operation counts as attempted; one
/// that throws or fails any of its output checks counts as failed once.
class Tally {
public:
    /// Records one operation; a non-empty `problem` marks it failed.
    void record(std::string_view operation, const std::string& problem);

    /// Runs `check` as one operation. It returns "" when every output
    /// check passed, else what was wrong; a throw counts as a failure.
    template <class Check>
    void attempt(std::string_view operation, Check&& check) {
        std::string problem;
        try {
            problem = check();
        } catch (const std::exception& e) {
            problem = std::string("threw: ") + e.what();
        } catch (...) {
            problem = "threw a non-standard exception";
        }
        record(operation, problem);
    }

    std::size_t attempted() const noexcept { return attempted_; }
    std::size_t failed() const noexcept { return failed_; }
    double failed_frac() const noexcept {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / attempted_;
    }
    /// The first few failures, "operation: problem".
    const std::vector<std::string>& failures() const noexcept {
        return failures_;
    }

private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// One recorded interval. Times are seconds since the tracer started;
/// `parent` indexes the enclosing span (-1 for a root). A probe is work
/// the traced run adds to time a layer on its own; the untraced
/// operation does not do it, so probes stay out of the operation times
/// and of the self-time table. A derived span was not timed by a scope
/// around a call but measured elsewhere: by a stop hook inside a facade,
/// or summed over a pool's workers and divided by their number.
struct Span {
    std::string name;  ///< "<layer>.<what>", e.g. "petri.explore"
    double start_s = 0.0;
    double end_s = 0.0;
    long parent = -1;
    bool probe = false;
    bool derived = false;

    double duration() const noexcept { return end_s - start_s; }
    std::string_view layer() const;
};

/// In-memory span recorder for one thread. While disabled, span() reads
/// no clock and records nothing.
class Tracer {
public:
    explicit Tracer(std::string workload);

    void enable(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

    /// Closes its span when it goes out of scope.
    class Scope {
    public:
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope();

    private:
        friend class Tracer;
        Scope(Tracer* tracer, long index) : tracer_(tracer), index_(index) {}
        Tracer* tracer_;
        long index_;
    };

    /// Opens a span nested in the innermost open one.
    [[nodiscard]] Scope span(std::string name, bool probe = false);

    /// Index of the innermost open span (-1 when none is open).
    long current() const noexcept { return open_.empty() ? -1 : open_.back(); }

    /// Records a derived span from `start` to `end` as a child of
    /// `parent` and returns its index (-1 while disabled). It must lie
    /// inside its parent, after every span already recorded there, and
    /// the parent must still be open or derived.
    long add(std::string name, Clock::time_point start, Clock::time_point end,
             long parent);

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Duration of span `index` minus its direct children's durations
    /// (spans of one thread nest and never overlap).
    double self_time(std::size_t index) const;

    /// Summed self time per layer over span `root` and its descendants,
    /// probes and everything under them left out. Without probes the
    /// layers' self times add up to the root's duration minus the
    /// probes'.
    std::map<std::string, double> self_by_layer(std::size_t root) const;

    /// Durations of every span called `name`, in recording order.
    std::vector<double> durations(std::string_view name) const;

    /// Self times of every span called `name`, in recording order.
    std::vector<double> self_times(std::string_view name) const;

    /// Indices of every root-level span called `name`.
    std::vector<std::size_t> roots(std::string_view name) const;

    /// One JSON object per line: name, start, end, parent, probe,
    /// derived, workload.
    std::string to_jsonl() const;

private:
    /// Whether span `index` is `root` or below it with no probe on the
    /// way up.
    bool counts_under(std::size_t index, std::size_t root) const;

    std::string workload_;
    bool enabled_ = false;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<long> open_;
};

/// Times the exploration a facade (Design::verify, a sweep row) runs
/// inside it, from outside, through the engines' cooperative stop hook
/// (VerifyOptions::stop). The engines poll that hook once per BFS layer
/// and every 256 edges on each worker thread, so a pass explores from
/// its first poll to its last one. Set-up before the first poll and
/// tear-down after the last one are not part of the exploration.
class PassClock {
public:
    /// A stop hook that never stops a pass; it only reads the clock.
    /// The clock must outlive every pass the hook is installed in.
    std::function<bool()> hook();

    /// Forgets every poll so far: call it before a pass. With
    /// `polling` false the hook ignores polls until the next reset, so
    /// an untimed pass pays one call and one load per poll.
    void reset(bool polling = true) noexcept;

    /// First and last poll of any thread since reset(); false when
    /// nothing polled.
    bool interval(Clock::time_point& first, Clock::time_point& last) const;

    /// Seconds from the calling thread's first poll to its last one since
    /// its previous take (0 when it did not poll). For pools that run one
    /// pass at a time per worker, taken on the worker after each pass.
    static double take_thread_seconds();

private:
    void poll();

    std::atomic<bool> polling_{true};
    std::atomic<std::int64_t> first_ns_{INT64_MAX};
    std::atomic<std::int64_t> last_ns_{INT64_MIN};
};

/// One reported figure.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// A double printed with every digit it needs to read back exactly.
std::string json_number(double value);
std::string json_string(std::string_view text);

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics);

/// The machine's CPU time so far, in clock ticks (Linux /proc/stat):
/// all of it, and the steal, the time a hypervisor ran something else
/// while this machine's CPUs wanted to run. Zero where unavailable.
struct CpuTicks {
    unsigned long long total = 0;
    unsigned long long steal = 0;
};
CpuTicks cpu_ticks();

/// Steal over all CPU time between two readings (0 when none passed).
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set size of this process so far, in MiB (Linux
/// /proc/self/status VmHWM; 0 where that is unavailable).
double peak_rss_mb();

}  // namespace rapbench
