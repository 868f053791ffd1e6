#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace rapbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples, std::size_t min_beyond) {
    Tail t;
    t.samples = samples.size();
    if (samples.empty()) return t;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    for (int p = 99; p >= 50; --p) {
        // Nearest rank: the smallest rank covering p% of the samples.
        const auto rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) * n / 100.0));
        if (n - rank >= min_beyond) {
            t.value = samples[rank - 1];
            t.percentile = p;
            t.beyond = n - rank;
            return t;
        }
    }
    t.value = samples.back();
    return t;
}

void Tally::record(std::string_view operation, const std::string& problem) {
    ++attempted_;
    if (problem.empty()) return;
    ++failed_;
    if (failures_.size() < 20) {
        failures_.push_back(std::string(operation) + ": " + problem);
    }
}

std::string_view Span::layer() const {
    const std::string_view n = name;
    return n.substr(0, n.find('.'));
}

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->spans_[index_].end_s =
        seconds_between(tracer_->origin_, Clock::now());
    tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(std::string name, bool probe) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.probe = probe;
    s.start_s = seconds_between(origin_, Clock::now());
    spans_.push_back(std::move(s));
    const long index = static_cast<long>(spans_.size()) - 1;
    open_.push_back(index);
    return Scope(this, index);
}

double Tracer::self_time(std::size_t index) const {
    const Span& parent = spans_[index];
    double self = parent.duration();
    // Spans are recorded in start order, so descendants follow their
    // ancestor until the first span that starts after it ended.
    for (std::size_t i = index + 1;
         i < spans_.size() && spans_[i].start_s <= parent.end_s; ++i) {
        if (spans_[i].parent == static_cast<long>(index)) {
            self -= spans_[i].duration();
        }
    }
    return self;
}

long Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end, long parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_s = seconds_between(origin_, start);
    s.end_s = seconds_between(origin_, end);
    s.parent = parent;
    s.derived = true;
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size()) - 1;
}

bool Tracer::counts_under(std::size_t index, std::size_t root) const {
    for (long i = static_cast<long>(index); i >= 0; i = spans_[i].parent) {
        if (spans_[i].probe) return false;
        if (static_cast<std::size_t>(i) == root) return true;
    }
    return false;
}

std::map<std::string, double> Tracer::self_by_layer(std::size_t root) const {
    std::map<std::string, double> out;
    for (std::size_t i = root;
         i < spans_.size() && spans_[i].start_s <= spans_[root].end_s; ++i) {
        if (counts_under(i, root)) {
            out[std::string(spans_[i].layer())] += self_time(i);
        }
    }
    return out;
}

std::vector<double> Tracer::durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) out.push_back(s.duration());
    }
    return out;
}

std::vector<double> Tracer::self_times(std::string_view name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) out.push_back(self_time(i));
    }
    return out;
}

std::vector<std::size_t> Tracer::roots(std::string_view name) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent < 0 && spans_[i].name == name) out.push_back(i);
    }
    return out;
}

std::string Tracer::to_jsonl() const {
    std::string out;
    for (const Span& s : spans_) {
        out += "{\"name\": " + json_string(s.name) +
               ", \"start_s\": " + json_number(s.start_s) +
               ", \"end_s\": " + json_number(s.end_s) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"probe\": " + (s.probe ? "true" : "false") +
               ", \"derived\": " + (s.derived ? "true" : "false") +
               ", \"workload\": " + json_string(workload_) + "}\n";
    }
    return out;
}

namespace {

std::int64_t to_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

Clock::time_point from_ns(std::int64_t ns) {
    return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(ns)));
}

/// The calling thread's first and last poll since its last take.
struct ThreadPolls {
    std::int64_t first = INT64_MAX;
    std::int64_t last = INT64_MIN;
};
thread_local ThreadPolls thread_polls;

}  // namespace

std::function<bool()> PassClock::hook() {
    return [this] {
        if (polling_.load(std::memory_order_relaxed)) poll();
        return false;
    };
}

void PassClock::poll() {
    const std::int64_t now = to_ns(Clock::now());
    std::int64_t first = first_ns_.load(std::memory_order_relaxed);
    while (now < first && !first_ns_.compare_exchange_weak(
                              first, now, std::memory_order_relaxed)) {
    }
    std::int64_t last = last_ns_.load(std::memory_order_relaxed);
    while (now > last && !last_ns_.compare_exchange_weak(
                             last, now, std::memory_order_relaxed)) {
    }
    thread_polls.first = std::min(thread_polls.first, now);
    thread_polls.last = std::max(thread_polls.last, now);
}

void PassClock::reset(bool polling) noexcept {
    first_ns_.store(INT64_MAX, std::memory_order_relaxed);
    last_ns_.store(INT64_MIN, std::memory_order_relaxed);
    polling_.store(polling, std::memory_order_relaxed);
}

bool PassClock::interval(Clock::time_point& first,
                         Clock::time_point& last) const {
    const std::int64_t f = first_ns_.load(std::memory_order_relaxed);
    const std::int64_t l = last_ns_.load(std::memory_order_relaxed);
    if (f > l) return false;
    first = from_ns(f);
    last = from_ns(l);
    return true;
}

double PassClock::take_thread_seconds() {
    const ThreadPolls polls = std::exchange(thread_polls, ThreadPolls{});
    if (polls.first > polls.last) return 0.0;
    return static_cast<double>(polls.last - polls.first) * 1e-9;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    return std::string(buf, end);
}

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(metrics[i].name) +
               ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}}";
}

CpuTicks cpu_ticks() {
    CpuTicks ticks;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    if (cpu != "cpu") return ticks;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        unsigned long long value = 0;
        if (!(stat >> value)) return CpuTicks{};
        ticks.total += value;
        if (field == 7) ticks.steal = value;
    }
    return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
    if (to.total <= from.total) return 0.0;
    return static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

double peak_rss_mb() {
    // VmHWM rather than getrusage's ru_maxrss: the latter keeps the
    // high-water mark of the process image exec() replaced, so a
    // benchmark started from a large parent would report the parent.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

}  // namespace rapbench
