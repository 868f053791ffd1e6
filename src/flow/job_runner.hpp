#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rap::flow::detail {

/// The worker pool under flow::Sweep and flow::Campaign. Threads claim
/// job indices 0..n-1 in order; every index reaches its job body exactly
/// once, cancelled or not, and the body reads cancelled() to skip or cut
/// short its work. A job counts as in flight while its body runs; the
/// body counts its finished result rows through finish_row(). The first
/// exception that escapes a body cancels the runner, and wait() rethrows
/// it after joining the pool.
class JobRunner {
public:
    JobRunner() = default;
    JobRunner(const JobRunner&) = delete;
    JobRunner& operator=(const JobRunner&) = delete;
    ~JobRunner() { join(); }

    /// Starts `workers` threads over `jobs` job indices; 0 workers = one
    /// per hardware thread. Capped at the job count, at least one.
    void launch(std::size_t jobs, std::size_t workers,
                std::function<void(std::size_t)> job);

    /// Sets the cancel flag under the result lock, so no sink is entered
    /// once this returns.
    void cancel();
    bool cancelled() const {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /// The result lock; read done() and in_flight() under it.
    std::unique_lock<std::mutex> lock() const {
        return std::unique_lock<std::mutex>(mutex_);
    }
    std::size_t done() const { return done_; }
    std::size_t in_flight() const { return in_flight_; }

    /// Runs `fold`, then `sink` unless cancel() has returned, both under
    /// the result lock: sinks are serialised and never fire after
    /// cancel(). A throwing sink cancels the runner before the lock is
    /// released, so no other sink runs after it.
    template <class Fold, class Sink>
    void publish(Fold&& fold, Sink&& sink) {
        const std::lock_guard<std::mutex> guard(mutex_);
        fold();
        if (cancelled()) return;
        try {
            sink();
        } catch (...) {
            cancelled_.store(true, std::memory_order_relaxed);
            throw;
        }
    }

    /// publish() that also counts one result row done.
    template <class Fold, class Sink>
    void finish_row(Fold&& fold, Sink&& sink) {
        publish(
            [&] {
                ++done_;
                fold();
            },
            sink);
    }

    /// Joins the pool, then rethrows the first exception a job let
    /// escape.
    void wait();

private:
    void work();
    void join();  // from the owner's thread; later calls return at once

    std::function<void(std::size_t)> job_;
    std::size_t jobs_ = 0;
    std::atomic<bool> cancelled_{false};

    mutable std::mutex mutex_;  // guards the four fields below
    std::size_t next_ = 0;
    std::size_t in_flight_ = 0;
    std::size_t done_ = 0;
    std::exception_ptr error_;

    std::vector<std::thread> pool_;  // last: joined before the rest dies
};

}  // namespace rap::flow::detail
