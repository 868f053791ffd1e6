#include "flow/job_runner.hpp"

#include <algorithm>
#include <utility>

namespace rap::flow::detail {

void JobRunner::launch(std::size_t jobs, std::size_t workers,
                       std::function<void(std::size_t)> job) {
    job_ = std::move(job);
    jobs_ = jobs;
    if (workers == 0) workers = std::thread::hardware_concurrency();
    workers = std::max<std::size_t>(1, std::min(workers, jobs));
    pool_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        pool_.emplace_back([this] { work(); });
    }
}

void JobRunner::work() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (next_ < jobs_) {
        const std::size_t job = next_++;
        ++in_flight_;
        lock.unlock();
        std::exception_ptr error;
        try {
            job_(job);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        --in_flight_;
        if (error) {
            if (!error_) error_ = error;
            cancelled_.store(true, std::memory_order_relaxed);
        }
    }
}

void JobRunner::cancel() {
    const std::lock_guard<std::mutex> guard(mutex_);
    cancelled_.store(true, std::memory_order_relaxed);
}

void JobRunner::join() {
    for (std::thread& worker : pool_) {
        if (worker.joinable()) worker.join();
    }
}

void JobRunner::wait() {
    join();
    if (error_) std::rethrow_exception(error_);
}

}  // namespace rap::flow::detail
