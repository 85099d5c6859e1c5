#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

namespace tsim
{

void
applyTracePrefix(std::vector<SweepJob> &jobs, const std::string &prefix)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (prefix.empty()) {
            jobs[i].cfg.tracePath.clear();
            continue;
        }
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), "_job%03zu.tdt", i);
        jobs[i].cfg.tracePath = prefix + suffix;
    }
}

SweepRunner::SweepRunner(unsigned jobs) : _jobs(jobs)
{
    if (_jobs == 0) {
        _jobs = std::thread::hardware_concurrency();
        if (_jobs == 0)
            _jobs = 1;
    }
}

void
SweepRunner::forEach(std::size_t n,
                     // tdram-lint:allow(hot-alloc): host-side job
                     // orchestration, invoked once per sweep job —
                     // never on the simulated event path.
                     const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(_jobs, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Every worker claims the next unclaimed index until none is left.
    std::atomic<std::size_t> next{0};
    std::mutex err_mtx;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(err_mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    // tdram-lint:allow(hot-alloc): per-sweep thread-pool launch.
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<SimReport>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    for (const SweepJob &job : jobs)
        requireValid(job.cfg);
    // tdram-lint:allow(hot-alloc): one report slot per sweep job,
    // allocated before any simulation starts.
    std::vector<SimReport> reports(jobs.size());
    forEach(jobs.size(), [&](std::size_t i) {
        reports[i] = runOne(jobs[i].cfg, jobs[i].workload);
    });
    return reports;
}

} // namespace tsim
