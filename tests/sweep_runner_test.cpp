/**
 * @file
 * SweepRunner tests: work distribution, exception propagation, and
 * the determinism contract — a parallel sweep must produce reports
 * bit-identical to a serial run of the same configurations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep_runner.hh"
#include "system/system.hh"

namespace tsim
{
namespace
{

SystemConfig
tinyCfg(Design d)
{
    SystemConfig cfg;
    cfg.design = d;
    cfg.dcache.capacityBytes = 2ULL << 20;
    cfg.cores.cores = 2;
    cfg.cores.opsPerCore = 1200;
    cfg.cores.llcBytes = 256 * 1024;
    cfg.warmupOpsPerCore = 4000;
    return cfg;
}

/**
 * Render every deterministic SimReport field with hex-float
 * precision, so comparing two reports compares exact bit patterns.
 * hostPerf is intentionally excluded: wall-time is host noise.
 */
std::string
reportKey(const SimReport &r)
{
    char buf[512];
    std::string s = r.workload + "|" + r.design + "|" +
                    (r.highMiss ? "1" : "0") + "|";
    std::snprintf(buf, sizeof(buf), "%llu|%llu|%llu|%a|%a|%a|%a|%a|%a|%a|",
                  (unsigned long long)r.runtimeTicks,
                  (unsigned long long)r.demandReads,
                  (unsigned long long)r.demandWrites, r.missRatio,
                  r.tagCheckNs, r.readQueueDelayNs,
                  r.mmReadQueueDelayNs, r.demandReadLatencyNs, r.bloat,
                  r.unusefulFrac);
    s += buf;
    for (double f : r.outcomeFrac) {
        std::snprintf(buf, sizeof(buf), "%a,", f);
        s += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "|%a|%a|%a|%a|%a|%llu|%a|%a|%llu|%a|%llu",
                  r.cacheBytes, r.mmBytes, r.energy.totalJ(),
                  r.energy.cacheJ(), r.energy.mmJ(),
                  (unsigned long long)r.flushStalls, r.flushMaxOcc,
                  r.flushAvgOcc, (unsigned long long)r.probes,
                  r.predictorAccuracy,
                  (unsigned long long)r.backpressureStalls);
    s += buf;
    return s;
}

TEST(SweepRunner, DefaultsToHardwareConcurrency)
{
    SweepRunner r;
    EXPECT_GE(r.jobs(), 1u);
    SweepRunner r4(4);
    EXPECT_EQ(r4.jobs(), 4u);
}

TEST(SweepRunner, ForEachVisitsEveryIndexExactlyOnce)
{
    const std::size_t n = 200;
    std::vector<std::atomic<int>> visits(n);
    SweepRunner runner(4);
    runner.forEach(n, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(SweepRunner, ForEachHandlesEmptyAndSingleItem)
{
    SweepRunner runner(4);
    runner.forEach(0, [](std::size_t) { FAIL(); });
    int calls = 0;
    runner.forEach(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(SweepRunner, ForEachPropagatesExceptions)
{
    SweepRunner runner(3);
    EXPECT_THROW(
        runner.forEach(16,
                       [&](std::size_t i) {
                           if (i == 7)
                               throw std::runtime_error("job 7 failed");
                       }),
        std::runtime_error);
}

/**
 * The acceptance test of the parallel runner: reports from a
 * parallel sweep must be bit-identical, field by field, to a serial
 * run of the same configurations, and ordered by job index.
 */
TEST(SweepRunner, ParallelReportsBitIdenticalToSerial)
{
    std::vector<SweepJob> jobs;
    for (Design d : {Design::Tdram, Design::CascadeLake}) {
        for (const char *wl : {"is.C", "ft.C"}) {
            jobs.push_back(SweepJob{tinyCfg(d), findWorkload(wl)});
        }
    }

    // Serial reference: plain runOne, in order, on this thread.
    std::vector<std::string> serial;
    for (const SweepJob &j : jobs)
        serial.push_back(reportKey(runOne(j.cfg, j.workload)));

    // Parallel on several workers, twice (the second run catches
    // scheduling-order dependence).
    for (unsigned workers : {4u, 2u}) {
        SweepRunner runner(workers);
        const std::vector<SimReport> reports = runner.run(jobs);
        ASSERT_EQ(reports.size(), jobs.size());
        for (std::size_t i = 0; i < reports.size(); ++i) {
            EXPECT_EQ(reportKey(reports[i]), serial[i])
                << "job " << i << " with " << workers << " workers";
        }
    }
}

TEST(SweepRunner, ReportsCarryHostPerfCounters)
{
    SweepRunner runner(2);
    const std::vector<SweepJob> jobs{
        SweepJob{tinyCfg(Design::Tdram), findWorkload("is.C")}};
    const std::vector<SimReport> reports = runner.run(jobs);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_GT(reports[0].hostPerf.events, 0u);
    EXPECT_EQ(reports[0].hostPerf.runs, 1u);
    EXPECT_EQ(reports[0].hostPerf.simTicks, reports[0].runtimeTicks);
    EXPECT_GE(reports[0].hostPerf.hostSeconds, 0.0);
}

} // namespace
} // namespace tsim
