/**
 * @file
 * HPC workload study: runs an entire suite (NPB-C, NPB-D or GAPBS)
 * on two designs and reports, per workload, the metrics the paper's
 * motivation section builds on — miss ratio, tag-check latency,
 * demand-read latency and the resulting speedup of TDRAM over the
 * commercial baseline.
 *
 * Usage: hpc_workload_study [suite] [opsPerCore]
 *        suite in {NPB-C, NPB-D, GAPBS}
 */

#include <cstdio>
#include <string>

#include "sim/logging.hh"
#include "system/system.hh"

int
main(int argc, char **argv)
{
    using namespace tsim;

    const std::string suite = argc > 1 ? argv[1] : "NPB-C";
    const std::uint64_t ops =
        argc > 2 ? parseCount("opsPerCore", argv[2]) : 6000;

    std::printf("suite %s: CascadeLake vs TDRAM\n\n", suite.c_str());
    std::printf("%-9s %6s %7s | %9s %9s | %9s %9s | %8s\n",
                "workload", "missR", "grp", "tagCL_ns", "tagTD_ns",
                "rdCL_ns", "rdTD_ns", "speedup");

    std::vector<double> speedups;
    for (const auto &wl : allWorkloads()) {
        if (wl.suite != suite)
            continue;
        SystemConfig cfg;
        cfg.cores.opsPerCore = ops;

        cfg.design = Design::CascadeLake;
        const SimReport cl = runOne(cfg, wl);
        cfg.design = Design::Tdram;
        const SimReport td = runOne(cfg, wl);

        const double speedup =
            static_cast<double>(cl.runtimeTicks) /
            static_cast<double>(td.runtimeTicks);
        speedups.push_back(speedup);
        std::printf(
            "%-9s %6.2f %7s | %9.2f %9.2f | %9.2f %9.2f | %8.3f\n",
            wl.name.c_str(), td.missRatio,
            wl.highMiss ? "high" : "low", cl.tagCheckNs, td.tagCheckNs,
            cl.demandReadLatencyNs, td.demandReadLatencyNs, speedup);
    }
    if (speedups.empty()) {
        std::fprintf(stderr,
                     "unknown suite '%s' (use NPB-C, NPB-D, GAPBS)\n",
                     suite.c_str());
        return 1;
    }
    std::printf("\nTDRAM speedup over CascadeLake (geomean): %.3fx\n",
                geomean(speedups));
    return 0;
}
