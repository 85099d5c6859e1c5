/**
 * @file
 * Capacity sweep: how DRAM-cache size moves the miss ratio and the
 * TDRAM-vs-CascadeLake gap for one workload. Demonstrates the sweep
 * pattern users need for design-space exploration; emits CSV so the
 * output drops straight into a plotting pipeline. The grid runs on
 * the SweepRunner pool (--jobs N, default hardware_concurrency);
 * rows are printed in grid order, so the CSV is byte-identical for
 * any worker count.
 *
 * Usage: capacity_sweep [workload] [opsPerCore] [--jobs N]
 *                       [--trace PREFIX] > sweep.csv
 *
 * --trace PREFIX writes one .tdt event trace per grid point
 * (PREFIX_jobNNN.tdt); the files are byte-identical for any --jobs
 * value, which the CI determinism gate checks with trace_tool diff.
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/sweep_runner.hh"
#include "system/system.hh"

int
main(int argc, char **argv)
{
    using namespace tsim;

    std::string wl_name = "is.D";
    std::uint64_t ops = 6000;
    unsigned jobs = 0;
    std::string trace_prefix;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                parseCount("--jobs", argv[++i], UINT_MAX));
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_prefix = argv[++i];
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() > 0)
        wl_name = positional[0];
    if (positional.size() > 1)
        ops = parseCount("opsPerCore", positional[1].c_str());

    const WorkloadProfile &wl = findWorkload(wl_name);

    std::vector<SweepJob> sweep;
    std::vector<unsigned> mibs;
    for (unsigned mib : {4u, 8u, 16u, 32u, 64u}) {
        for (Design d : {Design::CascadeLake, Design::Tdram}) {
            SweepJob job;
            job.cfg.design = d;
            job.cfg.dcacheCapacity = static_cast<std::uint64_t>(mib)
                                     << 20;
            job.cfg.cores.opsPerCore = ops;
            job.workload = wl;
            sweep.push_back(std::move(job));
            mibs.push_back(mib);
        }
    }

    applyTracePrefix(sweep, trace_prefix);

    const SweepRunner runner(jobs);
    const std::vector<SimReport> reports = runner.run(sweep);

    std::printf("workload,capacity_mib,design,miss_ratio,"
                "tag_check_ns,read_latency_ns,runtime_us,bloat\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const SimReport &r = reports[i];
        std::printf("%s,%u,%s,%.4f,%.2f,%.2f,%.1f,%.3f\n",
                    wl.name.c_str(), mibs[i], r.design.c_str(),
                    r.missRatio, r.tagCheckNs, r.demandReadLatencyNs,
                    r.runtimeNs() / 1e3, r.bloat);
    }
    return 0;
}
