/**
 * @file
 * Design explorer. Two modes:
 *
 *  - Single run (default): run one workload on one design and dump
 *    the full statistics tree plus the access-outcome breakdown —
 *    the tool to reach for when a number in a benchmark looks
 *    surprising.
 *  - Sweep (--sweep): run the full (design x workload) grid on the
 *    SweepRunner thread pool and print one deterministic summary
 *    line per run. Output is byte-identical for any --jobs value;
 *    host throughput goes to stderr.
 *
 * Usage: design_explorer [workload] [design] [opsPerCore]
 *                        [--trace PATH] [--replay FILE.tdtz]
 *                        [--replay-mode timed|afap]
 *        design_explorer --sweep [--full] [--jobs N] [--ops N]
 *                        [--trace PREFIX] [--replay FILE.tdtz]
 *                        [--replay-mode timed|afap]
 *
 * --trace writes .tdt event traces (single run: exactly PATH; sweep:
 * PREFIX_jobNNN.tdt per grid point, byte-identical for any --jobs).
 * --replay drives every run with a recorded .tdtz request stream
 * instead of the synthetic generators; in sweep mode each job opens
 * its own decoder cursor on the shared file, so serial and --jobs N
 * sweeps stay byte-identical.
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/sweep_runner.hh"
#include "system/system.hh"

namespace
{

int
runSweep(bool full, unsigned jobs, std::uint64_t ops,
         const std::string &trace_prefix,
         const tsim::ReplayConfig &replay)
{
    using namespace tsim;

    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear,        Design::Ndc,
                              Design::TicToc,      Design::Banshee,
                              Design::Tdram,       Design::TdramNoProbe,
                              Design::Ideal};
    const std::vector<WorkloadProfile> workloads =
        full ? allWorkloads() : representativeWorkloads();

    std::vector<SweepJob> sweep;
    for (const auto &wl : workloads) {
        for (Design d : designs) {
            SweepJob job;
            job.cfg.design = d;
            job.cfg.cores.opsPerCore = ops;
            job.cfg.replay = replay;
            job.workload = wl;
            sweep.push_back(std::move(job));
        }
    }

    applyTracePrefix(sweep, trace_prefix);

    const SweepRunner runner(jobs);
    const HostTimer timer;
    const std::vector<SimReport> reports = runner.run(sweep);
    const double wall = timer.seconds();

    std::printf("%-9s %-12s %12s %9s %9s %9s %9s\n", "workload",
                "design", "runtime_us", "miss", "rd_lat", "bloat",
                "energy_mJ");
    HostPerf perf;
    for (const SimReport &r : reports) {
        perf.merge(r.hostPerf);
        std::printf("%-9s %-12s %12.1f %9.4f %9.2f %9.3f %9.3f\n",
                    r.workload.c_str(), r.design.c_str(),
                    r.runtimeNs() / 1e3, r.missRatio,
                    r.demandReadLatencyNs, r.bloat,
                    r.energy.totalJ() * 1e3);
    }
    std::fprintf(stderr,
                 "[host] %zu runs on %u workers: %.2fs wall "
                 "(%.2fs cpu), %.2fM events/s aggregate\n",
                 reports.size(), runner.jobs(), wall,
                 perf.hostSeconds, perf.eventsPerSec() / 1e6);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tsim;

    bool sweep = false;
    bool full = false;
    unsigned jobs = 0;
    std::uint64_t ops = 20000;
    std::string trace_path;
    ReplayConfig replay;
    std::vector<std::string> positional;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sweep") == 0) {
            sweep = true;
        } else if (std::strcmp(argv[i], "--full") == 0) {
            full = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                parseCount("--jobs", argv[++i], UINT_MAX));
        } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
            ops = parseCount("--ops", argv[++i]);
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--replay") == 0 &&
                   i + 1 < argc) {
            replay.path = argv[++i];
        } else if (std::strcmp(argv[i], "--replay-mode") == 0 &&
                   i + 1 < argc) {
            if (!parseReplayMode(argv[++i], replay.mode)) {
                std::fprintf(stderr,
                             "--replay-mode wants timed or afap\n");
                return 1;
            }
        } else {
            positional.push_back(argv[i]);
        }
    }

    if (sweep)
        return runSweep(full, jobs, ops, trace_path, replay);

    const std::string wl_name =
        positional.size() > 0 ? positional[0] : "ft.C";
    const std::string design =
        positional.size() > 1 ? positional[1] : "TDRAM";
    if (positional.size() > 2)
        ops = parseCount("opsPerCore", positional[2].c_str());

    SystemConfig cfg;
    cfg.design = parseDesign(design);
    cfg.cores.opsPerCore = ops;
    cfg.tracePath = trace_path;
    cfg.replay = replay;

    System sys(cfg, findWorkload(wl_name));
    SimReport r = sys.run();

    std::printf("== %s on %s ==\n", r.design.c_str(),
                r.workload.c_str());
    if (!r.replaySource.empty()) {
        std::printf("replay           %s (%s, %llu records)\n",
                    r.replaySource.c_str(), r.replayMode.c_str(),
                    (unsigned long long)r.replayRecords);
    }
    std::printf("runtime          %.1f us\n", r.runtimeNs() / 1e3);
    std::printf("demands          %llu reads, %llu writes\n",
                (unsigned long long)r.demandReads,
                (unsigned long long)r.demandWrites);
    std::printf("miss ratio       %.3f\n", r.missRatio);
    std::printf("tag check        %.2f ns\n", r.tagCheckNs);
    std::printf("read q delay     %.2f ns\n", r.readQueueDelayNs);
    std::printf("read latency     %.2f ns\n", r.demandReadLatencyNs);
    std::printf("bloat factor     %.2f (unuseful %.1f%%)\n", r.bloat,
                r.unusefulFrac * 100);
    std::printf("energy           %.3f mJ (cache %.3f, mm %.3f)\n",
                r.energy.totalJ() * 1e3, r.energy.cacheJ() * 1e3,
                r.energy.mmJ() * 1e3);
    std::printf("flush buffer     max %.0f, avg %.1f, stalls %llu\n",
                r.flushMaxOcc, r.flushAvgOcc,
                (unsigned long long)r.flushStalls);
    std::printf("probes           %llu\n", (unsigned long long)r.probes);
    std::printf("host throughput  %.2fM events/s (%llu events, %.2fs)\n",
                r.hostPerf.eventsPerSec() / 1e6,
                (unsigned long long)r.hostPerf.events,
                r.hostPerf.hostSeconds);
    std::printf("\noutcome breakdown:\n");
    for (unsigned i = 0;
         i < static_cast<unsigned>(AccessOutcome::NumOutcomes); ++i) {
        if (r.outcomeFrac[i] > 0) {
            std::printf("  %-20s %6.2f%%\n",
                        outcomeName(static_cast<AccessOutcome>(i)),
                        r.outcomeFrac[i] * 100);
        }
    }
    std::printf("\nfull statistics:\n");
    sys.dumpStats(std::cout);
    return 0;
}
