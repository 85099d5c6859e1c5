/**
 * @file
 * tdram_cli — command-line driver for the simulator.
 *
 *   tdram_cli list
 *       Show the 28 workload profiles.
 *   tdram_cli run <workload> <design> [options]
 *       One simulation; prints the report (add --stats for the full
 *       statistics tree, --csv for machine-readable output).
 *   tdram_cli compare <workload> [options]
 *       Every design on one workload, one row each.
 *   tdram_cli sweep <workload> <design> <param> <v1,v2,...> [options]
 *       Parameter sweep; param in {capacity_mib, ways, flush,
 *       channels, mlp, prefetch}. CSV to stdout.
 *
 * compare and sweep run their simulations in parallel on a
 * SweepRunner pool and print the rows in design or value order. They
 * print one row per run, so they reject run's --json and --stats.
 *
 * Common options: --ops N, --warmup N, --seed N, --capacity MiB,
 * --ways W, --open-page, --predictor (refused by run and sweep for a
 * design without a hit predictor; compare skips those designs).
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/sweep_runner.hh"
#include "system/system.hh"

namespace
{

using namespace tsim;

/** The output options; every other option sets a SystemConfig field. */
struct CliOptions
{
    bool fullStats = false;
    bool csv = false;
    bool json = false;  ///< run: print reportJson() instead of text
    std::string tracePath;  ///< .tdt output (run) / prefix (others)
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: tdram_cli <list|run|compare|sweep> [args] [options]\n"
        "  run <workload> <design>\n"
        "  compare <workload>\n"
        "  sweep <workload> <design> <param> <v1,v2,...>\n"
        "options: --ops N --warmup N --seed N --capacity MiB\n"
        "         --ways W --open-page --predictor\n"
        "         --stats --csv --json --trace PATH --check\n"
        "         --replay FILE.tdtz --replay-mode timed|afap\n"
        "         --replay-mlp N\n"
        "  --stats (full statistics tree) and --json are run only\n"
        "  --trace writes a .tdt event trace (run: exactly PATH;\n"
        "  compare/sweep: PATH is a prefix, one file per run)\n"
        "  --replay drives the run with a recorded .tdtz request\n"
        "  stream instead of the synthetic generators (make one with\n"
        "  'trace_tool convert'); --warmup then counts records. The\n"
        "  workload argument still names the run. timed replays at\n"
        "  the recorded inter-arrival times; afap issues as fast as\n"
        "  the controller accepts. --replay-mlp caps outstanding\n"
        "  reads (0 = unlimited).\n"
        "  --check audits every command with the inline protocol\n"
        "  checker (exit 1 on any violation)\n"
        "  --predictor: MAP-I on CascadeLake/Alloy/BEAR/TicToc (compare\n"
        "  skips other designs; run and sweep refuse them)\n");
    std::exit(1);
}

/**
 * Parse the options from argv[@p first] on: the output options into
 * the result, everything else into @p cfg, which starts from the
 * defaults with the CLI's run budget.
 */
CliOptions
parseOptions(int argc, char **argv, int first, SystemConfig &cfg)
{
    cfg = SystemConfig{};
    cfg.cores.opsPerCore = 8000;
    cfg.warmupOpsPerCore = 150000;
    CliOptions o;
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&] {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        auto next = [&](std::uint64_t max = UINT64_MAX) {
            return parseCount(a.c_str(), value(), max);
        };
        if (a == "--ops") {
            cfg.cores.opsPerCore = next();
        } else if (a == "--warmup") {
            cfg.warmupOpsPerCore = next();
        } else if (a == "--seed") {
            cfg.seed = next();
        } else if (a == "--capacity") {
            cfg.dcache.capacityBytes = next(UINT64_MAX >> 20) << 20;
        } else if (a == "--ways") {
            cfg.dcache.ways = static_cast<unsigned>(next(UINT_MAX));
        } else if (a == "--replay-mlp") {
            cfg.replay.mlp = static_cast<unsigned>(next(UINT_MAX));
        } else if (a == "--open-page") {
            cfg.dcache.pagePolicy = PagePolicy::Open;
        } else if (a == "--predictor") {
            cfg.dcache.predictor = true;
        } else if (a == "--stats") {
            o.fullStats = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--trace") {
            o.tracePath = value();
        } else if (a == "--replay") {
            cfg.replay.path = value();
        } else if (a == "--replay-mode") {
            if (!parseReplayMode(value(), cfg.replay.mode)) {
                std::fprintf(stderr,
                             "--replay-mode wants timed or afap\n");
                usage();
            }
        } else if (a == "--check") {
            cfg.checkProtocol = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage();
        }
    }
    return o;
}

/** compare and sweep print rows; the per-run outputs are run's alone. */
void
rejectRunOnly(const CliOptions &o, const char *cmd)
{
    const char *flag = o.json        ? "--json"
                       : o.fullStats ? "--stats"
                                     : nullptr;
    if (flag) {
        std::fprintf(stderr, "%s is accepted by 'run' only, not by '%s'\n",
                     flag, cmd);
        usage();
    }
}

/** run and sweep name their design: --predictor must apply to it. */
void
rejectPredictorWithout(const SystemConfig &cfg, Design d)
{
    if (cfg.dcache.predictor && !designHasPredictor(d)) {
        std::fprintf(stderr, "--predictor: %s has no hit predictor\n",
                     designName(d));
        usage();
    }
}

void
printCsvHeader()
{
    std::printf("workload,design,runtime_us,miss_ratio,tag_check_ns,"
                "read_q_delay_ns,read_latency_ns,bloat,unuseful_frac,"
                "energy_mj,probes,flush_stalls\n");
}

void
printCsvRow(const SimReport &r)
{
    std::printf("%s,%s,%.2f,%.4f,%.2f,%.2f,%.2f,%.3f,%.4f,%.4f,"
                "%llu,%llu\n",
                r.workload.c_str(), r.design.c_str(),
                r.runtimeNs() / 1e3, r.missRatio, r.tagCheckNs,
                r.readQueueDelayNs, r.demandReadLatencyNs, r.bloat,
                r.unusefulFrac, r.energy.totalJ() * 1e3,
                (unsigned long long)r.probes,
                (unsigned long long)r.flushStalls);
}

void
printHuman(const SimReport &r)
{
    std::printf("%s on %s\n", r.design.c_str(), r.workload.c_str());
    std::printf("  runtime        %10.1f us\n", r.runtimeNs() / 1e3);
    std::printf("  demands        %10llu reads, %llu writes\n",
                (unsigned long long)r.demandReads,
                (unsigned long long)r.demandWrites);
    std::printf("  miss ratio     %10.3f  (%s group)\n", r.missRatio,
                r.highMiss ? "high" : "low");
    std::printf("  tag check      %10.2f ns\n", r.tagCheckNs);
    std::printf("  read q delay   %10.2f ns\n", r.readQueueDelayNs);
    std::printf("  read latency   %10.2f ns\n", r.demandReadLatencyNs);
    std::printf("  bloat          %10.2f  (unuseful %.1f%%)\n",
                r.bloat, r.unusefulFrac * 100);
    std::printf("  energy         %10.3f mJ\n",
                r.energy.totalJ() * 1e3);
    if (r.probes)
        std::printf("  probes         %10llu\n",
                    (unsigned long long)r.probes);
    if (!r.replaySource.empty()) {
        std::printf("  replay         %s (%s, %llu records)\n",
                    r.replaySource.c_str(), r.replayMode.c_str(),
                    (unsigned long long)r.replayRecords);
    }
}

int
cmdList()
{
    std::printf("%-9s %-7s %-9s %9s %7s %6s %6s\n", "workload",
                "suite", "kind", "footprint", "store%", "alpha",
                "group");
    for (const auto &w : allWorkloads()) {
        const char *kind =
            w.kind == GenKind::Stream    ? "stream"
            : w.kind == GenKind::Random  ? "random"
            : w.kind == GenKind::Zipf    ? "zipf"
            : w.kind == GenKind::Stencil ? "stencil"
                                         : "graphmix";
        std::printf("%-9s %-7s %-9s %8.2fx %6.0f%% %6.2f %6s\n",
                    w.name.c_str(), w.suite.c_str(), kind,
                    w.footprintScale, w.storeFraction * 100,
                    w.zipfAlpha, w.highMiss ? "high" : "low");
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 4)
        usage();
    SystemConfig cfg;
    const CliOptions o = parseOptions(argc, argv, 4, cfg);
    const WorkloadProfile &wl = findWorkload(argv[2]);
    cfg.design = parseDesign(argv[3]);
    rejectPredictorWithout(cfg, cfg.design);
    cfg.tracePath = o.tracePath;
    System sys(cfg, wl);
    const SimReport r = sys.run();
    if (o.json) {
        // Metrics the design cannot measure come out null, not 0 —
        // predictor_accuracy only exists when a predictor ran.
        std::printf("%s\n", reportJson(r).c_str());
    } else if (o.csv) {
        printCsvHeader();
        printCsvRow(r);
    } else {
        printHuman(r);
    }
    if (o.fullStats) {
        std::printf("\nfull statistics:\n");
        sys.dumpStats(std::cout);
    }
    if (cfg.checkProtocol && !o.csv && !o.json) {
        std::printf("  check          %10llu events, %llu "
                    "violation(s)\n",
                    (unsigned long long)r.checkEvents,
                    (unsigned long long)r.checkViolations);
    }
    return r.checkViolations ? 1 : 0;
}

int
cmdCompare(int argc, char **argv)
{
    if (argc < 3)
        usage();
    SystemConfig base;
    const CliOptions o = parseOptions(argc, argv, 3, base);
    rejectRunOnly(o, "compare");
    const WorkloadProfile &wl = findWorkload(argv[2]);
    const Design designs[] = {Design::NoCache, Design::CascadeLake,
                              Design::Alloy,   Design::Bear,
                              Design::Ndc,     Design::TicToc,
                              Design::Banshee, Design::Tdram,
                              Design::Ideal};
    std::vector<SweepJob> jobs;
    for (Design d : designs) {
        SystemConfig cfg = base;
        cfg.design = d;
        cfg.dcache.predictor = base.dcache.predictor && designHasPredictor(d);
        if (!o.tracePath.empty())
            cfg.tracePath = o.tracePath + "_" + designName(d) + ".tdt";
        jobs.push_back({cfg, wl});
    }
    const std::vector<SimReport> reports = SweepRunner().run(jobs);

    if (o.csv)
        printCsvHeader();
    else
        std::printf("%-14s %11s %8s %9s %9s %7s %9s\n", "design",
                    "runtime_us", "missR", "tagChk", "rdLat", "bloat",
                    "energy_mJ");
    std::uint64_t violations = 0;
    for (const SimReport &r : reports) {
        violations += r.checkViolations;
        if (o.csv) {
            printCsvRow(r);
        } else {
            std::printf(
                "%-14s %11.1f %8.3f %9.2f %9.2f %7.2f %9.3f\n",
                r.design.c_str(), r.runtimeNs() / 1e3, r.missRatio,
                r.tagCheckNs, r.demandReadLatencyNs, r.bloat,
                r.energy.totalJ() * 1e3);
        }
    }
    return violations ? 1 : 0;
}

int
cmdSweep(int argc, char **argv)
{
    if (argc < 6)
        usage();
    SystemConfig base;
    const CliOptions o = parseOptions(argc, argv, 6, base);
    rejectRunOnly(o, "sweep");
    const WorkloadProfile &wl = findWorkload(argv[2]);
    base.design = parseDesign(argv[3]);
    rejectPredictorWithout(base, base.design);
    const std::string param = argv[4];

    // capacity_mib is shifted to bytes; every other param is unsigned.
    const std::uint64_t max =
        param == "capacity_mib" ? UINT64_MAX >> 20 : UINT_MAX;
    std::vector<std::uint64_t> values;
    std::stringstream ss(argv[5]);
    std::string item;
    while (std::getline(ss, item, ','))
        values.push_back(parseCount(param.c_str(), item.c_str(), max));
    if (values.empty())
        usage();

    std::vector<SweepJob> jobs;
    for (std::uint64_t v : values) {
        SystemConfig cfg = base;
        if (param == "capacity_mib") {
            cfg.dcache.capacityBytes = v << 20;
        } else if (param == "ways") {
            cfg.dcache.ways = static_cast<unsigned>(v);
        } else if (param == "flush") {
            cfg.dcache.flushEntries = static_cast<unsigned>(v);
        } else if (param == "channels") {
            cfg.dcache.channels = static_cast<unsigned>(v);
        } else if (param == "mlp") {
            cfg.cores.mlp = static_cast<unsigned>(v);
        } else if (param == "prefetch") {
            cfg.dcache.prefetchDegree = static_cast<unsigned>(v);
        } else {
            std::fprintf(stderr, "unknown sweep param '%s'\n",
                         param.c_str());
            usage();
        }
        if (!o.tracePath.empty()) {
            cfg.tracePath = o.tracePath + "_" + param + "_" +
                            std::to_string(v) + ".tdt";
        }
        jobs.push_back({cfg, wl});
    }
    const std::vector<SimReport> reports = SweepRunner().run(jobs);

    std::printf("param,value,");
    printCsvHeader();
    std::uint64_t violations = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        violations += reports[i].checkViolations;
        std::printf("%s,%llu,", param.c_str(),
                    (unsigned long long)values[i]);
        printCsvRow(reports[i]);
    }
    return violations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList();
    if (cmd == "run")
        return cmdRun(argc, argv);
    if (cmd == "compare")
        return cmdCompare(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    usage();
}
