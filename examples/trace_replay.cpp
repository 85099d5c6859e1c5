/**
 * @file
 * Trace replay end-to-end: the record-once / replay-many pipeline
 * from DESIGN.md §14 in one self-contained program.
 *
 * With no arguments it synthesizes a small text request list (so the
 * example runs stand-alone), packs it into a .tdtz container, and
 * replays the container on TDRAM through the same System harness the
 * benchmarks use. Pass an existing .tdtz to replay that instead.
 *
 * Usage: trace_replay [trace.tdtz] [design] [timed|afap]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "system/system.hh"
#include "trace/tdtz.hh"

namespace
{

/** Synthesize a small mixed request stream: a strided sweep with a
 *  hot random region, 30% stores, ~4 ns apart. */
std::vector<tsim::ReplayRecord>
makeDemoStream()
{
    using namespace tsim;
    std::vector<ReplayRecord> out;
    Rng rng(2024);
    for (int i = 0; i < 30000; ++i) {
        ReplayRecord r;
        if (i % 3 == 0) {
            r.addr = rng.range(1 << 10) * lineBytes;
            r.isWrite = rng.chance(0.5);
        } else {
            r.addr =
                (static_cast<Addr>(i) * 2 % (1 << 16)) * lineBytes;
            r.isWrite = rng.chance(0.3);
        }
        r.delta = nsToTicks(4.0);
        out.push_back(r);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tsim;

    std::string path = argc > 1 ? argv[1] : "";
    const std::string design = argc > 2 ? argv[2] : "TDRAM";
    ReplayMode mode = ReplayMode::Timed;
    if (argc > 3 && !parseReplayMode(argv[3], mode)) {
        std::fprintf(stderr, "replay mode wants timed or afap\n");
        return 1;
    }

    if (path.empty()) {
        // Record once: pack the demo stream into a container.
        path = "/tmp/tdram_demo.tdtz";
        TdtzWriter writer(path);
        for (const ReplayRecord &r : makeDemoStream())
            writer.append(r);
        writer.finish();
        std::printf("synthesized demo container at %s\n",
                    path.c_str());
    }

    TdtzReader probe;
    if (!probe.open(path)) {
        std::fprintf(stderr, "trace_replay: %s\n",
                     probe.error().c_str());
        return 1;
    }
    std::printf("container: %llu records, footprint bound 0x%llx\n",
                (unsigned long long)probe.info().records,
                (unsigned long long)probe.info().maxLineAddr);

    // Replay many: any design, any pacing mode, same container.
    SystemConfig cfg;
    cfg.design = parseDesign(design);
    cfg.replay.path = path;
    cfg.replay.mode = mode;
    cfg.warmupOpsPerCore = 2000;

    System sys(cfg, findWorkload("is.C"));
    SimReport r = sys.run();

    std::printf("\nreplayed on %s (%s):\n", r.design.c_str(),
                r.replayMode.c_str());
    std::printf("  records          %llu\n",
                (unsigned long long)r.replayRecords);
    std::printf("  runtime          %.1f us\n", r.runtimeNs() / 1e3);
    std::printf("  dcache miss      %.3f\n", r.missRatio);
    std::printf("  tag check        %.2f ns\n", r.tagCheckNs);
    std::printf("  read latency     %.2f ns\n",
                r.demandReadLatencyNs);
    std::printf("  bloat factor     %.2f\n", r.bloat);
    return 0;
}
