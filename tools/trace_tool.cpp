/**
 * @file
 * trace_tool — offline CLI over .tdt event traces (DESIGN.md §10).
 *
 *   trace_tool summarize <trace.tdt> [--depth-series]
 *       Per-kind counts, per-bank command utilization, HM-bus
 *       occupancy, and flush-buffer statistics (--depth-series adds
 *       the push/drain depth time series).
 *   trace_tool diff <a.tdt> <b.tdt>
 *       Byte-compare two traces in emission order. Exit 0 when
 *       identical; exit 1 with the first divergent record (tick plus
 *       full decoded context from both sides) otherwise. The CI
 *       determinism gate runs this on serial-vs-parallel sweeps.
 *   trace_tool export <trace.tdt> [out.json]
 *       Chrome trace-event JSON (chrome://tracing, Perfetto), one
 *       swimlane per (channel, bank). Default output: stdout.
 *   trace_tool dump <trace.tdt> [--limit N]
 *       Human-readable record listing (debugging).
 *   trace_tool check <trace.tdt> [--context N]
 *       Offline protocol/invariant audit (DESIGN.md §11): rebuild the
 *       run's checker from the trace's manifest, replay the trace
 *       through the same rule engine the inline checker runs, and
 *       report the first violations with N records of per-channel
 *       context. Exit 0 when clean; exit 1 on any violation.
 *   trace_tool convert <in> <out.tdtz> [--codec zstd|none]
 *                      [--frame-records N]
 *       Build a compressed replay container (DESIGN.md §14). The
 *       input is either a .tdt event trace (its demand stream is
 *       projected) or a text request list (`R|W <addr> [<size>
 *       [<delta_ns>]]`, '#' comments).
 *   trace_tool info <file.tdtz>
 *       Decode-free container inspection: header, footer summary,
 *       and the frame index.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/system.hh"
#include "trace/tdtz.hh"
#include "trace/trace.hh"
#include "trace/trace_analysis.hh"

namespace
{

using namespace tsim;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_tool <command> [args]\n"
        "  summarize <trace.tdt> [--depth-series]\n"
        "  diff <a.tdt> <b.tdt>\n"
        "  export <trace.tdt> [out.json]\n"
        "  dump <trace.tdt> [--limit N]\n"
        "  check <trace.tdt> [--context N]\n"
        "  check --rules\n"
        "  convert <in.tdt|in.txt> <out.tdtz> [--codec zstd|none]\n"
        "          [--frame-records N]\n"
        "  info <file.tdtz>\n");
    std::exit(2);
}

/** Load or die with the loader's message (exit 2: usage/input error). */
TraceFile
loadOrDie(const std::string &path)
{
    TraceLoadResult res = loadTrace(path);
    if (!res.ok) {
        std::fprintf(stderr, "trace_tool: %s\n", res.error.c_str());
        std::exit(2);
    }
    return std::move(res.trace);
}

int
cmdSummarize(int argc, char **argv)
{
    if (argc < 3)
        usage();
    bool depth_series = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--depth-series") == 0)
            depth_series = true;
        else
            usage();
    }
    const TraceFile t = loadOrDie(argv[2]);
    printTraceSummary(std::cout, summarizeTrace(t), t, depth_series);
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    if (argc != 4)
        usage();
    const TraceFile a = loadOrDie(argv[2]);
    const TraceFile b = loadOrDie(argv[3]);
    const TraceDiff d = diffTraces(a, b);
    std::printf("%s\n", d.message.c_str());
    return d.identical ? 0 : 1;
}

int
cmdExport(int argc, char **argv)
{
    if (argc < 3 || argc > 4)
        usage();
    const TraceFile t = loadOrDie(argv[2]);
    if (argc == 4) {
        std::ofstream out(argv[3]);
        if (!out) {
            std::fprintf(stderr, "trace_tool: cannot write '%s'\n",
                         argv[3]);
            return 2;
        }
        exportChromeTrace(out, t);
    } else {
        exportChromeTrace(std::cout, t);
    }
    return 0;
}

int
cmdDump(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::uint64_t limit = ~std::uint64_t{0};
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc)
            limit = parseCount("--limit", argv[++i]);
        else
            usage();
    }
    const TraceFile t = loadOrDie(argv[2]);
    std::uint64_t n = 0;
    for (const TraceRecord &r : t.records) {
        if (n++ >= limit)
            break;
        std::printf("%s\n", formatTraceRecord(r).c_str());
    }
    return 0;
}

int
cmdCheck(int argc, char **argv)
{
    if (argc < 3)
        usage();
    if (std::strcmp(argv[2], "--rules") == 0) {
        for (const CheckRuleInfo &r : checkRules()) {
            std::printf("%-18s %-14s %s\n", r.id, r.timing,
                        r.summary);
        }
        return 0;
    }

    unsigned context = 8;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--context") == 0 && i + 1 < argc)
            context = static_cast<unsigned>(
                parseCount("--context", argv[++i], UINT_MAX));
        else
            usage();
    }

    const TraceFile t = loadOrDie(argv[2]);
    const CheckReport rep = checkTrace(t);
    if (!rep.error.empty()) {
        std::fprintf(stderr, "trace_tool: '%s': %s\n", argv[2],
                     rep.error.c_str());
        return 2;
    }
    if (rep.ok) {
        std::printf("clean: %llu events, 0 violations (device=%s)\n",
                    static_cast<unsigned long long>(rep.events),
                    designName(rep.design));
        return 0;
    }

    std::printf("%llu violation(s) in %llu events (device=%s)\n",
                static_cast<unsigned long long>(rep.violationCount),
                static_cast<unsigned long long>(rep.events),
                designName(rep.design));
    // First violation with the preceding same-channel records: the
    // rule engine keyed the stored index to the record's position in
    // emission (seq) order, which is exactly t.records order.
    const CheckViolation &first = rep.violations.front();
    if (context > 0 && first.index < t.records.size()) {
        std::printf("context (channel %u, last %u records):\n",
                    first.channel, context);
        std::vector<const TraceRecord *> ctx;
        for (std::uint64_t i = 0; i <= first.index; ++i) {
            if (t.records[i].channel == first.channel)
                ctx.push_back(&t.records[i]);
        }
        const std::size_t begin =
            ctx.size() > context ? ctx.size() - context : 0;
        for (std::size_t i = begin; i < ctx.size(); ++i)
            std::printf("  %s\n", formatTraceRecord(*ctx[i]).c_str());
    }
    for (const CheckViolation &v : rep.violations) {
        std::printf("%s\n",
                    ProtocolChecker::formatViolation(v).c_str());
    }
    if (rep.violationCount > rep.violations.size()) {
        std::printf("... %llu more violation(s) not stored\n",
                    static_cast<unsigned long long>(
                        rep.violationCount - rep.violations.size()));
    }
    return 1;
}

/** True when the file starts with the .tdt event-trace magic. */
bool
isTdtFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::uint32_t magic = 0;
    const bool got = std::fread(&magic, sizeof(magic), 1, f) == 1;
    std::fclose(f);
    return got && magic == TraceFileHeader::magicValue;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        usage();
    const std::string in = argv[2];
    const std::string out = argv[3];
    TdtzCodec codec = tdtzZstdAvailable() ? TdtzCodec::Zstd
                                          : TdtzCodec::Varint;
    std::uint32_t frame_records = 4096;
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--codec") == 0 && i + 1 < argc) {
            const char *v = argv[++i];
            if (std::strcmp(v, "zstd") == 0) {
                if (!tdtzZstdAvailable()) {
                    std::fprintf(stderr,
                                 "trace_tool: zstd support not "
                                 "compiled in\n");
                    return 2;
                }
                codec = TdtzCodec::Zstd;
            } else if (std::strcmp(v, "none") == 0) {
                codec = TdtzCodec::Varint;
            } else {
                usage();
            }
        } else if (std::strcmp(argv[i], "--frame-records") == 0 &&
                   i + 1 < argc) {
            frame_records = static_cast<std::uint32_t>(
                parseCount("--frame-records", argv[++i], UINT32_MAX));
            if (frame_records == 0) {
                std::fprintf(stderr,
                             "trace_tool: --frame-records must be "
                             ">= 1\n");
                return 2;
            }
        } else {
            usage();
        }
    }

    std::vector<ReplayRecord> records;
    if (isTdtFile(in)) {
        const TraceFile t = loadOrDie(in);
        records = projectDemands(t);
        if (records.empty()) {
            std::fprintf(stderr,
                         "trace_tool: '%s' contains no demand "
                         "records\n",
                         in.c_str());
            return 2;
        }
    } else {
        std::string error;
        if (!parseTextTrace(in, records, error)) {
            std::fprintf(stderr, "trace_tool: %s\n", error.c_str());
            return 2;
        }
    }

    TdtzWriter writer(out, codec, frame_records);
    for (const ReplayRecord &r : records)
        writer.append(r);
    writer.finish();
    std::printf("%s: %zu records, codec=%s, %u records/frame\n",
                out.c_str(), records.size(),
                codec == TdtzCodec::Zstd ? "zstd" : "varint",
                frame_records);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        usage();
    TdtzReader reader;
    if (!reader.open(argv[2])) {
        std::fprintf(stderr, "trace_tool: %s\n",
                     reader.error().c_str());
        return 2;
    }
    const TdtzFileHeader &h = reader.header();
    const TdtzInfo &info = reader.info();
    std::printf("container      %s\n", argv[2]);
    std::printf("format         tdtz v%u, codec=%s, %u records/frame\n",
                h.version,
                h.codec == static_cast<std::uint32_t>(TdtzCodec::Zstd)
                    ? "zstd"
                    : "varint",
                h.frameRecords);
    std::printf("records        %llu (%llu reads, %llu writes)\n",
                (unsigned long long)info.records,
                (unsigned long long)info.reads,
                (unsigned long long)info.writes);
    std::printf("frames         %llu\n",
                (unsigned long long)info.frames);
    std::printf("footprint      %llu bytes (max line addr bound)\n",
                (unsigned long long)info.maxLineAddr);
    std::printf("span           %.3f us simulated\n",
                ticksToNs(info.spanTicks) / 1e3);
    std::printf("frame index    %zu entries\n",
                reader.index().size());
    std::printf("flat baseline  %llu bytes (%zu B/record)\n",
                (unsigned long long)(info.records *
                                     tdtzFlatRecordBytes),
                tdtzFlatRecordBytes);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "summarize")
        return cmdSummarize(argc, argv);
    if (cmd == "diff")
        return cmdDiff(argc, argv);
    if (cmd == "export")
        return cmdExport(argc, argv);
    if (cmd == "dump")
        return cmdDump(argc, argv);
    if (cmd == "check")
        return cmdCheck(argc, argv);
    if (cmd == "convert")
        return cmdConvert(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    usage();
}
