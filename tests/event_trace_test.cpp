/**
 * @file
 * Event-tracing subsystem tests (DESIGN.md §10): record/flush/load
 * round-trips, ring-buffer wraparound, versioned-header rejection of
 * corrupt files, first-divergence diffing, and end-to-end trace
 * determinism of System runs and serial-vs-parallel sweeps.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep_runner.hh"
#include "system/system.hh"
#include "trace/trace.hh"
#include "trace/trace_analysis.hh"

namespace tsim
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Flip one byte inside the record payload of a .tdt file. */
void
perturbRecordByte(const std::string &path, std::uint64_t record,
                  unsigned byte_in_record)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::streamoff off =
        static_cast<std::streamoff>(sizeof(TraceFileHeader)) +
        static_cast<std::streamoff>(record * sizeof(TraceRecord) +
                                    byte_in_record);
    f.seekg(off);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x5a;
    f.seekp(off);
    f.write(&c, 1);
}

TEST(TraceBuffer, RoundTripsThroughFile)
{
    const std::string path = tmpPath("trace_roundtrip.tdt");
    {
        Tracer tracer(path, 2, 8);
        tracer.buffer(0).record(TraceKind::ActRd, 100, 0x40, 3, 25, 1);
        tracer.buffer(1).record(TraceKind::HmResult, 200, 0x80, 7, 15,
                                packTagBits(true, true, false, false));
        tracer.buffer(0).record(TraceKind::FlushDrain, 300, 0xc0, 1, 4,
                                static_cast<std::uint32_t>(
                                    DrainCause::Forced));
        tracer.flushAll();
    }

    TraceLoadResult res = loadTrace(path);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.trace.header.channels, 2u);
    EXPECT_EQ(res.trace.header.recordCount, 3u);
    ASSERT_EQ(res.trace.records.size(), 3u);

    // Loader returns global emission order regardless of per-channel
    // spill order.
    const TraceRecord &r0 = res.trace.records[0];
    EXPECT_EQ(r0.seq, 0u);
    EXPECT_EQ(r0.tick, 100u);
    EXPECT_EQ(r0.kind, static_cast<std::uint8_t>(TraceKind::ActRd));
    EXPECT_EQ(r0.channel, 0u);
    EXPECT_EQ(r0.bank, 3u);
    EXPECT_EQ(r0.addr, 0x40u);
    EXPECT_EQ(r0.aux, 25u);
    EXPECT_EQ(r0.extra, 1u);

    const TraceRecord &r1 = res.trace.records[1];
    EXPECT_EQ(r1.seq, 1u);
    EXPECT_EQ(r1.channel, 1u);
    EXPECT_EQ(r1.kind, static_cast<std::uint8_t>(TraceKind::HmResult));

    EXPECT_EQ(res.trace.records[2].extra,
              static_cast<std::uint32_t>(DrainCause::Forced));
}

TEST(TraceBuffer, SpillsFullRingsLosslessly)
{
    // Ring capacity 4, 100 records: the ring must spill on every
    // fill and the file must still hold all records in seq order.
    const std::string path = tmpPath("trace_spill.tdt");
    {
        Tracer tracer(path, 1, 4);
        for (std::uint64_t i = 0; i < 100; ++i) {
            tracer.buffer(0).record(TraceKind::Read, 10 * i, i,
                                    static_cast<std::uint16_t>(i % 16),
                                    0, 0);
        }
        tracer.flushAll();
    }
    TraceLoadResult res = loadTrace(path);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.trace.records.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(res.trace.records[i].seq, i);
        EXPECT_EQ(res.trace.records[i].addr, i);
    }
}

TEST(TraceBuffer, MemoryOnlyRingWrapsAndCountsDrops)
{
    Tracer tracer("", 1, 4);  // no sink: ring wraps
    TraceBuffer &buf = tracer.buffer(0);
    for (std::uint64_t i = 0; i < 10; ++i)
        buf.record(TraceKind::Write, i, 0x1000 + i, 0, 0, 0);

    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 6u);

    // The survivors are the newest four, oldest first.
    const std::vector<TraceRecord> snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(snap[i].seq, 6 + i);
        EXPECT_EQ(snap[i].addr, 0x1000 + 6 + i);
    }
}

TEST(TraceBuffer, DroppedTotalSumsAcrossChannels)
{
    Tracer tracer("", 2, 2);  // no sink: rings wrap
    for (std::uint64_t i = 0; i < 5; ++i)
        tracer.buffer(0).record(TraceKind::Read, i, i, 0, 0, 0);
    for (std::uint64_t i = 0; i < 4; ++i)
        tracer.buffer(1).record(TraceKind::Write, i, i, 0, 0, 0);

    EXPECT_EQ(tracer.buffer(0).dropped(), 3u);
    EXPECT_EQ(tracer.buffer(1).dropped(), 2u);
    EXPECT_EQ(tracer.droppedTotal(), 5u);
}

TEST(TraceSummary, ReportsPerChannelCountsDropsAndSeqGaps)
{
    // A clean sinked trace: full rings spill, so nothing drops and
    // the header's drop count stays zero.
    const std::string path = tmpPath("trace_drops.tdt");
    {
        Tracer tracer(path, 2, 4);
        for (std::uint64_t i = 0; i < 4; ++i)
            tracer.buffer(0).record(TraceKind::Read, 10 * i, i, 0, 0,
                                    0);
        for (std::uint64_t i = 0; i < 2; ++i)
            tracer.buffer(1).record(TraceKind::Write, 100 + i, i, 0, 0,
                                    0);
        tracer.flushAll();
        EXPECT_EQ(tracer.droppedTotal(), 0u);
    }
    {
        TraceLoadResult res = loadTrace(path);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.trace.header.droppedCount, 0u);
        const TraceSummary s = summarizeTrace(res.trace);
        ASSERT_EQ(s.perChannel.size(), 2u);
        EXPECT_EQ(s.perChannel.at(0), 4u);
        EXPECT_EQ(s.perChannel.at(1), 2u);
        EXPECT_EQ(s.dropped, 0u);
        EXPECT_EQ(s.seqMissing, 0u);
        std::ostringstream os;
        printTraceSummary(os, s, res.trace, false);
        EXPECT_EQ(os.str().find("WARNING"), std::string::npos);
        EXPECT_NE(os.str().find("ch0 4"), std::string::npos);
        EXPECT_NE(os.str().find("ch1 2"), std::string::npos);
    }

    // Forge an incomplete trace from the clean one: claim 4 ring
    // drops in the header and punch a hole in the emission seqs by
    // bumping the last record's seq from 5 to 9.
    std::vector<char> bytes = readAll(path);
    const std::size_t drop_off =
        offsetof(TraceFileHeader, droppedCount);
    bytes[drop_off] = 4;
    const std::size_t last_seq_off = sizeof(TraceFileHeader) +
                                     5 * sizeof(TraceRecord) +
                                     offsetof(TraceRecord, seq);
    bytes[last_seq_off] = 9;
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    TraceLoadResult res = loadTrace(path);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.trace.header.droppedCount, 4u);
    const TraceSummary s = summarizeTrace(res.trace);
    EXPECT_EQ(s.records, 6u);
    EXPECT_EQ(s.dropped, 4u);
    EXPECT_EQ(s.seqMissing, 4u);  // seqs 5..8 absent, max seq 9

    std::ostringstream os;
    printTraceSummary(os, s, res.trace, false);
    EXPECT_NE(os.str().find("WARNING: incomplete trace"),
              std::string::npos);
    EXPECT_NE(os.str().find("4 ring-wrap drops"), std::string::npos);
    EXPECT_NE(os.str().find("4 emission seq(s) absent"),
              std::string::npos);
}

TEST(TraceLoader, RejectsCorruptFiles)
{
    // A valid baseline.
    const std::string good = tmpPath("trace_good.tdt");
    {
        Tracer tracer(good, 1, 8);
        for (int i = 0; i < 5; ++i)
            tracer.buffer(0).record(TraceKind::Read, i, i, 0, 0, 0);
        tracer.flushAll();
    }
    ASSERT_TRUE(loadTrace(good).ok);
    const std::vector<char> bytes = readAll(good);

    auto writeVariant = [&](const std::string &name,
                            std::vector<char> data) {
        const std::string p = tmpPath(name);
        std::ofstream out(p, std::ios::binary);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        return p;
    };

    // Missing file.
    EXPECT_FALSE(loadTrace(tmpPath("no_such.tdt")).ok);

    // Shorter than a header.
    std::vector<char> tiny(bytes.begin(), bytes.begin() + 10);
    EXPECT_FALSE(loadTrace(writeVariant("trace_tiny.tdt", tiny)).ok);

    // Bad magic.
    std::vector<char> magic = bytes;
    magic[0] ^= 0xff;
    TraceLoadResult res =
        loadTrace(writeVariant("trace_magic.tdt", magic));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("magic"), std::string::npos);

    // Unsupported version.
    std::vector<char> ver = bytes;
    ver[4] = 99;
    res = loadTrace(writeVariant("trace_ver.tdt", ver));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("version"), std::string::npos);

    // Record-size mismatch (foreign layout).
    std::vector<char> rec = bytes;
    rec[8] = 16;
    EXPECT_FALSE(loadTrace(writeVariant("trace_rec.tdt", rec)).ok);

    // Truncated mid-record.
    std::vector<char> trunc(bytes.begin(), bytes.end() - 7);
    EXPECT_FALSE(loadTrace(writeVariant("trace_trunc.tdt", trunc)).ok);

    // Whole records missing vs the header's promised count.
    std::vector<char> short_body(
        bytes.begin(), bytes.end() - sizeof(TraceRecord));
    res = loadTrace(writeVariant("trace_short.tdt", short_body));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("truncated"), std::string::npos);
}

TEST(TraceDiff, ReportsFirstDivergenceWithContext)
{
    const std::string a = tmpPath("trace_diff_a.tdt");
    const std::string b = tmpPath("trace_diff_b.tdt");
    for (const std::string &p : {a, b}) {
        Tracer tracer(p, 1, 64);
        for (std::uint64_t i = 0; i < 20; ++i) {
            tracer.buffer(0).record(TraceKind::ActRd, 1000 * i,
                                    0x40 * i,
                                    static_cast<std::uint16_t>(i % 4),
                                    30, 1);
        }
        tracer.flushAll();
    }

    TraceLoadResult ra = loadTrace(a);
    TraceLoadResult rb = loadTrace(b);
    ASSERT_TRUE(ra.ok && rb.ok);
    TraceDiff same = diffTraces(ra.trace, rb.trace);
    EXPECT_TRUE(same.identical);

    // Inject a single-event perturbation into record 7's tick field
    // and require the diff to pinpoint it with tick context.
    perturbRecordByte(b, 7, 0);
    rb = loadTrace(b);
    ASSERT_TRUE(rb.ok) << rb.error;
    TraceDiff diff = diffTraces(ra.trace, rb.trace);
    EXPECT_FALSE(diff.identical);
    EXPECT_EQ(diff.firstDivergence, 7u);
    EXPECT_NE(diff.message.find("record 7"), std::string::npos);
    EXPECT_NE(diff.message.find("tick="), std::string::npos);
    EXPECT_NE(diff.message.find("ActRd"), std::string::npos);
    // Both sides of the divergent record are shown.
    EXPECT_NE(diff.message.find("A seq="), std::string::npos);
    EXPECT_NE(diff.message.find("B seq="), std::string::npos);

    // Record-count divergence is also detected.
    TraceFile shorter = ra.trace;
    shorter.records.pop_back();
    TraceDiff count = diffTraces(ra.trace, shorter);
    EXPECT_FALSE(count.identical);
    EXPECT_NE(count.message.find("record counts differ"),
              std::string::npos);
}

SystemConfig
tracedCfg(const std::string &path)
{
    SystemConfig cfg;
    cfg.design = Design::Tdram;
    cfg.dcache.capacityBytes = 4ULL << 20;
    cfg.cores.cores = 2;
    cfg.cores.opsPerCore = 1500;
    cfg.cores.llcBytes = 256 * 1024;
    cfg.warmupOpsPerCore = 10000;
    cfg.tracePath = path;
    return cfg;
}

TEST(TraceSystem, EndToEndTraceMatchesRun)
{
    const std::string path = tmpPath("trace_system.tdt");
    SimReport r = runOne(tracedCfg(path), findWorkload("is.C"));

    TraceLoadResult res = loadTrace(path);
    ASSERT_TRUE(res.ok) << res.error;
    const TraceSummary s = summarizeTrace(res.trace);
    ASSERT_GT(s.records, 0u);

    // Demand events mirror the report's demand counts exactly.
    const auto starts = s.perKind[static_cast<std::size_t>(
        TraceKind::DemandStart)];
    const auto dones = s.perKind[static_cast<std::size_t>(
        TraceKind::DemandDone)];
    EXPECT_EQ(starts, r.demandReads + r.demandWrites);
    EXPECT_EQ(dones, r.demandReads + r.demandWrites);

    // TDRAM issues lockstep commands and HM responses.
    EXPECT_GT(s.perKind[static_cast<std::size_t>(TraceKind::ActRd)],
              0u);
    EXPECT_GT(s.hmResponses, 0u);

    // seq is a total order with no gaps.
    for (std::uint64_t i = 0; i < res.trace.records.size(); ++i)
        ASSERT_EQ(res.trace.records[i].seq, i);
}

TEST(TraceSystem, RepeatRunsProduceByteIdenticalTraces)
{
    const std::string a = tmpPath("trace_repeat_a.tdt");
    const std::string b = tmpPath("trace_repeat_b.tdt");
    runOne(tracedCfg(a), findWorkload("is.C"));
    runOne(tracedCfg(b), findWorkload("is.C"));
    EXPECT_EQ(readAll(a), readAll(b));
}

TEST(TraceSweep, SerialAndParallelSweepsAreByteIdentical)
{
    auto makeJobs = [](const std::string &prefix) {
        std::vector<SweepJob> jobs;
        for (Design d : {Design::Tdram, Design::CascadeLake,
                         Design::Ndc, Design::Alloy}) {
            SweepJob job;
            job.cfg = tracedCfg("");
            job.cfg.design = d;
            job.workload = findWorkload("is.C");
            jobs.push_back(std::move(job));
        }
        applyTracePrefix(jobs, prefix);
        return jobs;
    };

    const std::string p1 = tmpPath("sweep_serial");
    const std::string p4 = tmpPath("sweep_par");
    std::vector<SweepJob> serial = makeJobs(p1);
    std::vector<SweepJob> parallel = makeJobs(p4);
    EXPECT_EQ(serial[0].cfg.tracePath, p1 + "_job000.tdt");

    SweepRunner(1).run(serial);
    SweepRunner(4).run(parallel);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(readAll(serial[i].cfg.tracePath),
                  readAll(parallel[i].cfg.tracePath))
            << "job " << i;
    }
}

} // namespace
} // namespace tsim
