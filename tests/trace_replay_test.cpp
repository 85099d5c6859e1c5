/**
 * @file
 * .tdtz container + trace-replay front-end tests: encode/decode
 * round-trips, frame-boundary seeks, corruption rejection,
 * codec-independence of the record level, text-format parsing,
 * demand projection, and replay pacing and provenance.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "system/system.hh"
#include "trace/tdtz.hh"
#include "trace/trace.hh"

namespace tsim
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "tdtz_" + name;
}

/** Deterministic mixed request stream (strides + hot region). */
std::vector<ReplayRecord>
makeStream(std::size_t n, std::uint64_t seed = 7)
{
    std::vector<ReplayRecord> out;
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        ReplayRecord r;
        r.addr = (i % 4 == 0)
                     ? rng.range(1 << 9) * lineBytes
                     : (static_cast<Addr>(i) * 3 % (1 << 14)) *
                           lineBytes;
        r.size = (i % 7 == 0) ? 2 * lineBytes : lineBytes;
        r.isWrite = rng.chance(0.3);
        r.delta = nsToTicks(static_cast<double>(i % 5));
        out.push_back(r);
    }
    return out;
}

void
writeStream(const std::string &path,
            const std::vector<ReplayRecord> &recs, TdtzCodec codec,
            std::uint32_t frame_records = 4096)
{
    TdtzWriter w(path, codec, frame_records);
    for (const ReplayRecord &r : recs)
        w.append(r);
    w.finish();
}

/** Demands a replay of @p recs issues: one per touched line. */
std::uint64_t
lineCount(const std::vector<ReplayRecord> &recs)
{
    std::uint64_t n = 0;
    for (const ReplayRecord &r : recs) {
        n += (lineAlign(r.addr + r.size - 1) - lineAlign(r.addr)) /
                 lineBytes +
             1;
    }
    return n;
}

std::vector<ReplayRecord>
readAll(const std::string &path)
{
    TdtzReader r;
    EXPECT_TRUE(r.open(path)) << r.error();
    std::vector<ReplayRecord> out;
    ReplayRecord rec;
    while (r.next(rec))
        out.push_back(rec);
    EXPECT_TRUE(r.ok()) << r.error();
    return out;
}

TEST(Tdtz, RoundTripVarint)
{
    const auto recs = makeStream(10000);
    const std::string path = tmpPath("rt_varint.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 512);
    EXPECT_EQ(readAll(path), recs);

    TdtzReader r;
    ASSERT_TRUE(r.open(path));
    EXPECT_EQ(r.info().records, recs.size());
    EXPECT_EQ(r.info().frames, (recs.size() + 511) / 512);
    std::uint64_t reads = 0, writes = 0;
    for (const ReplayRecord &rec : recs)
        (rec.isWrite ? writes : reads)++;
    EXPECT_EQ(r.info().reads, reads);
    EXPECT_EQ(r.info().writes, writes);
}

TEST(Tdtz, RoundTripZstd)
{
    if (!tdtzZstdAvailable())
        GTEST_SKIP() << "zstd not compiled in";
    const auto recs = makeStream(10000);
    const std::string path = tmpPath("rt_zstd.tdtz");
    writeStream(path, recs, TdtzCodec::Zstd, 512);
    EXPECT_EQ(readAll(path), recs);
}

TEST(Tdtz, ZstdAndFallbackAgreeAtRecordLevel)
{
    if (!tdtzZstdAvailable())
        GTEST_SKIP() << "zstd not compiled in";
    const auto recs = makeStream(5000);
    const std::string pz = tmpPath("codec_z.tdtz");
    const std::string pv = tmpPath("codec_v.tdtz");
    writeStream(pz, recs, TdtzCodec::Zstd, 333);
    writeStream(pv, recs, TdtzCodec::Varint, 333);
    EXPECT_EQ(readAll(pz), readAll(pv));
}

TEST(Tdtz, SeekAcrossFrameBoundaries)
{
    constexpr std::uint32_t frame = 100;
    const auto recs = makeStream(1050);  // last frame half full
    const std::string path = tmpPath("seek.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, frame);

    TdtzReader r;
    ASSERT_TRUE(r.open(path));
    // Boundaries, mid-frame, backwards, and the tail.
    const std::uint64_t targets[] = {99,  100, 101, 0,   999,
                                     500, 1,   199, 1049};
    ReplayRecord rec;
    for (std::uint64_t n : targets) {
        ASSERT_TRUE(r.seekRecord(n)) << "seek " << n << ": "
                                     << r.error();
        EXPECT_EQ(r.position(), n);
        ASSERT_TRUE(r.next(rec));
        EXPECT_EQ(rec, recs[n]) << "record " << n;
    }
    // n == count positions at EOF; past it is an error.
    EXPECT_TRUE(r.seekRecord(recs.size()));
    EXPECT_FALSE(r.next(rec));
    EXPECT_TRUE(r.ok()) << r.error();
    EXPECT_FALSE(r.seekRecord(recs.size() + 1));
}

TEST(Tdtz, SequentialReadAfterSeekContinuesCorrectly)
{
    const auto recs = makeStream(600);
    const std::string path = tmpPath("seekseq.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 128);

    TdtzReader r;
    ASSERT_TRUE(r.open(path));
    ASSERT_TRUE(r.seekRecord(250));
    ReplayRecord rec;
    for (std::uint64_t n = 250; n < recs.size(); ++n) {
        ASSERT_TRUE(r.next(rec));
        EXPECT_EQ(rec, recs[n]) << "record " << n;
    }
    EXPECT_FALSE(r.next(rec));
    EXPECT_TRUE(r.ok());
}

TEST(Tdtz, RejectsTruncatedFile)
{
    const auto recs = makeStream(2000);
    const std::string path = tmpPath("trunc.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 256);

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Cut at several depths: mid-footer, mid-frame, mid-header.
    for (std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{40},
          std::size_t{10}}) {
        const std::string cut = tmpPath("trunc_cut.tdtz");
        std::ofstream out(cut, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(keep));
        out.close();
        TdtzReader r;
        EXPECT_FALSE(r.open(cut)) << "kept " << keep << " bytes";
        EXPECT_FALSE(r.error().empty());
    }
}

TEST(Tdtz, RejectsCorruptFramePayload)
{
    const auto recs = makeStream(2000);
    const std::string path = tmpPath("corrupt.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 256);

    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    // First byte of frame 0's payload: after the 32 B file header
    // and 24 B frame header.
    f.seekg(56);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x20);
    f.seekp(56);
    f.write(&b, 1);
    f.close();

    TdtzReader r;
    ASSERT_TRUE(r.open(path));  // header/footer still fine
    ReplayRecord rec;
    EXPECT_FALSE(r.next(rec));
    EXPECT_NE(r.error().find("checksum"), std::string::npos)
        << r.error();
}

TEST(Tdtz, ParsesTextTraces)
{
    const std::string path = tmpPath("text.txt");
    {
        std::ofstream out(path);
        out << "# demo trace\n"
            << "R 0x1000\n"
            << "W 4096 128\n"
            << "R 0x2040 64 2.5\n"
            << "\n"
            << "W 0 64 10\n"
            << "R 0x40 4294967295 0\n";
    }
    std::vector<ReplayRecord> recs;
    std::string error;
    ASSERT_TRUE(parseTextTrace(path, recs, error)) << error;
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(recs[0], (ReplayRecord{0x1000, 64, false, 0}));
    EXPECT_EQ(recs[1], (ReplayRecord{4096, 128, true, 0}));
    EXPECT_EQ(recs[2], (ReplayRecord{0x2040, 64, false, nsToTicks(2.5)}));
    EXPECT_EQ(recs[3], (ReplayRecord{0, 64, true, nsToTicks(10.0)}));
    EXPECT_EQ(recs[4], (ReplayRecord{0x40, UINT32_MAX, false, 0}));

    {
        std::ofstream out(path);
        out << "X 0x1000\n";
    }
    EXPECT_FALSE(parseTextTrace(path, recs, error));
    EXPECT_FALSE(error.empty());

    // Junk, a sign, trailing junk and overflow are errors, not address
    // 0, a wrapped size or a dropped delta; so is a fifth token.
    const std::pair<std::string, std::string> bad_lines[] = {
        {"R xyz", "bad address 'xyz'"},
        {"R -1", "bad address '-1'"},
        {"R 0x10g", "bad address '0x10g'"},
        {"R 0x1ffffffffffffffff", "bad address '0x1ffffffffffffffff'"},
        {"R 0x40 -5", "bad size '-5'"},
        {"R 0x40 0", "bad size '0'"},
        {"W 0x80 64x 3", "bad size '64x'"},
        {"R 0x40 4294967296", "bad size '4294967296'"},
        {"R 0x40 64 -1", "bad delta '-1'"},
        {"R 0x40 64 2.5ns", "bad delta '2.5ns'"},
        {"R 0x40 64 nan", "bad delta 'nan'"},
        {"R 0x40 64 1e300", "bad delta '1e300'"},
        {"R 0x40 64 10 extra", "trailing junk 'extra'"},
    };
    for (const auto &[bad, message] : bad_lines) {
        {
            std::ofstream out(path);
            out << "R 0x40\n" << bad << "\n";
        }
        EXPECT_FALSE(parseTextTrace(path, recs, error)) << bad;
        EXPECT_EQ(error, path + ":2: " + message);
    }
}

/** Capture a synthetic run's .tdt, project, and sanity-check. */
TEST(Tdtz, ProjectsDemandsFromEventTrace)
{
    SystemConfig cfg;
    cfg.cores.opsPerCore = 1500;
    cfg.warmupOpsPerCore = 5000;
    cfg.tracePath = tmpPath("proj.tdt");
    System sys(cfg, findWorkload("is.C"));
    SimReport rep = sys.run();

    TraceLoadResult res = loadTrace(cfg.tracePath);
    ASSERT_TRUE(res.ok) << res.error;
    const auto recs = projectDemands(res.trace);
    EXPECT_EQ(recs.size(), rep.demandReads + rep.demandWrites);
    std::uint64_t writes = 0;
    for (const ReplayRecord &r : recs)
        writes += r.isWrite;
    EXPECT_EQ(writes, rep.demandWrites);

    // Packed with either codec, the stream decodes bit-equal at no
    // more than half the flat encoding's size.
    const std::string packed = tmpPath("proj.tdtz");
    for (TdtzCodec codec : {TdtzCodec::Varint, TdtzCodec::Zstd}) {
        if (codec == TdtzCodec::Zstd && !tdtzZstdAvailable())
            continue;
        writeStream(packed, recs, codec);
        EXPECT_EQ(readAll(packed), recs);
        EXPECT_LE(2 * std::filesystem::file_size(packed),
                  recs.size() * tdtzFlatRecordBytes)
            << "codec " << static_cast<int>(codec);
    }

    // Replayed through the same system shape, every one-line record
    // is one demand.
    SystemConfig replay_cfg = cfg;
    replay_cfg.tracePath.clear();
    replay_cfg.replay.path = packed;
    const SimReport replayed = runOne(replay_cfg, findWorkload("is.C"));
    EXPECT_EQ(replayed.demandReads + replayed.demandWrites, recs.size());
}

SimReport
replayRun(const std::string &path, ReplayMode mode)
{
    SystemConfig cfg;
    cfg.replay.path = path;
    cfg.replay.mode = mode;
    cfg.warmupOpsPerCore = 2000;
    return runOne(cfg, findWorkload("is.C"));
}

TEST(TraceReplay, AfapFinishesFasterThanTimed)
{
    // Spread the records out so timed pacing dominates runtime.
    auto recs = makeStream(4000, 3);
    for (ReplayRecord &r : recs)
        r.delta = nsToTicks(50.0);
    const std::string path = tmpPath("afap.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 1024);

    const SimReport timed = replayRun(path, ReplayMode::Timed);
    const SimReport afap = replayRun(path, ReplayMode::Afap);
    EXPECT_EQ(timed.demandReads + timed.demandWrites,
              lineCount(recs));
    EXPECT_EQ(afap.demandReads + afap.demandWrites,
              lineCount(recs));
    EXPECT_LT(afap.runtimeTicks, timed.runtimeTicks);
    EXPECT_EQ(timed.replayMode, "timed");
    EXPECT_EQ(afap.replayMode, "afap");
}

TEST(TraceReplay, ReportCarriesProvenance)
{
    const auto recs = makeStream(3000, 5);
    const std::string path = tmpPath("prov.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 1024);

    const SimReport r = replayRun(path, ReplayMode::Timed);
    EXPECT_EQ(r.replaySource, path);
    EXPECT_EQ(r.replayMode, "timed");
    EXPECT_EQ(r.replayRecords, recs.size());

    // Synthetic runs stay unmarked.
    SystemConfig cfg;
    cfg.cores.opsPerCore = 500;
    cfg.warmupOpsPerCore = 1000;
    const SimReport s = runOne(cfg, findWorkload("is.C"));
    EXPECT_TRUE(s.replaySource.empty());
    EXPECT_EQ(s.replayRecords, 0u);
}

TEST(TraceReplay, MlpLimitsOutstandingReadsWithoutLosingWork)
{
    auto recs = makeStream(5000, 9);
    for (ReplayRecord &r : recs)
        r.delta = 0;  // maximal pressure
    const std::string path = tmpPath("mlp.tdtz");
    writeStream(path, recs, TdtzCodec::Varint, 1024);

    SystemConfig cfg;
    cfg.replay.path = path;
    cfg.replay.mode = ReplayMode::Afap;
    cfg.replay.mlp = 4;
    cfg.warmupOpsPerCore = 0;
    const SimReport limited = runOne(cfg, findWorkload("is.C"));
    cfg.replay.mlp = 0;
    const SimReport unlimited = runOne(cfg, findWorkload("is.C"));
    EXPECT_EQ(limited.demandReads + limited.demandWrites,
              lineCount(recs));
    EXPECT_EQ(unlimited.demandReads + unlimited.demandWrites,
              lineCount(recs));
    EXPECT_GE(limited.runtimeTicks, unlimited.runtimeTicks);
}

} // namespace
} // namespace tsim
