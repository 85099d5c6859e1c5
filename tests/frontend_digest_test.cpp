/**
 * @file
 * Pinned-output test of the controller/core front end.
 *
 * Builds a small, front-end-bound system — 4 cores on bt.C (the
 * low-miss-ratio profile, so most ops end in the SRAM levels and the
 * controller fast path), a 4 MiB DRAM cache on 2 channels x 8 banks,
 * one DDR5 main-memory channel — warms it up, runs 3000 ops per core
 * to completion, and folds the finish tick plus the full stats dump of
 * the controller, main memory and engine into one FNV-1a 64 checksum.
 * The finish ticks equal those of the pre-rewrite front end
 * (shared_ptr transactions, std::function callbacks, node-based MSHR
 * maps), which the allocation-free front end matched byte for byte
 * until that copy was retired. The LLC lines of the dump count the
 * measured phase only; warm-up leaves them at zero.
 *
 * The cascadelake_backpressure case shrinks the read queue to two
 * entries so the cores stall on controller backpressure; its pins
 * were taken from the engine that parked stalled demands in a linked
 * FIFO, before the fixed three-slot queue replaced it. The
 * tdram_write_queue case shrinks the write queue to two entries, so
 * the controller retries refused channel writes; its pins were taken
 * from the controller whose retry event carried the whole request.
 *
 * The run must also make no InlineCallable heap fallback: every
 * capture on the hot path fits its inline buffer.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "sim/inline_function.hh"
#include "system/system.hh"

namespace tsim
{
namespace
{

struct FrontEndCase
{
    const char *name;
    Design design;
    Tick finish;            ///< engine.finishTick()
    std::uint64_t checksum; ///< finish tick, then the stats dump
    /** Nonzero: a read queue this shallow, which stalls the cores. */
    unsigned readQCap = 0;
    /** Nonzero: a write queue this shallow, which refuses writes. */
    unsigned writeQCap = 0;
};

void
PrintTo(const FrontEndCase &c, std::ostream *os)
{
    *os << c.name;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 1099511628211ULL;
}

/** The front-end-bound system of @p d, before any case's queue caps. */
SystemConfig
frontEndSystem(Design d)
{
    SystemConfig cfg;
    cfg.design = d;
    cfg.mmChannels = 1;
    cfg.dcache.capacityBytes = 4ULL << 20;
    cfg.dcache.channels = 2;
    cfg.dcache.banks = 8;
    cfg.cores.cores = 4;
    cfg.cores.opsPerCore = 3000;
    cfg.warmupOpsPerCore = 20000;
    return cfg;
}

class FrontEndDigest : public ::testing::TestWithParam<FrontEndCase>
{};

TEST_P(FrontEndDigest, MatchesPinnedChecksum)
{
    const FrontEndCase &fc = GetParam();
    SystemConfig cfg = frontEndSystem(fc.design);
    if (fc.readQCap)
        cfg.dcache.readQCap = fc.readQCap;
    if (fc.writeQCap)
        cfg.dcache.writeQCap = fc.writeQCap;
    System sys(cfg, findWorkload("bt.C"));
    const std::uint64_t fallbacks0 = InlineFunction::heapFallbacks();
    const SimReport r = sys.run();
    EXPECT_EQ(InlineFunction::heapFallbacks(), fallbacks0)
        << "an InlineCallable capture spilled to the heap";

    std::ostringstream os;
    sys.dumpStats(os);
    const std::string stats = os.str();
    std::uint64_t checksum = fnv(14695981039346656037ULL, r.runtimeTicks);
    for (char c : stats)
        checksum = fnv(checksum, static_cast<unsigned char>(c));

    if (fc.readQCap || fc.writeQCap) {
        EXPECT_GT(r.backpressureStalls, 0u) << fc.name;
    }
    EXPECT_EQ(r.runtimeTicks, fc.finish) << fc.name;
    EXPECT_EQ(checksum, fc.checksum)
        << fc.name << ": output differs from the pinned reference "
        << "checksum; stats dump:\n"
        << stats;
}

// Finish ticks and checksums at seed 1.
INSTANTIATE_TEST_SUITE_P(
    Designs, FrontEndDigest,
    ::testing::Values(
        FrontEndCase{"cascadelake", Design::CascadeLake, 22480000,
                     0xbe1286e06e100802ULL},
        FrontEndCase{"ndc", Design::Ndc, 22464000, 0xec80c8ea323e04bbULL},
        FrontEndCase{"tdram", Design::Tdram, 22365750,
                     0x6bc0ecf0e3bfdaaaULL},
        FrontEndCase{"cascadelake_backpressure", Design::CascadeLake,
                     22676000, 0xaa67925282c527dfULL, 2},
        FrontEndCase{"tdram_write_queue", Design::Tdram, 22227000,
                     0x7c47e9538d9e4f6dULL, 0, 2}),
    [](const ::testing::TestParamInfo<FrontEndCase> &pi) {
        return std::string(pi.param.name);
    });

TEST(CoreEngine, RetiresLlcHitsWhoseWritebackStalls)
{
    // The same system on is.D with a two-entry write queue: LLC hits
    // whose dirty victim the full queue refuses still retire, refused
    // channel writes wait without a heap capture, and the finish tick
    // is the one from before (retiring ends no run).
    SystemConfig cfg = frontEndSystem(Design::Tdram);
    cfg.dcache.writeQCap = 2;
    System sys(cfg, findWorkload("is.D"));
    const std::uint64_t fallbacks0 = InlineFunction::heapFallbacks();
    const SimReport r = sys.run();
    EXPECT_EQ(InlineFunction::heapFallbacks(), fallbacks0);
    EXPECT_GT(r.backpressureStalls, 0u);
    EXPECT_EQ(sys.coreEngine()->opsRetired.value(), 12000.0);
    EXPECT_EQ(r.runtimeTicks, 120538250u);
}

} // namespace
} // namespace tsim
