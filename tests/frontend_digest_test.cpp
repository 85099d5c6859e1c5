/**
 * @file
 * Pinned-output test of the controller/core front end.
 *
 * Builds a small, front-end-bound system by hand — 4 cores on bt.C
 * (the low-miss-ratio profile, so most ops end in the SRAM levels and
 * the controller fast path), a 4 MiB DRAM cache on 2 channels x 8
 * banks, one DDR5 main-memory channel — warms it up, runs 3000 ops per
 * core to completion, and folds the finish tick plus the full stats
 * dump of the controller, main memory and engine into one FNV-1a 64
 * checksum. The finish ticks equal those of the pre-rewrite front end
 * (shared_ptr transactions, std::function callbacks, node-based MSHR
 * maps), which the allocation-free front end matched byte for byte
 * until that copy was retired. The LLC lines of the dump count the
 * measured phase only; warm-up leaves them at zero.
 *
 * The cascadelake_backpressure case shrinks the read queue to two
 * entries so the cores stall on controller backpressure; its pins
 * were taken from the engine that parked stalled demands in a linked
 * FIFO, before the fixed three-slot queue replaced it.
 *
 * The measured region (start() through the last in-flight demand)
 * must also make no InlineCallable heap fallback: every capture on the
 * hot path fits its inline buffer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "dcache/dram_cache.hh"
#include "dram/main_memory.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "stats/stats.hh"
#include "workload/core_engine.hh"
#include "workload/profiles.hh"

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

class FrontEndDigest : public ::testing::TestWithParam<FrontEndCase>
{};

TEST_P(FrontEndDigest, MatchesPinnedChecksum)
{
    const FrontEndCase &fc = GetParam();
    constexpr unsigned kCores = 4;
    constexpr std::uint64_t kCapacity = 4ULL << 20;
    const WorkloadProfile &wl = findWorkload("bt.C");

    EventQueue eq;
    MainMemoryConfig mm_cfg;
    mm_cfg.channels = 1;
    mm_cfg.capacityBytes = std::max<std::uint64_t>(
        std::bit_ceil(physicalSpaceBytes(wl, kCapacity)), 1 << 26);
    MainMemory mm(eq, "mm", mm_cfg);

    DramCacheConfig dc_cfg;
    dc_cfg.capacityBytes = kCapacity;
    dc_cfg.channels = 2;
    dc_cfg.banks = 8;
    if (fc.readQCap)
        dc_cfg.readQCap = fc.readQCap;
    const std::unique_ptr<DramCacheCtrl> ctrl =
        makeDramCache(eq, fc.design, dc_cfg, mm);

    CoreConfig core_cfg;
    core_cfg.cores = kCores;
    core_cfg.opsPerCore = 3000;
    std::vector<std::unique_ptr<AddressGenerator>> gens;
    for (unsigned c = 0; c < kCores; ++c)
        gens.push_back(makeGenerator(wl, c, kCores, kCapacity));
    CoreEngine engine(eq, "engine", core_cfg, std::move(gens), *ctrl, 1);
    engine.warmup(20000);

    const std::uint64_t fallbacks0 = InlineFunction::heapFallbacks();
    engine.start();
    while (!engine.done() || ctrl->inFlightDemands() > 0) {
        ASSERT_TRUE(eq.step())
            << "event queue drained before the workload finished";
        ASSERT_LT(eq.curTick(), nsToTicks(2.0e9)) << "run hung";
    }
    EXPECT_EQ(InlineFunction::heapFallbacks(), fallbacks0)
        << "an InlineCallable capture spilled to the heap";

    StatGroup g("system");
    ctrl->regStats(g);
    mm.regStats(g);
    engine.regStats(g);
    std::ostringstream os;
    g.dump(os);
    const std::string stats = os.str();
    std::uint64_t checksum = fnv(14695981039346656037ULL,
                                 engine.finishTick());
    for (char c : stats)
        checksum = fnv(checksum, static_cast<unsigned char>(c));

    if (fc.readQCap) {
        EXPECT_GT(engine.backpressureStalls.value(), 0.0) << fc.name;
    }
    EXPECT_EQ(engine.finishTick(), fc.finish) << fc.name;
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
                     22676000, 0xaa67925282c527dfULL, 2}),
    [](const ::testing::TestParamInfo<FrontEndCase> &pi) {
        return std::string(pi.param.name);
    });

} // namespace
} // namespace tsim
