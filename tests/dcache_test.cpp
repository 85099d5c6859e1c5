/**
 * @file
 * DRAM-cache controller tests: per-design protocol behaviour driven
 * with hand-built demand sequences (no workload generator), checking
 * outcome classification, Table II actions, forwarding paths, and
 * per-design traffic signatures, the cross-design protocol
 * properties, and the extension features: the next-line prefetcher
 * (§V-D) and the conditional-column ablation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dcache/dram_cache.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

/** The harness's DRAM cache: 16 Ki lines on 2 channels, no refresh. */
DramCacheConfig
smallCache(unsigned ways = 1, bool predictor = false)
{
    DramCacheConfig cfg;
    cfg.capacityBytes = 1ULL << 20;
    cfg.channels = 2;
    cfg.ways = ways;
    cfg.predictor = predictor;
    cfg.refreshEnabled = false;
    return cfg;
}

/** Small system: one dcache design over a DDR5 main memory. */
struct DcacheHarness
{
    explicit DcacheHarness(Design d, unsigned ways = 1,
                           bool predictor = false)
        : DcacheHarness(d, smallCache(ways, predictor))
    {}

    DcacheHarness(Design d, const DramCacheConfig &cfg)
    {
        MainMemoryConfig mm_cfg;
        mm_cfg.capacityBytes = 1ULL << 26;
        mm_cfg.refreshEnabled = false;  // run() must drain
        mm = std::make_unique<MainMemory>(eq, "mm", mm_cfg);
        cache = makeDramCache(eq, d, cfg, *mm);
    }

    /** Issue a demand; @p cb, if any, sees its response. */
    void
    issue(Addr addr, MemCmd cmd, RespCallback cb = {}, Addr pc = 0)
    {
        MemPacket pkt;
        pkt.id = nextId++;
        pkt.addr = addr;
        pkt.cmd = cmd;
        pkt.pc = pc;
        cache->access(pkt, std::move(cb));
    }

    /** Issue a demand and run until it completes. */
    MemPacket
    doAccess(Addr addr, MemCmd cmd, Addr pc = 0)
    {
        MemPacket result;
        bool done = false;
        issue(
            addr, cmd,
            [&](MemPacket &p) {
                result = p;
                done = true;
            },
            pc);
        // Writes may retire before their DRAM write issues; drain.
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done) << "demand never completed";
        return result;
    }

    void drain() { eq.run(); }

    /** Line address distinct per (set-conflict group, index). */
    Addr
    conflicting(Addr base, unsigned n) const
    {
        return base + n * (1ULL << 20);  // capacity apart: same set
    }

    EventQueue eq;
    std::unique_ptr<MainMemory> mm;
    std::unique_ptr<DramCacheCtrl> cache;
    PacketId nextId = 1;
};

// TicToc is deliberately absent: it never writes a clean victim back
// and leaves dirty victims resident on read misses, so the Table II
// traffic signatures below do not apply to it (its policy invariants
// live in tests/dcache_conformance_test.cpp). Banshee is page-grain
// and likewise conformance-tested.
const Design kAllCacheDesigns[] = {
    Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
    Design::Tdram,       Design::TdramNoProbe, Design::Ideal,
};

/** Parameterized over every caching design. */
class PerDesign : public ::testing::TestWithParam<Design>
{};

TEST_P(PerDesign, ColdReadMissesThenHits)
{
    DcacheHarness h(GetParam());
    MemPacket first = h.doAccess(0x4000, MemCmd::Read);
    EXPECT_EQ(first.outcome, AccessOutcome::ReadMissInvalid);
    h.drain();  // let the fill land
    MemPacket second = h.doAccess(0x4000, MemCmd::Read);
    EXPECT_TRUE(outcomeIsHit(second.outcome));
    EXPECT_EQ(h.mm->reads.value(), 1.0);
}

TEST_P(PerDesign, WriteAllocatesDirtyThenReadHitsDirty)
{
    DcacheHarness h(GetParam());
    MemPacket w = h.doAccess(0x8000, MemCmd::Write);
    EXPECT_EQ(w.outcome, AccessOutcome::WriteMissInvalid);
    h.drain();
    MemPacket r = h.doAccess(0x8000, MemCmd::Read);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadHitDirty);
    // Nothing needed main memory.
    EXPECT_EQ(h.mm->reads.value(), 0.0);
}

TEST_P(PerDesign, ReadMissDirtyWritesVictimBack)
{
    DcacheHarness h(GetParam());
    const Addr victim = 0x10000;
    h.doAccess(victim, MemCmd::Write);  // dirty resident line
    h.drain();
    const Addr line = h.conflicting(victim, 1);
    MemPacket r = h.doAccess(line, MemCmd::Read);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadMissDirty);
    h.drain();
    // The dirty victim reached main memory exactly once.
    EXPECT_EQ(h.mm->writes.value(), 1.0);
    EXPECT_EQ(h.mm->reads.value(), 1.0);
    // And the new line is now resident.
    MemPacket again = h.doAccess(line, MemCmd::Read);
    EXPECT_TRUE(outcomeIsHit(again.outcome));
}

TEST_P(PerDesign, WriteMissDirtyPreservesVictim)
{
    DcacheHarness h(GetParam());
    const Addr victim = 0x20000;
    h.doAccess(victim, MemCmd::Write);
    h.drain();
    const Addr line = h.conflicting(victim, 2);
    MemPacket w = h.doAccess(line, MemCmd::Write);
    EXPECT_EQ(w.outcome, AccessOutcome::WriteMissDirty);
    h.drain();
    // TDRAM/NDC park the victim in the device-side buffer until an
    // unload opportunity (read-miss-clean slot, refresh, or explicit
    // command); force the explicit drain here.
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        h.cache->channel(c).forceDrain();
    h.drain();
    EXPECT_EQ(h.mm->writes.value(), 1.0)
        << "dirty victim must be written back exactly once";
    MemPacket r = h.doAccess(line, MemCmd::Read);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadHitDirty);
}

TEST_P(PerDesign, ReadHitNeverTouchesMainMemory)
{
    DcacheHarness h(GetParam());
    h.doAccess(0x40000, MemCmd::Read);
    h.drain();
    for (int i = 0; i < 5; ++i)
        h.doAccess(0x40000, MemCmd::Read);
    h.drain();
    EXPECT_EQ(h.mm->reads.value(), 1.0);
    EXPECT_EQ(h.mm->writes.value(), 0.0);
}

TEST_P(PerDesign, WarmAccessMatchesTimedOutcomes)
{
    DcacheHarness h(GetParam());
    h.cache->warmAccess(0x1000, false);
    h.cache->warmAccess(0x2000, true);
    MemPacket r = h.doAccess(0x1000, MemCmd::Read);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadHitClean);
    MemPacket r2 = h.doAccess(0x2000, MemCmd::Read);
    EXPECT_EQ(r2.outcome, AccessOutcome::ReadHitDirty);
}

TEST_P(PerDesign, OutcomeCountersAddUp)
{
    DcacheHarness h(GetParam());
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        h.doAccess(rng.range(1 << 15) * lineBytes,
                   rng.chance(0.3) ? MemCmd::Write : MemCmd::Read);
    }
    h.drain();
    double sum = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(AccessOutcome::NumOutcomes); ++i)
        sum += h.cache->outcomes[i].value();
    EXPECT_EQ(sum, h.cache->demandReads.value() +
                       h.cache->demandWrites.value());
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PerDesign, ::testing::ValuesIn(kAllCacheDesigns),
    [](const ::testing::TestParamInfo<Design> &pi) {
        std::string n = designName(pi.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// --- Design-specific traffic signatures -------------------------------

TEST(CascadeLake, WriteDemandIssuesTagReadFirst)
{
    DcacheHarness h(Design::CascadeLake);
    h.doAccess(0x3000, MemCmd::Write);
    h.drain();
    double reads = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        reads += h.cache->channel(c).issuedReads.value();
    // One tag+data read preceded the data write (§II-B1).
    EXPECT_EQ(reads, 1.0);
}

TEST(CascadeLake, DiscardedTagReadCountsAsUnuseful)
{
    DcacheHarness h(Design::CascadeLake);
    h.doAccess(0x5000, MemCmd::Write);  // miss-invalid: discard
    h.drain();
    EXPECT_EQ(h.cache->bytesDiscarded.value(), 64.0);
    EXPECT_EQ(h.cache->bytesDemandServing.value(), 64.0);
}

TEST(Bear, WriteHitSkipsTagRead)
{
    DcacheHarness h(Design::Bear);
    h.doAccess(0x6000, MemCmd::Write);  // allocate (uses tag read)
    h.drain();
    double reads_before = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        reads_before += h.cache->channel(c).issuedReads.value();
    h.doAccess(0x6000, MemCmd::Write);  // hit: bypass
    h.drain();
    double reads_after = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        reads_after += h.cache->channel(c).issuedReads.value();
    EXPECT_EQ(reads_after, reads_before);
}

TEST(Tdram, ReadMissCleanMovesNoCacheData)
{
    DcacheHarness h(Design::Tdram);
    h.doAccess(0x7000, MemCmd::Read);  // cold miss, fill
    h.drain();
    const double before = h.cache->bytesDemandServing.value() +
                          h.cache->bytesMaintenance.value() +
                          h.cache->bytesDiscarded.value();
    const Addr conflicting = h.conflicting(0x7000, 1);
    MemPacket r = h.doAccess(conflicting, MemCmd::Read);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadMissClean);
    // Conditional response: only the (maintenance) fill moves data.
    h.drain();
    const double after = h.cache->bytesDemandServing.value() +
                         h.cache->bytesMaintenance.value() +
                         h.cache->bytesDiscarded.value();
    EXPECT_EQ(after - before, 64.0);
    EXPECT_EQ(h.cache->bytesDiscarded.value(), 0.0);
}

TEST(Tdram, WriteMissDirtyUsesFlushBufferNotDataBus)
{
    DcacheHarness h(Design::Tdram);
    const Addr victim = 0x9000;
    h.doAccess(victim, MemCmd::Write);
    h.drain();
    double to_ctrl_before = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        to_ctrl_before += h.cache->channel(c).bytesToCtrl.value();
    h.doAccess(h.conflicting(victim, 3), MemCmd::Write);
    // Immediately after the demand completes, no victim data has
    // crossed to the controller (it sits in the flush buffer).
    double to_ctrl_now = 0;
    unsigned flush_entries = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c) {
        to_ctrl_now += h.cache->channel(c).bytesToCtrl.value();
        flush_entries += h.cache->channel(c).flushSize();
    }
    EXPECT_EQ(to_ctrl_now, to_ctrl_before);
    EXPECT_EQ(flush_entries, 1u);
}

TEST(Tdram, ReadServedFromFlushBuffer)
{
    DcacheHarness h(Design::Tdram);
    const Addr victim = 0xa000;
    h.doAccess(victim, MemCmd::Write);
    h.drain();
    h.doAccess(h.conflicting(victim, 1), MemCmd::Write);
    // victim now in the flush buffer; a read to it is served there.
    MemPacket r = h.doAccess(victim, MemCmd::Read);
    (void)r;
    EXPECT_EQ(h.cache->servedFromFlush.value(), 1.0);
    EXPECT_EQ(h.mm->reads.value(), 0.0);
    h.drain();
}

TEST(Tdram, WriteSupersedesFlushBufferEntry)
{
    DcacheHarness h(Design::Tdram);
    const Addr victim = 0xb000;
    h.doAccess(victim, MemCmd::Write);
    h.drain();
    h.doAccess(h.conflicting(victim, 1), MemCmd::Write);
    unsigned flush_before = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        flush_before += h.cache->channel(c).flushSize();
    ASSERT_EQ(flush_before, 1u);
    bool buffered = false;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        buffered |= h.cache->channel(c).flushContains(victim);
    ASSERT_TRUE(buffered);
    // A new demand write to the buffered address supersedes the
    // older entry (the write itself may evict a *different* dirty
    // victim into the buffer, so check membership, not size).
    h.doAccess(victim, MemCmd::Write);
    bool still_buffered = false;
    double superseded = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c) {
        still_buffered |= h.cache->channel(c).flushContains(victim);
        superseded +=
            h.cache->channel(c).flushBuffer().superseded.value();
    }
    EXPECT_FALSE(still_buffered);
    EXPECT_EQ(superseded, 1.0);
    h.drain();
}

TEST(Forwarding, ReadHitsPendingFill)
{
    DcacheHarness h(Design::CascadeLake);
    // Complete a read miss; its fill write sits in the write queue.
    MemPacket r1 = h.doAccess(0xc000, MemCmd::Read);
    EXPECT_EQ(r1.outcome, AccessOutcome::ReadMissInvalid);
    // Immediately read again: forwarded from the pending write.
    MemPacket r2 = h.doAccess(0xc000, MemCmd::Read);
    EXPECT_TRUE(outcomeIsHit(r2.outcome));
    EXPECT_GE(h.cache->fwdFromWriteBuf.value(), 1.0);
    h.drain();
}

TEST(Ideal, ZeroTagCheckLatency)
{
    DcacheHarness h(Design::Ideal);
    h.doAccess(0xd000, MemCmd::Read);
    h.drain();
    EXPECT_EQ(h.cache->tagCheckLatency.mean(), 0.0);
}

TEST(NoCache, PassesThroughToMainMemory)
{
    DcacheHarness h(Design::NoCache);
    h.doAccess(0xe000, MemCmd::Read);
    h.doAccess(0xe000, MemCmd::Write);
    h.drain();
    EXPECT_EQ(h.mm->reads.value(), 1.0);
    EXPECT_EQ(h.mm->writes.value(), 1.0);
    // No cache-side DRAM activity at all.
    double acts = 0;
    for (unsigned c = 0; c < h.cache->numChannels(); ++c)
        acts += h.cache->channel(c).dataBankActs.value();
    EXPECT_EQ(acts, 0.0);
}

TEST(SetAssociative, ConflictsAbsorbedByWays)
{
    DcacheHarness direct(Design::Tdram, 1);
    DcacheHarness assoc(Design::Tdram, 4);
    // Four lines in the same direct-mapped set, interleaved so the
    // direct-mapped cache thrashes while 4 ways absorb everything.
    for (auto *h : {&direct, &assoc}) {
        for (int rep = 0; rep < 3; ++rep) {
            for (unsigned n = 0; n < 4; ++n) {
                h->doAccess(h->conflicting(0xf000, n), MemCmd::Read);
                h->drain();
            }
        }
    }
    EXPECT_GT(direct.cache->missRatio(), assoc.cache->missRatio());
    EXPECT_LT(assoc.cache->missRatio(), 0.4);  // only cold misses
}

TEST(Predictor, EarlyFetchOnPredictedMiss)
{
    DcacheHarness h(Design::CascadeLake, 1, true);
    // Train the predictor towards miss with streaming misses from
    // one PC.
    const Addr pc = 0x400;
    for (unsigned i = 0; i < 16; ++i) {
        h.doAccess((0x100 + i) * lineBytes * 977, MemCmd::Read, pc);
        h.drain();
    }
    EXPECT_GT(h.cache->predictedMiss.value(), 0.0);
}

TEST(Predictor, MispredictedHitCompletesOnceAndKeepsLineIntact)
{
    DcacheHarness h(Design::CascadeLake, 1, true);
    // Train the PC hard towards miss.
    const Addr pc = 0x400;
    for (unsigned i = 0; i < 16; ++i) {
        h.doAccess((0x100 + i) * lineBytes * 977, MemCmd::Read, pc);
        h.drain();
    }
    // Plant a dirty resident line, then read it with the miss-trained
    // PC: the predictor launches a wasted early fetch while the tag
    // read resolves to hit-dirty.
    const Addr line = 0x123 * 2 * lineBytes;
    h.doAccess(line, MemCmd::Write, 0x999);
    h.drain();
    const double mm_writes_before = h.mm->writes.value();
    const double wrong_before = h.cache->predictorWrongFetch.value();
    MemPacket r = h.doAccess(line, MemCmd::Read, pc);
    EXPECT_EQ(r.outcome, AccessOutcome::ReadHitDirty);
    h.drain();  // the wasted fetch lands after the hit completed
    EXPECT_GT(h.cache->predictorWrongFetch.value(), wrong_before);
    // Ordering: the late mispredicted fill must not clobber the
    // resident dirty line or trigger a spurious writeback...
    EXPECT_EQ(h.mm->writes.value(), mm_writes_before);
    MemPacket again = h.doAccess(line, MemCmd::Read, 0x998);
    EXPECT_EQ(again.outcome, AccessOutcome::ReadHitDirty);
    // ...and the eventual flush of that victim still happens exactly
    // once, in demand order.
    MemPacket evict =
        h.doAccess(h.conflicting(line, 1), MemCmd::Write, 0x997);
    EXPECT_EQ(evict.outcome, AccessOutcome::WriteMissDirty);
    h.drain();
    EXPECT_EQ(h.mm->writes.value(), mm_writes_before + 1.0);
}

TEST(Backpressure, ConflictBufferFullAppliesBackpressure)
{
    DcacheHarness h(Design::Tdram);
    // Flood one set: the head transaction begins, everything else
    // parks in the MSHR conflict FIFO (Table III: 32 entries).
    unsigned completions = 0;
    const unsigned n = 40;
    for (unsigned i = 0; i < n; ++i) {
        h.issue(h.conflicting(0x1000, i), MemCmd::Read,
                [&](MemPacket &) { ++completions; });
    }
    MemPacket probe;
    probe.addr = 0x2000;  // different set, empty channel queues
    probe.cmd = MemCmd::Read;
    EXPECT_FALSE(h.cache->canAccept(probe))
        << "a full conflict buffer must push back on the LLC";
    h.drain();
    EXPECT_EQ(completions, n);
    EXPECT_TRUE(h.cache->canAccept(probe));
}

TEST(Backpressure, AdmissionTracksTheDesignsInitialOp)
{
    // Fill channel 0's read queue (64 entries) with distinct-set
    // demand reads: the first pops straight into issue on the idle
    // channel, so 66 floods guarantee a full queue behind it.
    auto flood_reads = [](DcacheHarness &h) {
        // Even line index -> channel 0; skip the victim's set.
        for (unsigned i = 0; i < 66; ++i)
            h.issue(Addr(2 + 2 * i) * lineBytes, MemCmd::Read,
                    [](MemPacket &) {});
    };

    // CascadeLake starts every demand — writes included — with a
    // tag+data read, so a full read queue rejects writes too.
    {
        DcacheHarness h(Design::CascadeLake);
        flood_reads(h);
        MemPacket w;
        w.addr = 200 * lineBytes;  // channel 0, untouched set
        w.cmd = MemCmd::Write;
        EXPECT_FALSE(h.cache->canAccept(w));
        h.drain();
        EXPECT_TRUE(h.cache->canAccept(w));
    }

    // TicToc elides the tag read for writes that cannot displace a
    // dirty victim: those admit through the (empty) write queue even
    // while the read queue is saturated. A write that WOULD displace
    // a dirty victim still needs the tag read, and is rejected.
    {
        DcacheHarness h(Design::TicToc);
        const Addr victim = 0x10000;  // line 1024: channel 0
        h.doAccess(victim, MemCmd::Write);  // dirty resident
        h.drain();
        flood_reads(h);
        MemPacket elided;
        elided.addr = 200 * lineBytes;  // channel 0, cold set
        elided.cmd = MemCmd::Write;
        EXPECT_TRUE(h.cache->canAccept(elided))
            << "elided write must not wait on the read queue";
        MemPacket evicting;
        evicting.addr = h.conflicting(victim, 1);  // dirty victim
        evicting.cmd = MemCmd::Write;
        EXPECT_FALSE(h.cache->canAccept(evicting))
            << "dirty-evicting write still needs the tag read";
        h.drain();
        EXPECT_TRUE(h.cache->canAccept(evicting));
    }
}

TEST(Conservation, EveryDemandCompletesOnce)
{
    for (Design d : kAllCacheDesigns) {
        DcacheHarness h(d);
        Rng rng(7);
        unsigned completions = 0;
        const unsigned n = 300;
        for (unsigned i = 0; i < n; ++i) {
            const Addr addr = rng.range(1 << 14) * lineBytes;
            h.issue(addr, rng.chance(0.4) ? MemCmd::Write : MemCmd::Read,
                    [&](MemPacket &) { ++completions; });
        }
        h.drain();
        EXPECT_EQ(completions, n) << designName(d);
    }
}

// ---------------------------------------------------------------------
// The extension features: the next-line prefetcher (§V-D) and the
// conditional-column ablation knob.

DramCacheConfig
prefetching(unsigned degree)
{
    DramCacheConfig cfg = smallCache();
    cfg.prefetchDegree = degree;
    return cfg;
}

TEST(Prefetcher, NextLineBecomesHit)
{
    DcacheHarness h(Design::Tdram, prefetching(1));
    h.doAccess(0x10000, MemCmd::Read);  // miss -> prefetch 0x10040
    h.eq.run();
    EXPECT_EQ(h.cache->prefetchIssued.value(), 1.0);
    MemPacket r = h.doAccess(0x10040, MemCmd::Read);
    EXPECT_TRUE(outcomeIsHit(r.outcome));
    EXPECT_EQ(h.cache->prefetchUseful.value(), 1.0);
    h.eq.run();
}

TEST(Prefetcher, DegreeControlsCoverage)
{
    DcacheHarness h(Design::CascadeLake, prefetching(3));
    h.doAccess(0x20000, MemCmd::Read);
    h.eq.run();
    EXPECT_EQ(h.cache->prefetchIssued.value(), 3.0);
    for (Addr i = 1; i <= 3; ++i) {
        MemPacket r =
            h.doAccess(0x20000 + i * lineBytes, MemCmd::Read);
        EXPECT_TRUE(outcomeIsHit(r.outcome)) << i;
    }
    h.eq.run();
    EXPECT_EQ(h.cache->prefetchUseful.value(), 3.0);
}

TEST(Prefetcher, SkipsResidentAndDirtyVictims)
{
    DcacheHarness h(Design::Tdram, prefetching(1));
    // Make the next line already resident: no prefetch needed.
    h.cache->warmAccess(0x30040, false);
    h.doAccess(0x30000, MemCmd::Read);
    h.eq.run();
    EXPECT_EQ(h.cache->prefetchIssued.value(), 0.0);
    // Dirty victim in the prefetch target's set: prefetch declines.
    h.cache->warmAccess(0x40040, true);          // dirty resident
    h.doAccess(0x40000 + (1ULL << 20), MemCmd::Read);
    h.eq.run();
    // The +1 line maps onto 0x40040's set with a dirty victim.
    EXPECT_EQ(h.cache->prefetchIssued.value(), 0.0);
}

TEST(Prefetcher, DisabledByDefault)
{
    DcacheHarness h(Design::Tdram);
    h.doAccess(0x50000, MemCmd::Read);
    h.eq.run();
    EXPECT_EQ(h.cache->prefetchIssued.value(), 0.0);
}

TEST(ConditionalColumnAblation, MissCleanStreamsDiscardedData)
{
    DramCacheConfig no_cond = smallCache();
    no_cond.tdramConditionalColumn = false;
    DcacheHarness cond(Design::Tdram);
    DcacheHarness nocond(Design::Tdram, no_cond);
    for (auto *h : {&cond, &nocond}) {
        h->cache->warmAccess(0x0, false);  // clean resident line
        h->doAccess(1ULL << 20, MemCmd::Read);  // same-set miss
        h->eq.run();
    }
    EXPECT_EQ(cond.cache->bytesDiscarded.value(), 0.0);
    EXPECT_EQ(nocond.cache->bytesDiscarded.value(), 64.0);
    // Both still fill and classify identically.
    EXPECT_EQ(cond.cache->outcomeCount(AccessOutcome::ReadMissClean),
              nocond.cache->outcomeCount(
                  AccessOutcome::ReadMissClean));
}

// ---------------------------------------------------------------------
// Cross-design protocol properties: the qualitative claims of §II-B /
// §III-D as observable differences between the controllers
// (turnaround behaviour, queue usage, traffic classes).

/** One channel, so all traffic meets on channel 0. */
struct MiniSys : DcacheHarness
{
    explicit MiniSys(Design d) : DcacheHarness(d, oneChannel()) {}

    static DramCacheConfig
    oneChannel()
    {
        DramCacheConfig cfg = smallCache();
        cfg.channels = 1;
        return cfg;
    }

    double turnarounds() const
    {
        return cache->channel(0).turnarounds.value();
    }
};

TEST(Protocol, WriteHitStreamBubblesCascadeLakeNotTdram)
{
    // Warm both caches with the same lines, then stream write hits.
    MiniSys cl(Design::CascadeLake);
    MiniSys td(Design::Tdram);
    for (Addr i = 0; i < 32; ++i) {
        cl.cache->warmAccess(i * lineBytes, false);
        td.cache->warmAccess(i * lineBytes, false);
    }
    for (Addr i = 0; i < 32; ++i) {
        cl.issue(i * lineBytes, MemCmd::Write);
        td.issue(i * lineBytes, MemCmd::Write);
    }
    cl.drain();
    td.drain();
    // CascadeLake must read tags (read direction) before writing the
    // data, so a pure write stream still turns the DQ bus; TDRAM's
    // ActWr stream never does (write-drain batching keeps the CL
    // count low in this isolated burst, but it can never be zero).
    EXPECT_GE(cl.turnarounds(), 1.0);
    EXPECT_EQ(td.turnarounds(), 0.0);
}

TEST(Protocol, WriteDemandsStayOutOfTdramReadQueue)
{
    MiniSys cl(Design::CascadeLake);
    MiniSys td(Design::Tdram);
    for (Addr i = 0; i < 16; ++i) {
        cl.issue(i * lineBytes, MemCmd::Write);
        td.issue(i * lineBytes, MemCmd::Write);
    }
    cl.drain();
    td.drain();
    // Every CL write issued a read-queue tag read; TDRAM issued none.
    EXPECT_EQ(cl.cache->channel(0).issuedReads.value(), 16.0);
    EXPECT_EQ(td.cache->channel(0).issuedReads.value(), 0.0);
    EXPECT_EQ(td.cache->channel(0).issuedActWr.value(), 16.0);
}

TEST(Protocol, MissCleanTrafficByDesign)
{
    // A read-miss-clean discards the 64 B tag-read in CascadeLake;
    // Alloy discards 80 B plus 16 B of TAD padding on the fill; the
    // in-DRAM-tag designs discard nothing.
    auto run_one = [](Design d) {
        MiniSys s(d);
        // Make the line resident-clean so the miss victim is clean.
        s.cache->warmAccess(0x0, false);
        s.issue(1ULL << 20, MemCmd::Read);  // conflicting line
        s.drain();
        return s.cache->bytesDiscarded.value();
    };
    EXPECT_EQ(run_one(Design::CascadeLake), 64.0);
    EXPECT_EQ(run_one(Design::Alloy), 96.0);
    EXPECT_EQ(run_one(Design::Ndc), 0.0);
    EXPECT_EQ(run_one(Design::Tdram), 0.0);
}

TEST(Protocol, TdramHmPacketsAccompanyEveryCommand)
{
    // Probing would retire some cold-miss reads before their MAIN
    // slot, so use the no-probe variant for deterministic counts.
    MiniSys td(Design::TdramNoProbe);
    for (Addr i = 0; i < 8; ++i)
        td.issue(i * lineBytes, MemCmd::Read);
    for (Addr i = 0; i < 8; ++i)
        td.issue(i * lineBytes, MemCmd::Write);
    td.drain();
    const auto &ch = td.cache->channel(0);
    EXPECT_EQ(ch.issuedActRd.value(), 8.0);
    // 8 demand writes + 8 fill writes for the read misses.
    EXPECT_EQ(ch.issuedActWr.value(), 16.0);
}

TEST(Protocol, ProbingRetiresColdMissesBeforeMainSlot)
{
    MiniSys td(Design::Tdram);
    for (Addr i = 0; i < 8; ++i)
        td.issue(i * lineBytes, MemCmd::Read);
    td.drain();
    const auto &ch = td.cache->channel(0);
    // Probed miss-cleans leave the read queue without a data-bank
    // access: fewer MAIN ActRds than demands.
    EXPECT_LT(ch.issuedActRd.value(), 8.0);
    EXPECT_GT(ch.probesIssued.value(), 0.0);
}

TEST(Protocol, BearWritebackBypassReducesReadQueueLoad)
{
    MiniSys alloy(Design::Alloy);
    MiniSys bear(Design::Bear);
    for (Addr i = 0; i < 16; ++i) {
        alloy.cache->warmAccess(i * lineBytes, false);
        bear.cache->warmAccess(i * lineBytes, false);
    }
    for (Addr i = 0; i < 16; ++i) {
        alloy.issue(i * lineBytes, MemCmd::Write);
        bear.issue(i * lineBytes, MemCmd::Write);
    }
    alloy.drain();
    bear.drain();
    EXPECT_EQ(alloy.cache->channel(0).issuedReads.value(), 16.0);
    EXPECT_EQ(bear.cache->channel(0).issuedReads.value(), 0.0);
}

} // namespace
} // namespace tsim
