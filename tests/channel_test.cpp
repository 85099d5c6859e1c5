/**
 * @file
 * DRAM channel timing tests: protocol-level latency arithmetic from
 * Table III and the transaction diagrams of Figures 5-7, bank/bus
 * constraint and probing behaviour, and the open-page policy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dcache/dram_cache.hh"
#include "dram/channel.hh"

namespace tsim
{
namespace
{

constexpr std::uint64_t kCap = 1ULL << 24;

/** One-channel fixture with direct access to the queue. */
struct ChannelHarness
{
    explicit ChannelHarness(ChannelConfig cfg)
        : map(kCap, 1, 16, 1024),
          chan(eq, "ch", patch(cfg), map)
    {
        chan.peekTags = [this](Addr a) {
            auto it = tags.find(lineAlign(a));
            return it != tags.end() ? it->second : TagResult{};
        };
        chan.onFlushArrive = [this](Addr a, Tick t) {
            flushed.emplace_back(a, t);
        };
    }

    static ChannelConfig
    patch(ChannelConfig cfg)
    {
        cfg.refreshEnabled = false;
        return cfg;
    }

    /** Line address in a specific bank. */
    Addr
    addrIn(unsigned bank, unsigned n = 0) const
    {
        return (static_cast<Addr>(bank) + 16ULL * n) * lineBytes;
    }

    void
    setTag(Addr a, bool hit, bool valid, bool dirty, Addr victim)
    {
        TagResult r;
        r.hit = hit;
        r.valid = valid;
        r.dirty = dirty;
        r.victimAddr = victim;
        tags[lineAlign(a)] = r;
    }

    ChanReq
    req(Addr a, ChanOp op)
    {
        ChanReq r;
        r.id = nextId++;
        r.addr = a;
        r.op = op;
        r.isDemandRead = (op == ChanOp::Read || op == ChanOp::ActRd);
        return r;
    }

    EventQueue eq;
    AddressMap map;
    DramChannel chan;
    std::map<Addr, TagResult> tags;
    std::vector<std::pair<Addr, Tick>> flushed;
    std::uint64_t nextId = 1;
};

ChannelConfig
tdramCfg()
{
    ChannelConfig c;
    c.inDramTags = true;
    c.conditionalColumn = true;
    c.enableProbe = true;
    c.hasFlushBuffer = true;
    c.opportunisticDrain = true;
    return c;
}

ChannelConfig
ndcCfg()
{
    ChannelConfig c = tdramCfg();
    c.hmAtColumn = true;
    c.enableProbe = false;
    c.opportunisticDrain = false;
    return c;
}

TEST(ChannelTiming, ConventionalReadLatency)
{
    ChannelHarness h{ChannelConfig{}};
    Tick done = 0;
    ChanReq r = h.req(h.addrIn(0), ChanOp::Read);
    r.onDataDone = [&](Tick t) { done = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    // ACT at 0, RD data at tRCD + tCL, burst tBURST.
    EXPECT_EQ(done, nsToTicks(12 + 18 + 2));
}

TEST(ChannelTiming, ConventionalWriteLatency)
{
    ChannelHarness h{ChannelConfig{}};
    Tick done = 0;
    ChanReq r = h.req(h.addrIn(3), ChanOp::Write);
    r.onDataDone = [&](Tick t) { done = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(6 + 7 + 2));  // tRCD_WR + tCWL + tBURST
}

TEST(ChannelTiming, TadBurstScaleLengthensTransfer)
{
    ChannelConfig cfg;
    cfg.timing.burstScale = 80.0 / 64.0;  // Alloy/BEAR
    ChannelHarness h{cfg};
    Tick done = 0;
    ChanReq r = h.req(h.addrIn(0), ChanOp::Read);
    r.onDataDone = [&](Tick t) { done = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(12 + 18 + 2.5));
}

TEST(ChannelTiming, ActRdHitHmPrecedesData)
{
    ChannelHarness h{tdramCfg()};
    const Addr a = h.addrIn(0);
    h.setTag(a, true, true, false, a);
    Tick hm = 0, data = 0;
    TagResult res;
    ChanReq r = h.req(a, ChanOp::ActRd);
    r.onTagResult = [&](Tick t, const TagResult &tr) {
        hm = t;
        res = tr;
    };
    r.onDataDone = [&](Tick t) { data = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    // Paper §III-C4: tRCD_TAG + tHM = 15 ns; data at 32 ns.
    EXPECT_EQ(hm, nsToTicks(15));
    EXPECT_EQ(data, nsToTicks(32));
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.viaProbe);
}

TEST(ChannelTiming, ActRdMissCleanSuppressesColumnOp)
{
    ChannelHarness h{tdramCfg()};
    const Addr a = h.addrIn(1);
    h.setTag(a, false, true, false, h.addrIn(1, 7));
    Tick hm = 0;
    bool data_came = false;
    ChanReq r = h.req(a, ChanOp::ActRd);
    r.onTagResult = [&](Tick t, const TagResult &) { hm = t; };
    r.onDataDone = [&](Tick) { data_came = true; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    EXPECT_EQ(hm, nsToTicks(15));
    EXPECT_FALSE(data_came);  // conditional response: no transfer
    EXPECT_EQ(h.chan.bytesToCtrl.value(), 0.0);
    EXPECT_GT(h.chan.dqReservedIdleTicks.value(), 0.0);
}

TEST(ChannelTiming, ActRdMissDirtyStreamsVictim)
{
    ChannelHarness h{tdramCfg()};
    const Addr a = h.addrIn(2);
    h.setTag(a, false, true, true, h.addrIn(2, 9));
    Tick hm = 0, data = 0;
    TagResult res;
    ChanReq r = h.req(a, ChanOp::ActRd);
    r.onTagResult = [&](Tick t, const TagResult &tr) {
        hm = t;
        res = tr;
    };
    r.onDataDone = [&](Tick t) { data = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    EXPECT_EQ(hm, nsToTicks(15));
    EXPECT_EQ(data, nsToTicks(32));  // same timing as a hit (Fig 5)
    EXPECT_TRUE(res.dirty);
    EXPECT_EQ(res.victimAddr, h.addrIn(2, 9));
}

TEST(ChannelTiming, NdcResultTiedToColumnOp)
{
    ChannelHarness h{ndcCfg()};
    const Addr a = h.addrIn(0);
    h.setTag(a, false, true, false, h.addrIn(0, 3));
    Tick hm = 0;
    ChanReq r = h.req(a, ChanOp::ActRd);
    r.onTagResult = [&](Tick t, const TagResult &) { hm = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    // NDC learns the status only when the data slot completes.
    EXPECT_EQ(hm, nsToTicks(32));
}

TEST(ChannelTiming, ActWrHmAndDataTiming)
{
    ChannelHarness h{tdramCfg()};
    const Addr a = h.addrIn(4);
    h.setTag(a, true, true, false, a);
    Tick hm = 0, data = 0;
    ChanReq r = h.req(a, ChanOp::ActWr);
    r.onTagResult = [&](Tick t, const TagResult &) { hm = t; };
    r.onDataDone = [&](Tick t) { data = t; };
    h.chan.enqueue(std::move(r));
    h.eq.run();
    EXPECT_EQ(hm, nsToTicks(15));
    EXPECT_EQ(data, nsToTicks(7 + 2));  // tCWL + tBURST
}

TEST(ChannelTiming, ActWrMissDirtyFillsFlushBuffer)
{
    ChannelHarness h{tdramCfg()};
    const Addr a = h.addrIn(5);
    const Addr victim = h.addrIn(5, 11);
    h.setTag(a, false, true, true, victim);
    h.chan.enqueue(h.req(a, ChanOp::ActWr));
    h.eq.run();
    EXPECT_EQ(h.chan.flushSize(), 1u);
    EXPECT_TRUE(h.chan.flushContains(victim));
    // No victim data crossed the DQ bus toward the controller.
    EXPECT_EQ(h.chan.bytesToCtrl.value(), 0.0);
    EXPECT_EQ(h.chan.turnarounds.value(), 0.0);
}

TEST(ChannelTiming, ReadMissCleanSlotDrainsFlushBuffer)
{
    ChannelHarness h{tdramCfg()};
    const Addr wr = h.addrIn(6);
    const Addr victim = h.addrIn(6, 13);
    h.setTag(wr, false, true, true, victim);
    h.chan.enqueue(h.req(wr, ChanOp::ActWr));
    h.eq.run();
    ASSERT_EQ(h.chan.flushSize(), 1u);

    const Addr rd = h.addrIn(7);
    h.setTag(rd, false, true, false, h.addrIn(7, 3));
    h.chan.enqueue(h.req(rd, ChanOp::ActRd));
    h.eq.run();
    ASSERT_EQ(h.flushed.size(), 1u);
    EXPECT_EQ(h.flushed[0].first, victim);
    EXPECT_EQ(h.chan.flushSize(), 0u);
    EXPECT_EQ(h.chan.flushBuffer().drainedOnMissClean.value(), 1.0);
}

TEST(ChannelTiming, SameBankReadsSerializeOnBankCycle)
{
    ChannelHarness h{ChannelConfig{}};
    std::vector<Tick> done;
    for (unsigned n = 0; n < 2; ++n) {
        ChanReq r = h.req(h.addrIn(0, n), ChanOp::Read);
        r.onDataDone = [&](Tick t) { done.push_back(t); };
        h.chan.enqueue(std::move(r));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 2u);
    // Close page: second ACT waits tRAS + tRP after the first.
    EXPECT_EQ(done[1] - done[0], nsToTicks(28 + 14));
}

TEST(ChannelTiming, DifferentBankReadsPipelineOnDq)
{
    ChannelHarness h{ChannelConfig{}};
    std::vector<Tick> done;
    for (unsigned b = 0; b < 4; ++b) {
        ChanReq r = h.req(h.addrIn(b), ChanOp::Read);
        r.onDataDone = [&](Tick t) { done.push_back(t); };
        h.chan.enqueue(std::move(r));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Limited by tRRD (2 ns) command spacing, then back-to-back DQ.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(done[i] - done[i - 1], nsToTicks(2));
}

TEST(ChannelTiming, ReadToWriteTurnaroundApplied)
{
    ChannelHarness h{ChannelConfig{}};
    Tick rd_done = 0, wr_done = 0;
    ChanReq r = h.req(h.addrIn(0), ChanOp::Read);
    r.onDataDone = [&](Tick t) { rd_done = t; };
    h.chan.enqueue(std::move(r));
    ChanReq w = h.req(h.addrIn(1), ChanOp::Write);
    w.onDataDone = [&](Tick t) { wr_done = t; };
    h.chan.enqueue(std::move(w));
    h.eq.run();
    // Write data must start >= read burst end + tRTW.
    EXPECT_GE(wr_done - nsToTicks(2), rd_done + nsToTicks(4));
    EXPECT_EQ(h.chan.turnarounds.value(), 1.0);
}

TEST(ChannelTiming, FourActivateWindowEnforced)
{
    ChannelHarness h{ChannelConfig{}};
    std::vector<Tick> done;
    for (unsigned b = 0; b < 5; ++b) {
        ChanReq r = h.req(h.addrIn(b), ChanOp::Read);
        r.onDataDone = [&](Tick t) { done.push_back(t); };
        h.chan.enqueue(std::move(r));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 5u);
    // The 5th ACT must wait for tXAW after the 1st (16 ns > 4*tRRD).
    const Tick act0_data = done[0];  // ACT at 0
    EXPECT_GE(done[4], act0_data - nsToTicks(32) + nsToTicks(16 + 32));
}

TEST(ChannelTiming, RefreshDelaysAccessAndDrainsFlush)
{
    ChannelConfig cfg = tdramCfg();
    cfg.refreshEnabled = true;
    AddressMap map(kCap, 1, 16, 1024);
    EventQueue eq;
    DramChannel chan(eq, "ch", cfg, map);
    std::map<Addr, TagResult> tags;
    chan.peekTags = [&](Addr a) {
        auto it = tags.find(lineAlign(a));
        return it != tags.end() ? it->second : TagResult{};
    };
    std::vector<Addr> drained;
    chan.onFlushArrive = [&](Addr a, Tick) { drained.push_back(a); };

    // Park a dirty victim in the flush buffer.
    TagResult md;
    md.valid = true;
    md.dirty = true;
    md.victimAddr = 13 * lineBytes;
    tags[0] = md;
    ChanReq w;
    w.id = 1;
    w.addr = 0;
    w.op = ChanOp::ActWr;
    chan.enqueue(std::move(w));
    eq.run(nsToTicks(100));
    ASSERT_EQ(chan.flushSize(), 1u);

    // Run past one refresh interval: the buffer drains during tRFC.
    eq.run(nsToTicks(3900 + 300));
    EXPECT_EQ(chan.refreshes.value(), 1.0);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 13 * lineBytes);
    EXPECT_EQ(chan.flushBuffer().drainedOnRefresh.value(), 1.0);
}

TEST(ChannelProbe, QueuedReadGetsEarlyResult)
{
    ChannelHarness h{tdramCfg()};
    // Two reads to the same bank: the second waits on the bank cycle
    // and becomes a probe target.
    const Addr a0 = h.addrIn(0, 0);
    const Addr a1 = h.addrIn(0, 1);
    h.setTag(a0, true, true, false, a0);
    h.setTag(a1, false, true, false, h.addrIn(0, 5));

    Tick hm1 = 0;
    bool via_probe = false;
    ChanReq r0 = h.req(a0, ChanOp::ActRd);
    h.chan.enqueue(std::move(r0));
    ChanReq r1 = h.req(a1, ChanOp::ActRd);
    r1.onTagResult = [&](Tick t, const TagResult &tr) {
        if (hm1 == 0) {
            hm1 = t;
            via_probe = tr.viaProbe;
        }
    };
    const std::uint64_t id1 = r1.id;
    h.chan.enqueue(std::move(r1));
    // Probe issues once the tag bank frees (tRC_TAG = 12 ns); its
    // result lands 15 ns later — well before the 42 ns bank cycle.
    h.eq.run(nsToTicks(41));

    // The probe fires in an idle CA/tag-bank slot well before the
    // bank cycle lets the MAIN ActRd issue (>= 42 ns).
    EXPECT_EQ(h.chan.probesIssued.value(), 1.0);
    ASSERT_GT(hm1, 0u);
    EXPECT_TRUE(via_probe);
    EXPECT_LT(hm1, nsToTicks(42));

    // The front-end can retire the probed miss-clean early.
    EXPECT_TRUE(h.chan.removeRead(id1));
    h.eq.run();
    EXPECT_EQ(h.chan.issuedActRd.value(), 1.0);
}

TEST(ChannelProbe, DisabledMeansNoProbes)
{
    ChannelConfig cfg = tdramCfg();
    cfg.enableProbe = false;
    ChannelHarness h{cfg};
    for (unsigned n = 0; n < 3; ++n) {
        const Addr a = h.addrIn(0, n);
        h.setTag(a, true, true, false, a);
        h.chan.enqueue(h.req(a, ChanOp::ActRd));
    }
    h.eq.run();
    EXPECT_EQ(h.chan.probesIssued.value(), 0.0);
}

TEST(ChannelQueue, RemoveReadSamplesQueueDelay)
{
    ChannelHarness h{tdramCfg()};
    const Addr a0 = h.addrIn(0, 0);
    const Addr a1 = h.addrIn(0, 1);
    h.setTag(a0, true, true, false, a0);
    h.setTag(a1, true, true, false, a1);
    h.chan.enqueue(h.req(a0, ChanOp::ActRd));
    ChanReq r1 = h.req(a1, ChanOp::ActRd);
    const std::uint64_t id = r1.id;
    h.chan.enqueue(std::move(r1));
    EXPECT_TRUE(h.chan.removeRead(id));
    EXPECT_FALSE(h.chan.removeRead(id));
    h.eq.run();
    EXPECT_EQ(h.chan.issuedActRd.value(), 1.0);
}

TEST(ChannelQueue, WriteDrainServicesAllWrites)
{
    ChannelConfig cfg;
    cfg.writeQCap = 16;
    cfg.writeHigh = 8;
    cfg.writeLow = 2;
    ChannelHarness h{cfg};
    unsigned writes_done = 0;
    for (unsigned n = 0; n < 12; ++n) {
        ChanReq w = h.req(h.addrIn(n % 16, n / 16), ChanOp::Write);
        w.onDataDone = [&](Tick) { ++writes_done; };
        h.chan.enqueue(std::move(w));
    }
    h.eq.run();
    EXPECT_EQ(writes_done, 12u);
    EXPECT_EQ(h.chan.issuedWrites.value(), 12.0);
}

// ---------------------------------------------------------------------
// Open-page policy: row-hit fast path, conflict penalty, FR-FCFS
// row-hit-first scheduling, and refresh closing rows.

ChannelConfig
openCfg()
{
    ChannelConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    return cfg;
}

/** An open-page channel; at() names a line by bank, row and column. */
struct OpenHarness : ChannelHarness
{
    OpenHarness() : ChannelHarness(openCfg()) {}

    /** Address with a given bank and row (col 0..15 inside a row). */
    Addr
    at(unsigned bank, std::uint64_t row, std::uint64_t col) const
    {
        // RoCoRaBaCh with 1 channel, 16 banks, 16 lines/row:
        // line = ((row * 16 + col) * 16 + bank)
        return ((row * 16 + col) * 16 + bank) * lineBytes;
    }

    Tick
    read(Addr a)
    {
        Tick done = 0;
        ChanReq r;
        r.id = nextId++;
        r.addr = a;
        r.op = ChanOp::Read;
        r.onDataDone = [&](Tick t) { done = t; };
        chan.enqueue(std::move(r));
        eq.run();
        return done;
    }
};

TEST(OpenPage, RowHitSkipsActivate)
{
    OpenHarness h;
    const Tick t1 = h.read(h.at(0, 5, 0));
    // First access: closed bank -> ACT + RD = tRCD + tCL + burst.
    EXPECT_EQ(t1, nsToTicks(12 + 18 + 2));
    const Tick t2 = h.read(h.at(0, 5, 1));
    // Same row: column op only = tCL + burst after issue.
    EXPECT_EQ(t2 - t1, nsToTicks(18 + 2));
    EXPECT_EQ(h.chan.rowHits.value(), 1.0);
    EXPECT_EQ(h.chan.dataBankActs.value(), 1.0);
}

TEST(OpenPage, RowConflictPaysPrecharge)
{
    OpenHarness h;
    h.read(h.at(0, 5, 0));
    Tick start = h.eq.curTick();
    const Tick t2 = h.read(h.at(0, 9, 0));  // different row
    // PRE + ACT + RD; the precharge also waits for tRAS from the
    // first activate (28 ns > elapsed 32 ns, so no extra wait).
    EXPECT_GE(t2 - start, nsToTicks(14 + 12 + 18 + 2));
    EXPECT_EQ(h.chan.rowConflicts.value(), 1.0);
}

TEST(OpenPage, FrFcfsPrefersRowHits)
{
    OpenHarness h;
    // Enqueue, back-to-back at t=0: a read opening row 3, an older
    // conflicting read (row 7), and a younger row-3 hit. FR-FCFS
    // must serve the younger row hit before the older conflict.
    std::vector<std::uint64_t> order;
    struct Spec
    {
        std::uint64_t row, col;
    };
    for (Spec s : {Spec{3, 0}, Spec{7, 0}, Spec{3, 1}}) {
        ChanReq r;
        r.id = s.row * 100 + s.col;
        r.addr = h.at(0, s.row, s.col);
        r.op = ChanOp::Read;
        r.onDataDone = [&order, row = s.row](Tick) {
            order.push_back(row);
        };
        h.chan.enqueue(std::move(r));
    }
    h.eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 3u);
    EXPECT_EQ(order[1], 3u);  // younger row hit jumps the conflict
    EXPECT_EQ(order[2], 7u);
}

TEST(OpenPage, SequentialStreamMostlyRowHits)
{
    OpenHarness h;
    unsigned done = 0;
    // One row holds 16 lines across... lines interleave banks first,
    // so walk a single bank's column space.
    for (std::uint64_t col = 0; col < 16; ++col) {
        ChanReq r;
        r.id = col;
        r.addr = h.at(2, 0, col);
        r.op = ChanOp::Read;
        r.onDataDone = [&](Tick) { ++done; };
        h.chan.enqueue(std::move(r));
    }
    h.eq.run();
    EXPECT_EQ(done, 16u);
    EXPECT_EQ(h.chan.dataBankActs.value(), 1.0);
    EXPECT_EQ(h.chan.rowHits.value(), 15.0);
}

TEST(OpenPage, RefreshClosesRows)
{
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    ChannelConfig cfg = openCfg();
    DramChannel chan(eq, "ch", cfg, map);
    Tick done = 0;
    ChanReq r;
    r.id = 1;
    r.addr = 0;
    r.op = ChanOp::Read;
    r.onDataDone = [&](Tick t) { done = t; };
    chan.enqueue(std::move(r));
    eq.run(nsToTicks(100));
    ASSERT_GT(done, 0u);
    // Run past a refresh; the open row must be closed afterwards:
    // the next same-row access re-activates.
    eq.run(nsToTicks(4300));
    const double acts_before = chan.dataBankActs.value();
    Tick done2 = 0;
    ChanReq r2;
    r2.id = 2;
    r2.addr = 0;
    r2.op = ChanOp::Read;
    r2.onDataDone = [&](Tick t) { done2 = t; };
    chan.enqueue(std::move(r2));
    eq.run(eq.curTick() + nsToTicks(200));
    EXPECT_GT(done2, 0u);
    EXPECT_EQ(chan.dataBankActs.value(), acts_before + 1.0);
    EXPECT_EQ(chan.rowHits.value(), 0.0);
}

TEST(OpenPage, ClosePageRemainsDefaultEverywhere)
{
    ChannelConfig cfg;
    EXPECT_EQ(cfg.pagePolicy, PagePolicy::Close);
    DramCacheConfig dcfg;
    EXPECT_EQ(dcfg.pagePolicy, PagePolicy::Close);
}

} // namespace
} // namespace tsim
