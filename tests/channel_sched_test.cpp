/**
 * @file
 * Differential test of the incremental channel scheduler.
 *
 * Replays identical adversarial request streams — bursty arrivals,
 * hot banks/rows, write floods that trip the drain hysteresis, probe
 * retires via removeRead(), forced flush-buffer drains, and bursts
 * that land on the tick of a pending kick — through two channels of
 * the frozen reference scheduler (tests/legacy_channel.*, the
 * pre-rewrite O(n)-scan implementation) and of the production one,
 * and demands a byte-identical observable trace: every completion
 * callback (channel, kind, id, tick, tag bits) in order, every
 * flush-buffer arrival, the full stats dumps and the number of events
 * run. Scripted runs pin the kicks the production scheduler skips.
 *
 * Covered: all four device kinds x both page policies.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dram/channel.hh"
#include "legacy_channel.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

constexpr std::uint64_t kCap = 1ULL << 24;

/**
 * Every DRAM timing is a whole multiple of this many ticks, and so is
 * every kick tick. Half of the stream's gaps are whole grid steps, so
 * bursts often start on the exact tick of a pending kick, before or
 * after it fires; the other half fall anywhere, between grid ticks.
 */
constexpr Tick kGrid = 250;

struct SchedParam
{
    const char *name;
    bool inDramTags;
    bool hmAtColumn;
    bool probe;
    PagePolicy page;
};

// Test listings print the case name, not the struct's raw bytes: those
// hold a string pointer that moves with every build and, under ASLR,
// every run, so the listed test names would never be stable.
void
PrintTo(const SchedParam &p, std::ostream *os)
{
    *os << p.name;
}

/** One pre-generated request, independent of any channel state. */
struct StreamItem
{
    Tick gap = 0;      ///< delay before trying the next arrival
    bool write = false;
    Addr addr = 0;
    bool wantTag = false;
    bool forceDrain = false;  ///< forceDrain() before this arrival
    unsigned chan = 0;        ///< target channel (0 or 1)
};

/**
 * Build the adversarial stream for @p seed: bursts (gap 0) mixed with
 * idle gaps on and off the kick grid, write floods that push one
 * channel's queue past writeHigh, a small row/bank working set with
 * address reuse for conflicts, and occasional forced flush-buffer
 * drains on the in-DRAM-tag kinds. Each flood goes whole to one
 * channel; other items go to either channel at random.
 */
std::vector<StreamItem>
buildStream(std::uint32_t seed, unsigned total, bool in_dram_tags)
{
    Rng rng(seed);
    std::vector<StreamItem> items(total);
    unsigned flood = 0;  // remaining items of a write flood
    unsigned flood_chan = 0;
    Addr last = 0;
    for (unsigned i = 0; i < total; ++i) {
        StreamItem &it = items[i];
        if (flood == 0 && rng.chance(0.03)) {
            flood = 40 + static_cast<unsigned>(rng.range(40));
            flood_chan = rng.chance(0.5) ? 1u : 0u;
        }
        if (flood > 0) {
            --flood;
            it.write = rng.chance(0.9);
            it.chan = flood_chan;
        } else {
            it.write = rng.chance(0.3);
            it.chan = rng.chance(0.5) ? 1u : 0u;
        }
        if (rng.chance(0.4)) {
            it.gap = rng.chance(0.5)
                         ? kGrid * static_cast<Tick>(1 + rng.range(20))
                         : static_cast<Tick>(rng.range(5000));
        }
        if (rng.chance(0.15)) {
            it.addr = last;  // same-line reuse
        } else {
            it.addr = rng.range(4096) * lineBytes;  // hot 4 MiB set
        }
        last = it.addr;
        it.wantTag = in_dram_tags && rng.chance(0.9);
        it.forceDrain = in_dram_tags && rng.chance(0.02);
    }
    return items;
}

/** Deterministic per-line tag state, independent of lookup order. */
TagResult
tagsFor(Addr a, std::uint32_t seed)
{
    Rng r(seed ^ (static_cast<std::uint32_t>(a / lineBytes) *
                  2654435761u));
    TagResult t;
    t.valid = r.chance(0.9);
    t.hit = t.valid && r.chance(0.5);
    t.dirty = t.valid && r.chance(0.4);
    t.victimAddr = t.hit ? lineAlign(a) : (lineAlign(a) ^ (kCap / 2));
    return t;
}

/** What one replay observed. */
struct ReplayResult
{
    std::vector<std::string> log;  ///< completions and flush arrivals
    std::string stats;             ///< both channels' stats dumps
    std::uint64_t events = 0;      ///< events run
    /**
     * Per channel: enqueues that left its write queue at or past
     * writeHigh. Each such enqueue runs a kick in write-drain mode.
     */
    unsigned drainKicks[2] = {0, 0};
    /** Per channel: arrivals held back by a full queue. */
    unsigned fullRetries[2] = {0, 0};
};

/**
 * Replay the stream through two channels of type @p ChanT (with
 * request type @p ReqT) on one event queue, recording the full
 * observable trace of both in one log. Both channels often issue on
 * the same tick; the shared log then also pins the order of same-tick
 * events across the channels, which a kick run early or late within
 * its tick would change.
 */
template <typename ChanT, typename ReqT>
void
replay(const SchedParam &p, std::uint32_t seed, unsigned total,
       ReplayResult &res)
{
    std::vector<std::string> &log = res.log;
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    ChannelConfig cfg;
    cfg.refreshEnabled = true;
    cfg.pagePolicy = p.page;
    cfg.inDramTags = p.inDramTags;
    cfg.conditionalColumn = p.inDramTags;
    cfg.hmAtColumn = p.hmAtColumn;
    cfg.enableProbe = p.probe;
    cfg.hasFlushBuffer = p.inDramTags;
    cfg.opportunisticDrain = !p.hmAtColumn;
    ChanT chan0(eq, "ch0", cfg, map);
    ChanT chan1(eq, "ch1", cfg, map);
    ChanT *chans[2] = {&chan0, &chan1};

    for (unsigned c = 0; c < 2; ++c) {
        chans[c]->peekTags = [seed](Addr a) { return tagsFor(a, seed); };
        chans[c]->onFlushArrive = [&log, c](Addr a, Tick t) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%u flush %llx @%llu", c,
                          (unsigned long long)a, (unsigned long long)t);
            log.emplace_back(buf);
        };
    }

    const std::vector<StreamItem> items =
        buildStream(seed, total, p.inDramTags);
    std::size_t next = 0;

    std::function<void()> arrive = [&] {
        while (next < items.size()) {
            const StreamItem &it = items[next];
            const unsigned c = it.chan;
            ChanT &chan = *chans[c];
            if (it.write ? !chan.canAcceptWrite()
                         : !chan.canAcceptRead()) {
                ++res.fullRetries[c];
                eq.scheduleIn(200, [&] { arrive(); });
                return;
            }
            ReqT r;
            r.id = next;
            r.addr = it.addr;
            if (p.inDramTags) {
                r.op = it.write ? ChanOp::ActWr : ChanOp::ActRd;
            } else {
                r.op = it.write ? ChanOp::Write : ChanOp::Read;
            }
            if (it.wantTag) {
                r.onTagResult = [&log, &chan, c, id = next](
                                    Tick t, const TagResult &tr) {
                    char buf[96];
                    std::snprintf(
                        buf, sizeof(buf), "%u tag %llu @%llu h%dv%dd%dp%d",
                        c, (unsigned long long)id, (unsigned long long)t,
                        tr.hit, tr.valid, tr.dirty, tr.viaProbe);
                    log.emplace_back(buf);
                    // Mirror the TDRAM front-end: a probe result of
                    // miss-clean retires the queued read early.
                    if (tr.viaProbe && !tr.hit &&
                        !(tr.valid && tr.dirty)) {
                        chan.removeRead(id);
                    }
                };
            }
            r.onDataDone = [&log, c, id = next](Tick t) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%u data %llu @%llu", c,
                              (unsigned long long)id,
                              (unsigned long long)t);
                log.emplace_back(buf);
            };
            const Tick gap = it.gap;
            ++next;
            if (it.forceDrain)
                chan.forceDrain();
            chan.enqueue(std::move(r));
            if (chan.writeQSize() >= cfg.writeHigh)
                ++res.drainKicks[c];
            if (gap > 0) {
                if (next < items.size())
                    eq.scheduleIn(gap, [&] { arrive(); });
                return;
            }
        }
    };
    arrive();

    // NDC's victim buffer drains only via forced RES when full, so
    // residual entries are expected to stay put; only wait for a
    // clean flush buffer on opportunistically-draining devices.
    const bool wait_flush = cfg.hasFlushBuffer && cfg.opportunisticDrain;
    auto busy = [&](const ChanT &chan) {
        return chan.readQSize() + chan.writeQSize() > 0 ||
               (wait_flush && chan.flushSize() > 0);
    };
    Tick limit = nsToTicks(2000);
    while (next < items.size() || busy(chan0) || busy(chan1)) {
        res.events += eq.run(limit);
        limit += nsToTicks(2000);
        ASSERT_LT(limit, nsToTicks(500000000)) << "replay hung";
    }
    res.events += eq.run(limit + nsToTicks(3000));  // trailing completions

    std::ostringstream os;
    for (ChanT *chan : chans) {
        StatGroup g(chan->name());
        chan->regStats(g);
        g.dump(os);
    }
    res.stats = os.str();
}

class ChannelSched : public ::testing::TestWithParam<SchedParam>
{};

TEST_P(ChannelSched, MatchesReferenceScheduler)
{
    const SchedParam p = GetParam();
    // 3000 items over two channels: about 1500 per channel, and each
    // write flood lands whole on one of them.
    for (std::uint32_t seed : {11u, 42u, 1234u}) {
        ReplayResult now, ref;
        replay<DramChannel, ChanReq>(p, seed, 3000, now);
        replay<LegacyDramChannel, LegacyChanReq>(p, seed, 3000, ref);

        ASSERT_EQ(now.log.size(), ref.log.size())
            << "trace length diverged (seed " << seed << ")";
        for (std::size_t i = 0; i < now.log.size(); ++i) {
            ASSERT_EQ(now.log[i], ref.log[i])
                << "trace diverged at entry " << i << " (seed "
                << seed << ")";
        }
        EXPECT_EQ(now.stats, ref.stats)
            << "stats diverged (seed " << seed << ")";
        // Skipped kicks leave every kick event in place, so an extra
        // or missing event means a wake-up moved.
        EXPECT_EQ(now.events, ref.events)
            << "event count diverged (seed " << seed << ")";
        // The stream must keep exercising the write-drain and
        // queue-full paths on both channels.
        for (unsigned c = 0; c < 2; ++c) {
            EXPECT_GT(now.drainKicks[c], 0u)
                << "channel " << c << " never drained (seed " << seed
                << ")";
            EXPECT_GT(now.fullRetries[c], 0u)
                << "channel " << c << " never filled (seed " << seed
                << ")";
        }
    }
}

/** One scripted request: its direction and target bank. */
struct Scripted
{
    bool write;
    unsigned bank;
};

/** What a scripted run leaves behind. */
struct ScriptResult
{
    std::string stats;
    std::uint64_t events = 0;
    std::uint64_t lastWaveKicks = 0;  ///< DramChannel only
};

/**
 * Enqueue @p waves into one channel of type @p ChanT: wave i from a
 * single event at i ns, each request to a fresh line of its bank.
 * Reads carry a tag callback when the device checks tags in DRAM.
 */
template <typename ChanT, typename ReqT>
ScriptResult
runScript(const ChannelConfig &cfg,
          const std::vector<std::vector<Scripted>> &waves)
{
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    ChanT chan(eq, "ch", cfg, map);
    chan.peekTags = [](Addr a) { return tagsFor(a, 7); };

    ScriptResult res;
    std::uint64_t id = 0;
    for (std::size_t w = 0; w < waves.size(); ++w) {
        eq.schedule(nsToTicks(w), [&, w] {
            std::uint64_t before = 0;
            if constexpr (std::is_same_v<ChanT, DramChannel>)
                before = chan.hostKicks;
            for (const Scripted &sr : waves[w]) {
                ReqT r;
                r.id = id;
                r.addr = (16 * ++id + sr.bank) * lineBytes;
                if (cfg.inDramTags) {
                    r.op = sr.write ? ChanOp::ActWr : ChanOp::ActRd;
                    if (!sr.write)
                        r.onTagResult = [](Tick, const TagResult &) {};
                } else {
                    r.op = sr.write ? ChanOp::Write : ChanOp::Read;
                }
                chan.enqueue(std::move(r));
            }
            if constexpr (std::is_same_v<ChanT, DramChannel>)
                res.lastWaveKicks = chan.hostKicks - before;
        });
    }
    res.events = eq.run();
    EXPECT_EQ(chan.readQSize() + chan.writeQSize(), 0u);

    StatGroup g("ch");
    chan.regStats(g);
    std::ostringstream os;
    g.dump(os);
    res.stats = os.str();
    return res;
}

TEST(ChannelSkip, BurstIntoBusyBankRunsOneKick)
{
    // TDRAM: one read into bank 0 issues at once and keeps the bank
    // (and its tag mats) busy; eight more reads into bank 0 follow
    // from one event at 1 ns.
    ChannelConfig cfg;
    cfg.refreshEnabled = false;
    cfg.inDramTags = true;
    cfg.conditionalColumn = true;
    cfg.enableProbe = true;
    cfg.hasFlushBuffer = true;
    const std::vector<std::vector<Scripted>> waves = {
        {{false, 0}}, std::vector<Scripted>(8, Scripted{false, 0})};
    const ScriptResult now = runScript<DramChannel, ChanReq>(cfg, waves);
    const ScriptResult ref =
        runScript<LegacyDramChannel, LegacyChanReq>(cfg, waves);
    // The first read finds no kick pending and runs the scheduler;
    // the other seven cannot issue before that kick and are skipped.
    EXPECT_EQ(now.lastWaveKicks, 1u);
    // The reference kicks on every enqueue and counts each queued read
    // whose tag bank is busy every time: 1 + 2 + ... + 8 = 36 during
    // the burst alone. The skips must count exactly as much.
    const std::string key = "ch.probe_bank_conflicts ";
    const std::size_t at = ref.stats.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stoul(ref.stats.substr(at + key.size())), 36u);
    EXPECT_EQ(now.stats, ref.stats);
    EXPECT_EQ(now.events, ref.events);
}

TEST(ChannelSkip, WriteThatStartsDrainIsNotSkipped)
{
    // A write into busy bank 0, then 48 more from one event at 1 ns:
    // the 48th reaches writeHigh and must switch to write drain even
    // though nothing can issue. A read into bank 1, held by tRRD until
    // 2 ns, then arrives; in drain mode it must not pull in a kick.
    ChannelConfig cfg;
    cfg.refreshEnabled = false;
    std::vector<Scripted> burst(cfg.writeHigh, Scripted{true, 0});
    burst.push_back({false, 1});
    const std::vector<std::vector<Scripted>> waves = {{{true, 0}},
                                                      burst};
    const ScriptResult now = runScript<DramChannel, ChanReq>(cfg, waves);
    const ScriptResult ref =
        runScript<LegacyDramChannel, LegacyChanReq>(cfg, waves);
    EXPECT_EQ(now.stats, ref.stats);
    EXPECT_EQ(now.events, ref.events);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndPolicies, ChannelSched,
    ::testing::Values(
        SchedParam{"conventional_close", false, false, false,
                   PagePolicy::Close},
        SchedParam{"conventional_open", false, false, false,
                   PagePolicy::Open},
        SchedParam{"ndc_close", true, true, false, PagePolicy::Close},
        SchedParam{"ndc_open", true, true, false, PagePolicy::Open},
        SchedParam{"tdram_close", true, false, true,
                   PagePolicy::Close},
        SchedParam{"tdram_open", true, false, true, PagePolicy::Open},
        SchedParam{"tdram_noprobe_close", true, false, false,
                   PagePolicy::Close},
        SchedParam{"tdram_noprobe_open", true, false, false,
                   PagePolicy::Open}),
    [](const ::testing::TestParamInfo<SchedParam> &pi) {
        return std::string(pi.param.name);
    });

} // namespace
} // namespace tsim
