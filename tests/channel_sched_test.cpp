/**
 * @file
 * Pinned-output test of the incremental channel scheduler.
 *
 * Replays adversarial request streams — bursty arrivals, hot
 * banks/rows, write floods that trip the drain hysteresis, probe
 * retires via removeRead(), forced flush-buffer drains, and bursts
 * that land on the tick of a pending kick — through two channels, plus
 * one closed-loop stream through a single channel with a memory-only
 * TraceBuffer attached. Each run's observable output is reduced to
 * FNV-1a 64 digests: every completion callback (channel, kind, id,
 * tick, tag bits) and flush-buffer arrival in order, the full stats
 * dumps, and the number of events run. The digests must equal
 * constants recorded from the pre-rewrite O(n)-scan reference
 * scheduler, which the incremental scheduler matched byte for byte
 * until the reference copy was retired. Scripted runs pin the kicks
 * the scheduler skips.
 *
 * Covered: all four device kinds x both page policies. A mismatch
 * names the case and seed, prints the digests this build produced and
 * its stats dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dram/channel.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

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

/**
 * FNV-1a 64 digests of one run's observable output: the completion
 * log, the stats dump, and the event count (kept as a plain number).
 */
struct Digest
{
    std::uint64_t log;
    std::uint64_t stats;
    std::uint64_t events;
};

struct SchedParam
{
    const char *name;
    bool inDramTags;
    bool hmAtColumn;
    bool probe;
    PagePolicy page;
    Digest streams[3];  ///< replay() at seeds 11, 42, 1234
    Digest closedLoop;  ///< closedLoop() at seed 7
};

// Test listings print the case name, not the struct's raw bytes: those
// hold a string pointer that moves with every build and, under ASLR,
// every run, so the listed test names would never be stable.
void
PrintTo(const SchedParam &p, std::ostream *os)
{
    *os << p.name;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t
fnv1a(std::uint64_t h, std::string_view s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** ChannelConfig of one device kind, as the controllers set it up. */
ChannelConfig
kindConfig(const SchedParam &p)
{
    ChannelConfig cfg;
    cfg.refreshEnabled = true;
    cfg.pagePolicy = p.page;
    cfg.inDramTags = p.inDramTags;
    cfg.conditionalColumn = p.inDramTags;
    cfg.hmAtColumn = p.hmAtColumn;
    cfg.enableProbe = p.probe;
    cfg.hasFlushBuffer = p.inDramTags;
    cfg.opportunisticDrain = !p.hmAtColumn;
    return cfg;
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

/** What one run observed. */
struct ReplayResult
{
    std::vector<std::string> log;  ///< completions and flush arrivals
    std::string stats;             ///< every channel's stats dump
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
 * Compare @p r against @p want; on a mismatch, name the run (@p what),
 * print the digests it produced and its stats dump.
 */
void
expectPinned(const ReplayResult &r, const Digest &want,
             const std::string &what)
{
    std::uint64_t log = kFnvBasis;
    for (const std::string &e : r.log)
        log = fnv1a(fnv1a(log, e), "\n");
    const Digest got{log, fnv1a(kFnvBasis, r.stats), r.events};
    if (got.log == want.log && got.stats == want.stats &&
        got.events == want.events) {
        return;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "got {0x%016llx, 0x%016llx, %llu}, pinned "
                  "{0x%016llx, 0x%016llx, %llu}",
                  (unsigned long long)got.log,
                  (unsigned long long)got.stats,
                  (unsigned long long)got.events,
                  (unsigned long long)want.log,
                  (unsigned long long)want.stats,
                  (unsigned long long)want.events);
    ADD_FAILURE() << what << ": output differs from the pinned "
                  << "reference digest\n  " << buf << " ({log, stats, "
                  << "events}; " << r.log.size() << " log entries)\n"
                  << "stats dump:\n"
                  << r.stats;
}

/** Append a tag result, data completion or flush arrival to @p log. */
void
logTag(std::vector<std::string> &log, unsigned chan, std::uint64_t id,
       Tick t, const TagResult &tr)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%u tag %llu @%llu h%dv%dd%dp%d",
                  chan, (unsigned long long)id, (unsigned long long)t,
                  tr.hit, tr.valid, tr.dirty, tr.viaProbe);
    log.emplace_back(buf);
}

void
logData(std::vector<std::string> &log, unsigned chan, std::uint64_t id,
        Tick t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%u data %llu @%llu", chan,
                  (unsigned long long)id, (unsigned long long)t);
    log.emplace_back(buf);
}

void
logFlush(std::vector<std::string> &log, unsigned chan, Addr a, Tick t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%u flush %llx @%llu", chan,
                  (unsigned long long)a, (unsigned long long)t);
    log.emplace_back(buf);
}

void
dumpStats(const DramChannel &chan, std::ostream &os)
{
    StatGroup g(chan.name());
    chan.regStats(g);
    g.dump(os);
}

/**
 * Replay the stream through two channels on one event queue,
 * recording the full observable trace of both in one log. Both
 * channels often issue on the same tick; the shared log then also
 * pins the order of same-tick events across the channels, which a
 * kick run early or late within its tick would change.
 */
void
replay(const SchedParam &p, std::uint32_t seed, unsigned total,
       ReplayResult &res)
{
    std::vector<std::string> &log = res.log;
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    const ChannelConfig cfg = kindConfig(p);
    DramChannel chan0(eq, "ch0", cfg, map);
    DramChannel chan1(eq, "ch1", cfg, map);
    DramChannel *chans[2] = {&chan0, &chan1};

    for (unsigned c = 0; c < 2; ++c) {
        chans[c]->peekTags = [seed](Addr a) { return tagsFor(a, seed); };
        chans[c]->onFlushArrive = [&log, c](Addr a, Tick t) {
            logFlush(log, c, a, t);
        };
    }

    const std::vector<StreamItem> items =
        buildStream(seed, total, p.inDramTags);
    std::size_t next = 0;

    std::function<void()> arrive = [&] {
        while (next < items.size()) {
            const StreamItem &it = items[next];
            const unsigned c = it.chan;
            DramChannel &chan = *chans[c];
            if (it.write ? !chan.canAcceptWrite()
                         : !chan.canAcceptRead()) {
                ++res.fullRetries[c];
                eq.scheduleIn(200, [&] { arrive(); });
                return;
            }
            ChanReq r;
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
                    logTag(log, c, id, t, tr);
                    // Mirror the TDRAM front-end: a probe result of
                    // miss-clean retires the queued read early.
                    if (tr.viaProbe && !tr.hit &&
                        !(tr.valid && tr.dirty)) {
                        chan.removeRead(id);
                    }
                };
            }
            r.onDataDone = [&log, c, id = next](Tick t) {
                logData(log, c, id, t);
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
    auto busy = [&](const DramChannel &chan) {
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
    for (DramChannel *chan : chans)
        dumpStats(*chan, os);
    res.stats = os.str();
}

/**
 * Drive one channel closed-loop through @p total requests (35 %
 * writes over a hot 4 MiB set): a new request is offered whenever one
 * completes, so the queues stay full. @p tb is attached as the
 * channel's trace ring; recording must not change the output.
 */
void
closedLoop(const SchedParam &p, std::uint32_t seed, std::uint64_t total,
           TraceBuffer &tb, ReplayResult &res)
{
    std::vector<std::string> &log = res.log;
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    const ChannelConfig cfg = kindConfig(p);
    DramChannel chan(eq, "ch", cfg, map);
    chan.traceBuf = &tb;
    chan.peekTags = [seed](Addr a) { return tagsFor(a, seed); };
    chan.onFlushArrive = [&log](Addr a, Tick t) {
        logFlush(log, 0, a, t);
    };

    Rng rng(seed);
    std::uint64_t submitted = 0;
    std::function<void()> pump = [&] {
        while (submitted < total) {
            const bool is_write = rng.chance(0.35);
            if (is_write ? !chan.canAcceptWrite()
                         : !chan.canAcceptRead()) {
                break;
            }
            ChanReq r;
            r.id = submitted;
            r.addr = rng.range(4096) * lineBytes;
            if (p.inDramTags) {
                r.op = is_write ? ChanOp::ActWr : ChanOp::ActRd;
                r.onTagResult = [&log, &chan, id = submitted](
                                    Tick t, const TagResult &tr) {
                    logTag(log, 0, id, t, tr);
                    if (tr.viaProbe && !tr.hit &&
                        !(tr.valid && tr.dirty)) {
                        chan.removeRead(id);
                    }
                };
            } else {
                r.op = is_write ? ChanOp::Write : ChanOp::Read;
            }
            r.onDataDone = [&log, &pump, id = submitted](Tick t) {
                logData(log, 0, id, t);
                pump();
            };
            ++submitted;
            chan.enqueue(std::move(r));
        }
    };
    pump();

    const bool wait_flush = cfg.hasFlushBuffer && cfg.opportunisticDrain;
    Tick limit = nsToTicks(2000);
    while (submitted < total ||
           chan.readQSize() + chan.writeQSize() > 0 ||
           (wait_flush && chan.flushSize() > 0)) {
        res.events += eq.run(limit);
        pump();
        limit += nsToTicks(2000);
        ASSERT_LT(limit, nsToTicks(500000000)) << "closed loop hung";
    }
    res.events += eq.run(limit + nsToTicks(3000));

    std::ostringstream os;
    dumpStats(chan, os);
    res.stats = os.str();
}

class ChannelSched : public ::testing::TestWithParam<SchedParam>
{};

TEST_P(ChannelSched, MatchesReferenceScheduler)
{
    const SchedParam &p = GetParam();
    // 3000 items over two channels: about 1500 per channel, and each
    // write flood lands whole on one of them.
    const std::uint32_t seeds[] = {11u, 42u, 1234u};
    for (std::size_t i = 0; i < 3; ++i) {
        const std::uint32_t seed = seeds[i];
        ReplayResult now;
        replay(p, seed, 3000, now);
        expectPinned(now, p.streams[i],
                     std::string(p.name) + " seed " +
                         std::to_string(seed));
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

    Tracer tracer("", 1, 4096);
    ReplayResult loop;
    closedLoop(p, 7, 4000, tracer.buffer(0), loop);
    expectPinned(loop, p.closedLoop,
                 std::string(p.name) + " closed loop seed 7");
    EXPECT_GT(tracer.buffer(0).size(), 0u) << "nothing was traced";
}

/** One scripted request: its direction and target bank. */
struct Scripted
{
    bool write;
    unsigned bank;
};

/**
 * Enqueue @p waves into one channel: wave i from a single event at
 * i ns, each request to a fresh line of its bank. Reads carry a tag
 * callback when the device checks tags in DRAM. @return the run, and
 * in @p last_wave_kicks the kicks the last wave ran.
 */
ReplayResult
runScript(const ChannelConfig &cfg,
          const std::vector<std::vector<Scripted>> &waves,
          std::uint64_t &last_wave_kicks)
{
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    DramChannel chan(eq, "ch", cfg, map);
    chan.peekTags = [](Addr a) { return tagsFor(a, 7); };

    ReplayResult res;
    std::uint64_t id = 0;
    for (std::size_t w = 0; w < waves.size(); ++w) {
        eq.schedule(nsToTicks(w), [&, w] {
            const std::uint64_t before = chan.hostKicks;
            for (const Scripted &sr : waves[w]) {
                ChanReq r;
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
            last_wave_kicks = chan.hostKicks - before;
        });
    }
    res.events = eq.run();
    EXPECT_EQ(chan.readQSize() + chan.writeQSize(), 0u);

    std::ostringstream os;
    dumpStats(chan, os);
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
    std::uint64_t kicks = 0;
    const ReplayResult now = runScript(cfg, waves, kicks);
    // The first read finds no kick pending and runs the scheduler;
    // the other seven cannot issue before that kick and are skipped.
    EXPECT_EQ(kicks, 1u);
    // The reference scheduler kicked on every enqueue and counted each
    // queued read whose tag bank is busy every time: 1 + 2 + ... + 8 =
    // 36 during the burst alone. The skips must count exactly as much.
    const std::string key = "ch.probe_bank_conflicts ";
    const std::size_t at = now.stats.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stoul(now.stats.substr(at + key.size())), 36u);
    expectPinned(now, {kFnvBasis, 0xd1d612e5a1b164b7ULL, 31},
                 "busy-bank burst");
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
    std::uint64_t kicks = 0;
    expectPinned(runScript(cfg, waves, kicks),
                 {kFnvBasis, 0x3524d894495e9f4aULL, 51},
                 "drain-starting write");
}

// Digests {log, stats, events}, recorded from the reference scheduler.
// The in-DRAM-tag kinds issue ActRd/ActWr, which close the row
// themselves, so their two page policies produce the same output.
INSTANTIATE_TEST_SUITE_P(
    KindsAndPolicies, ChannelSched,
    ::testing::Values(
        SchedParam{"conventional_close", false, false, false,
                   PagePolicy::Close,
                   {{0xc94cc56d629e960cULL, 0xea26abd1d78a16f1ULL, 32208},
                    {0x4188bba5999b5330ULL, 0x7f5ac1f472ecb451ULL, 30381},
                    {0x0c8e09e81948cc22ULL, 0xa689614c48213359ULL, 32582}},
                   {0x60a52dbab9be5b57ULL, 0x8d8fe8c49088b8c2ULL, 8049}},
        SchedParam{"conventional_open", false, false, false,
                   PagePolicy::Open,
                   {{0x94bbedba204d8968ULL, 0xe16ca500ef96022aULL, 132804},
                    {0x4f08596574481796ULL, 0xd5ac9e5ce618585bULL, 130239},
                    {0xb4106784468c113eULL, 0xc84e33c4f09dc48cULL, 128742}},
                   {0x2b36c360b2471ea9ULL, 0xbfc5c2593b684b66ULL, 8069}},
        SchedParam{"ndc_close", true, true, false, PagePolicy::Close,
                   {{0xfd92a24432ddc322ULL, 0xf2929fea50e6eea8ULL, 36457},
                    {0x355d95ad315b8392ULL, 0xcc0a9d38047f8cafULL, 33802},
                    {0x8d18a4cb9e46c07fULL, 0x22625c76589f453eULL, 32975}},
                   {0x76442db7a5212ff2ULL, 0xf57e8b11402b7d14ULL, 12705}},
        SchedParam{"ndc_open", true, true, false, PagePolicy::Open,
                   {{0xfd92a24432ddc322ULL, 0xf2929fea50e6eea8ULL, 36457},
                    {0x355d95ad315b8392ULL, 0xcc0a9d38047f8cafULL, 33802},
                    {0x8d18a4cb9e46c07fULL, 0x22625c76589f453eULL, 32975}},
                   {0x76442db7a5212ff2ULL, 0xf57e8b11402b7d14ULL, 12705}},
        SchedParam{"tdram_close", true, false, true, PagePolicy::Close,
                   {{0x739a5cbfa465f431ULL, 0x9a0c816f1d2de907ULL, 31366},
                    {0x157a65811d9f9db3ULL, 0x7aa5ab4870b94a96ULL, 29631},
                    {0xf8cb6a569fbec38cULL, 0xd0cc1cf35dc8a58dULL, 29973}},
                   {0x6be8e20ef989dbe7ULL, 0xa36c58bfc316094dULL, 14221}},
        SchedParam{"tdram_open", true, false, true, PagePolicy::Open,
                   {{0x739a5cbfa465f431ULL, 0x9a0c816f1d2de907ULL, 31366},
                    {0x157a65811d9f9db3ULL, 0x7aa5ab4870b94a96ULL, 29631},
                    {0xf8cb6a569fbec38cULL, 0xd0cc1cf35dc8a58dULL, 29973}},
                   {0x6be8e20ef989dbe7ULL, 0xa36c58bfc316094dULL, 14221}},
        SchedParam{"tdram_noprobe_close", true, false, false,
                   PagePolicy::Close,
                   {{0xf6dd5d3d27011f43ULL, 0xf384ad69ec50b410ULL, 35970},
                    {0x64afd0af562a6dc2ULL, 0xdd9a2ba4ce941871ULL, 33443},
                    {0xb16646fe6f740908ULL, 0x3ed9538a8f195090ULL, 32633}},
                   {0x3d15b63ef1e2c294ULL, 0x478466443a0c807bULL, 12637}},
        SchedParam{"tdram_noprobe_open", true, false, false,
                   PagePolicy::Open,
                   {{0xf6dd5d3d27011f43ULL, 0xf384ad69ec50b410ULL, 35970},
                    {0x64afd0af562a6dc2ULL, 0xdd9a2ba4ce941871ULL, 33443},
                    {0xb16646fe6f740908ULL, 0x3ed9538a8f195090ULL, 32633}},
                   {0x3d15b63ef1e2c294ULL, 0x478466443a0c807bULL, 12637}}),
    [](const ::testing::TestParamInfo<SchedParam> &pi) {
        return std::string(pi.param.name);
    });

} // namespace
} // namespace tsim
