/**
 * @file
 * Differential test of the incremental channel scheduler.
 *
 * Replays identical adversarial request streams — bursty arrivals,
 * hot banks/rows, write floods that trip the drain hysteresis, probe
 * retires via removeRead() — through the frozen reference scheduler
 * (tests/legacy_channel.*, the pre-rewrite O(n)-scan implementation)
 * and the production incremental one, and demands a byte-identical
 * observable trace: every completion callback (kind, id, tick, tag
 * bits), every flush-buffer arrival, and the full stats dump.
 *
 * Covered: all four device kinds x both page policies.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "legacy_channel.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

constexpr std::uint64_t kCap = 1ULL << 24;

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
};

/**
 * Build the adversarial stream for @p seed: bursts (gap 0) mixed with
 * idle gaps, write floods that push the queue past writeHigh, and a
 * small row/bank working set with address reuse for conflicts.
 */
std::vector<StreamItem>
buildStream(std::uint32_t seed, unsigned total, bool in_dram_tags)
{
    Rng rng(seed);
    std::vector<StreamItem> items(total);
    unsigned flood = 0;  // remaining items of a write flood
    Addr last = 0;
    for (unsigned i = 0; i < total; ++i) {
        StreamItem &it = items[i];
        if (flood == 0 && rng.chance(0.03))
            flood = 40 + static_cast<unsigned>(rng.range(40));
        if (flood > 0) {
            --flood;
            it.write = rng.chance(0.9);
        } else {
            it.write = rng.chance(0.3);
        }
        it.gap = rng.chance(0.6)
                     ? 0
                     : static_cast<Tick>(rng.range(5000));
        if (rng.chance(0.15)) {
            it.addr = last;  // same-line reuse
        } else {
            it.addr = rng.range(4096) * lineBytes;  // hot 4 MiB set
        }
        last = it.addr;
        it.wantTag = in_dram_tags && rng.chance(0.9);
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

/**
 * Replay the stream through a channel of type @p ChanT (with request
 * type @p ReqT), recording the full observable trace.
 */
template <typename ChanT, typename ReqT>
void
replay(const SchedParam &p, std::uint32_t seed, unsigned total,
       std::vector<std::string> &log, std::string &stats)
{
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
    ChanT chan(eq, "ch", cfg, map);

    chan.peekTags = [seed](Addr a) { return tagsFor(a, seed); };
    chan.onFlushArrive = [&](Addr a, Tick t) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "flush %llx @%llu",
                      (unsigned long long)a, (unsigned long long)t);
        log.emplace_back(buf);
    };

    const std::vector<StreamItem> items =
        buildStream(seed, total, p.inDramTags);
    std::size_t next = 0;

    std::function<void()> arrive = [&] {
        while (next < items.size()) {
            const StreamItem &it = items[next];
            if (it.write ? !chan.canAcceptWrite()
                         : !chan.canAcceptRead()) {
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
                r.onTagResult = [&, id = next](Tick t,
                                               const TagResult &tr) {
                    char buf[96];
                    std::snprintf(
                        buf, sizeof(buf), "tag %llu @%llu h%dv%dd%dp%d",
                        (unsigned long long)id, (unsigned long long)t,
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
            r.onDataDone = [&, id = next](Tick t) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "data %llu @%llu",
                              (unsigned long long)id,
                              (unsigned long long)t);
                log.emplace_back(buf);
            };
            const Tick gap = it.gap;
            ++next;
            chan.enqueue(std::move(r));
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
    Tick limit = nsToTicks(2000);
    while (next < items.size() ||
           chan.readQSize() + chan.writeQSize() > 0 ||
           (wait_flush && chan.flushSize() > 0)) {
        eq.run(limit);
        limit += nsToTicks(2000);
        ASSERT_LT(limit, nsToTicks(500000000)) << "replay hung";
    }
    eq.run(limit + nsToTicks(3000));  // trailing completions

    StatGroup g("ch");
    chan.regStats(g);
    std::ostringstream os;
    g.dump(os);
    stats = os.str();
}

class ChannelSched : public ::testing::TestWithParam<SchedParam>
{};

TEST_P(ChannelSched, MatchesReferenceScheduler)
{
    const SchedParam p = GetParam();
    for (std::uint32_t seed : {11u, 42u, 1234u}) {
        std::vector<std::string> log_new, log_ref;
        std::string stats_new, stats_ref;
        replay<DramChannel, ChanReq>(p, seed, 1500, log_new,
                                     stats_new);
        replay<LegacyDramChannel, LegacyChanReq>(p, seed, 1500,
                                                 log_ref, stats_ref);

        ASSERT_EQ(log_new.size(), log_ref.size())
            << "trace length diverged (seed " << seed << ")";
        for (std::size_t i = 0; i < log_new.size(); ++i) {
            ASSERT_EQ(log_new[i], log_ref[i])
                << "trace diverged at entry " << i << " (seed "
                << seed << ")";
        }
        EXPECT_EQ(stats_new, stats_ref)
            << "stats diverged (seed " << seed << ")";
    }
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
