/**
 * @file
 * Randomized stress tests of the DRAM channel: under thousands of
 * random requests, the DQ bus is never double-booked, every request
 * completes exactly once, and the flush buffer respects capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "dram/channel.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

constexpr std::uint64_t kCap = 1ULL << 24;

/** Sweep over device kinds. */
struct StressParam
{
    const char *name;
    bool inDramTags;
    bool hmAtColumn;
    bool probe;
};

// Test listings print the case name, not the struct's raw bytes: those
// hold a string pointer that moves with every build and, under ASLR,
// every run, so the listed test names would never be stable.
void
PrintTo(const StressParam &p, std::ostream *os)
{
    *os << p.name;
}

class ChannelStress : public ::testing::TestWithParam<StressParam>
{};

TEST_P(ChannelStress, ThousandsOfRandomRequests)
{
    const StressParam p = GetParam();
    EventQueue eq;
    AddressMap map(kCap, 1, 16, 1024);
    ChannelConfig cfg;
    cfg.refreshEnabled = true;
    cfg.inDramTags = p.inDramTags;
    cfg.conditionalColumn = p.inDramTags;
    cfg.hmAtColumn = p.hmAtColumn;
    cfg.enableProbe = p.probe;
    cfg.hasFlushBuffer = p.inDramTags;
    cfg.opportunisticDrain = !p.hmAtColumn;
    DramChannel chan(eq, "ch", cfg, map);

    // Functional tag state: random but fixed per line.
    Rng tag_rng(99);
    std::map<Addr, TagResult> tags;
    chan.peekTags = [&](Addr a) {
        a = lineAlign(a);
        auto it = tags.find(a);
        if (it == tags.end()) {
            TagResult t;
            t.valid = tag_rng.chance(0.9);
            t.hit = t.valid && tag_rng.chance(0.5);
            t.dirty = t.valid && tag_rng.chance(0.4);
            t.victimAddr = t.hit ? a : (a ^ (kCap / 2));
            it = tags.emplace(a, t).first;
        }
        return it->second;
    };
    unsigned flushed = 0;
    chan.onFlushArrive = [&](Addr, Tick) { ++flushed; };

    Rng rng(p.inDramTags ? 7u : 13u);
    const unsigned total = 2000;
    unsigned submitted = 0, data_done = 0, tag_done = 0;
    std::vector<Tick> transfer_ends;

    std::function<void()> pump = [&] {
        while (submitted < total) {
            const bool is_write = rng.chance(0.4);
            if (is_write ? !chan.canAcceptWrite()
                         : !chan.canAcceptRead()) {
                break;
            }
            ChanReq r;
            r.id = submitted;
            r.addr = rng.range(kCap / lineBytes) * lineBytes;
            if (p.inDramTags) {
                r.op = is_write ? ChanOp::ActWr : ChanOp::ActRd;
                r.onTagResult = [&](Tick, const TagResult &) {
                    ++tag_done;
                };
            } else {
                r.op = is_write ? ChanOp::Write : ChanOp::Read;
            }
            r.onDataDone = [&](Tick t) {
                ++data_done;
                transfer_ends.push_back(t);
                pump();
            };
            ++submitted;
            chan.enqueue(std::move(r));
        }
    };
    pump();

    // Drive until quiescent (refresh events persist; bound the run).
    Tick limit = nsToTicks(1000);
    while (submitted < total ||
           chan.readQSize() + chan.writeQSize() > 0) {
        eq.run(limit);
        pump();
        limit += nsToTicks(1000);
        ASSERT_LT(limit, nsToTicks(500000000)) << "stress run hung";
    }
    eq.run(limit + nsToTicks(2000));  // drain trailing events

    EXPECT_EQ(submitted, total);
    // Every conventional request transfers data; in-DRAM reads may
    // legally skip the transfer on miss-clean.
    if (!p.inDramTags) {
        EXPECT_EQ(data_done, total);
    } else {
        EXPECT_GT(data_done, total / 4);
        if (p.probe) {
            // Probed requests legally report twice (probe + MAIN HM).
            EXPECT_GE(tag_done, total);
        } else {
            EXPECT_EQ(tag_done, total);
        }
    }

    // The DQ bus must never be double-booked: all transfer ends are
    // at least one burst apart (equal-length bursts on this config).
    std::sort(transfer_ends.begin(), transfer_ends.end());
    for (std::size_t i = 1; i < transfer_ends.size(); ++i) {
        ASSERT_GE(transfer_ends[i] - transfer_ends[i - 1],
                  cfg.timing.dataBurst())
            << "overlapping DQ transfers at index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ChannelStress,
    ::testing::Values(
        StressParam{"conventional", false, false, false},
        StressParam{"ndc", true, true, false},
        StressParam{"tdram", true, false, true},
        StressParam{"tdram_noprobe", true, false, false}),
    [](const ::testing::TestParamInfo<StressParam> &pi) {
        return std::string(pi.param.name);
    });

} // namespace
} // namespace tsim
