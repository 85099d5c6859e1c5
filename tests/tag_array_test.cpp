/**
 * @file
 * Unit and property tests for the functional tag array (direct-
 * mapped and set-associative with LRU).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.hh"
#include "tdram/tag_array.hh"

namespace tsim
{
namespace
{

constexpr std::uint64_t kCap = 1 << 16;  // 1024 lines

TEST(TagArray, MissOnEmpty)
{
    TagArray t(kCap);
    TagResult r = t.peek(0x1000);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.valid);
    EXPECT_FALSE(r.dirty);
}

TEST(TagArray, InstallThenHit)
{
    TagArray t(kCap);
    t.install(0x1000, false);
    TagResult r = t.peek(0x1000);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.valid);
    EXPECT_FALSE(r.dirty);
    EXPECT_EQ(r.victimAddr, 0x1000u);
}

TEST(TagArray, DirectMappedConflictReportsVictim)
{
    TagArray t(kCap, 1);
    const Addr a = 0x0;
    const Addr b = a + kCap;  // same set, different tag
    t.install(a, true);
    TagResult r = t.peek(b);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.valid);
    EXPECT_TRUE(r.dirty);
    EXPECT_EQ(r.victimAddr, a);
    t.install(b, false);
    EXPECT_FALSE(t.peek(a).hit);
    EXPECT_TRUE(t.peek(b).hit);
}

TEST(TagArray, DirtyTracking)
{
    TagArray t(kCap);
    t.install(0x40, false);
    EXPECT_FALSE(t.peek(0x40).dirty);
    t.markDirty(0x40);
    EXPECT_TRUE(t.peek(0x40).dirty);
    t.markClean(0x40);
    EXPECT_FALSE(t.peek(0x40).dirty);
}

TEST(TagArray, InvalidateRemovesLine)
{
    TagArray t(kCap);
    t.install(0x80, true);
    t.invalidate(0x80);
    EXPECT_FALSE(t.peek(0x80).hit);
    EXPECT_EQ(t.validCount(), 0u);
}

TEST(TagArray, LineOffsetIgnored)
{
    TagArray t(kCap);
    t.install(0x1000, false);
    EXPECT_TRUE(t.peek(0x1000 + 63).hit);
}

TEST(TagArray, SetAssociativeLruEviction)
{
    TagArray t(kCap, 4);
    const std::uint64_t sets = t.numSets();
    // Four lines in the same set, touched in order 0,1,2,3.
    for (Addr i = 0; i < 4; ++i)
        t.install(i * sets * lineBytes, false);
    // Touch line 0 so line 1 becomes LRU.
    t.touch(0);
    TagResult r = t.peek(4 * sets * lineBytes);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.victimAddr, 1 * sets * lineBytes);
    t.install(4 * sets * lineBytes, false);
    EXPECT_FALSE(t.peek(1 * sets * lineBytes).hit);
    EXPECT_TRUE(t.peek(0).hit);
}

TEST(TagArray, VictimPrefersInvalidWay)
{
    TagArray t(kCap, 2);
    const std::uint64_t sets = t.numSets();
    t.install(0, true);
    // Second way still invalid: installing must not evict line 0.
    t.install(sets * lineBytes, false);
    EXPECT_TRUE(t.peek(0).hit);
    EXPECT_TRUE(t.peek(sets * lineBytes).hit);
}

TEST(TagArray, InstallIsIdempotentForResidentLine)
{
    TagArray t(kCap, 2);
    t.install(0x100, false);
    t.install(0x100, true);  // re-install updates in place
    EXPECT_EQ(t.validCount(), 1u);
    EXPECT_TRUE(t.peek(0x100).dirty);
}

TEST(TagArray, CapacityNeverExceeded)
{
    TagArray t(kCap, 1);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        t.install(rng.range(1 << 24) * lineBytes, rng.chance(0.5));
    EXPECT_LE(t.validCount(), kCap / lineBytes);
}

TEST(TagArray, AddrLimitCoversThirtyBitTags)
{
    // The default DRAM cache, the LLC and an L1: 2^(36 + log2 sets).
    EXPECT_EQ(TagArray(16 << 20, 1).addrLimit(), Addr{1} << 54);
    EXPECT_EQ(TagArray(2 << 20, 16).addrLimit(), Addr{1} << 47);
    EXPECT_EQ(TagArray(64 << 10, 8).addrLimit(), Addr{1} << 43);

    // The top line below the limit keeps its whole tag (2^30 - 1): it
    // hits, and a tag-0 line of its set evicts it by full address.
    TagArray t(16 << 20, 1);
    const Addr top = t.addrLimit() - lineBytes;
    const Addr low = (t.numSets() - 1) * lineBytes;
    ASSERT_EQ(t.setIndex(top), t.setIndex(low));
    t.install(top, true);
    EXPECT_TRUE(t.peek(top).hit);
    const TagResult r = t.peek(low);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.dirty);
    EXPECT_EQ(r.victimAddr, top);
}

/**
 * Property: the tag array agrees with a reference model on every
 * hit, on every miss's victim (valid, dirty, address), and through
 * installs, touches, dirty/clean marks and invalidations, using both
 * the address-based and the probe-handle API.
 */
class TagArrayModelCheck : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TagArrayModelCheck, MatchesReferenceModel)
{
    const unsigned ways = GetParam();
    TagArray t(1 << 12, ways);  // 64 lines
    const std::uint64_t sets = t.numSets();

    // Reference: per set, the valid lines in LRU order (front = LRU).
    // An invalid way is always the victim while one exists, so the
    // model needs no way positions.
    struct RefLine
    {
        Addr tag;
        bool dirty;
    };
    std::map<std::uint64_t, std::vector<RefLine>> ref;

    // Mostly 512 dense lines, plus lines whose tags are the ends of
    // the 30-bit tag field, so a narrower field aliases and fails.
    const Addr edge_tags[] = {0, 1, Addr{1} << 29, (Addr{1} << 30) - 1};
    Rng rng(ways * 1000 + 17);
    for (int i = 0; i < 40000; ++i) {
        const Addr addr =
            rng.chance(0.25)
                ? (edge_tags[rng.range(4)] * sets + rng.range(sets)) *
                      lineBytes
                : rng.range(512) * lineBytes;
        const std::uint64_t set = (addr / lineBytes) % sets;
        const Addr tag = (addr / lineBytes) / sets;
        auto &lines = ref[set];
        auto found = std::find_if(
            lines.begin(), lines.end(),
            [&](const RefLine &l) { return l.tag == tag; });
        const bool hit = found != lines.end();

        const TagArray::Probe p = t.probe(addr);
        const TagResult &r = p.result;
        ASSERT_EQ(r.hit, hit)
            << "iteration " << i << " addr " << std::hex << addr;
        if (hit) {
            ASSERT_TRUE(r.valid);
            ASSERT_EQ(r.dirty, found->dirty);
            ASSERT_EQ(r.victimAddr, addr);
        } else if (lines.size() < ways) {
            ASSERT_FALSE(r.valid) << "iteration " << i;
            ASSERT_FALSE(r.dirty) << "iteration " << i;
            ASSERT_EQ(r.victimAddr, 0u) << "iteration " << i;
        } else {
            const RefLine &lru = lines.front();
            ASSERT_TRUE(r.valid) << "iteration " << i;
            ASSERT_EQ(r.dirty, lru.dirty) << "iteration " << i;
            ASSERT_EQ(r.victimAddr, (lru.tag * sets + set) * lineBytes)
                << "iteration " << i;
        }
        ASSERT_EQ(t.peek(addr).hit, hit);

        const bool via_handle = rng.chance(0.5);
        const auto moveToMru = [&](RefLine l) {
            lines.erase(found);
            lines.push_back(l);
        };
        switch (rng.range(6)) {
          case 0:
          case 1: {
            // Install (clean fill or dirty write-allocate).
            const bool dirty = rng.chance(0.5);
            if (via_handle)
                t.install(addr, dirty, p);
            else
                t.install(addr, dirty);
            if (hit) {
                moveToMru({tag, dirty});
            } else {
                if (lines.size() >= ways)
                    lines.erase(lines.begin());
                lines.push_back({tag, dirty});
            }
            break;
          }
          case 2:
            if (via_handle)
                t.touch(p);
            else
                t.touch(addr);
            if (hit)
                moveToMru(*found);
            break;
          case 3:
            if (!hit)
                break;
            if (via_handle)
                t.markDirty(p);
            else
                t.markDirty(addr);
            moveToMru({tag, true});
            break;
          case 4:
            // Writeback completion: clears dirty, keeps LRU order.
            t.markClean(addr);
            if (hit)
                found->dirty = false;
            break;
          default:
            // Banshee's eviction path.
            t.invalidate(addr);
            if (hit)
                lines.erase(found);
            break;
        }
    }

    std::uint64_t resident = 0;
    for (const auto &[set, lines] : ref)
        resident += lines.size();
    EXPECT_EQ(t.validCount(), resident);
}

INSTANTIATE_TEST_SUITE_P(Ways, TagArrayModelCheck,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

} // namespace
} // namespace tsim
