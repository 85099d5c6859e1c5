/**
 * @file
 * Unit tests for the SRAM cache model (L1/LLC substrate).
 */

#include <gtest/gtest.h>

#include "cache/sram_cache.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

TEST(SramCache, MissThenHit)
{
    SramCache c("c", 1 << 14, 4);
    auto r1 = c.access(0x1000, false);
    EXPECT_FALSE(r1.hit);
    EXPECT_FALSE(r1.writeback);
    auto r2 = c.access(0x1000, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(SramCache, DirtyEvictionProducesWriteback)
{
    SramCache c("c", 1 << 12, 1);  // 64 lines direct
    const Addr a = 0x0;
    const Addr b = a + (1 << 12);  // same set
    c.access(a, true);             // dirty
    auto r = c.access(b, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, a);
    EXPECT_EQ(c.writebacks.value(), 1.0);
}

TEST(SramCache, CleanEvictionIsSilent)
{
    SramCache c("c", 1 << 12, 1);
    const Addr a = 0x40;
    const Addr b = a + (1 << 12);
    c.access(a, false);  // clean
    auto r = c.access(b, false);
    EXPECT_FALSE(r.writeback);
}

TEST(SramCache, StoreHitDirtiesLine)
{
    SramCache c("c", 1 << 12, 2);
    c.access(0x80, false);
    c.access(0x80, true);  // hit + dirty
    const Addr conflict1 = 0x80 + (1 << 11);
    const Addr conflict2 = 0x80 + (1 << 12);
    c.access(conflict1, false);
    auto r = c.access(conflict2, false);  // evicts LRU = 0x80
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0x80u);
}

TEST(SramCache, MissRatioTracksAccesses)
{
    SramCache c("c", 1 << 14, 8);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        c.access(rng.range(1 << 7) * lineBytes, false);
    // 128-line region in a 256-line cache: ~only cold misses.
    EXPECT_LT(c.missRatio(), 0.05);
}

TEST(SramCache, ContainsIsSideEffectFree)
{
    SramCache c("c", 1 << 12, 1);
    c.access(0x0, false);
    c.access(0x100, false);
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x9999999));
    EXPECT_EQ(c.hits.value() + c.misses.value(), 2.0);
}

} // namespace
} // namespace tsim
