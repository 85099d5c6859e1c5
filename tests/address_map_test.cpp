/**
 * @file
 * Unit tests for the RoCoRaBaCh address interleaving.
 */

#include <gtest/gtest.h>

#include <set>

#include "dcache/dram_cache.hh"
#include "dram/main_memory.hh"
#include "mem/address_map.hh"
#include "sim/rng.hh"

namespace tsim
{
namespace
{

TEST(AddressMap, ConsecutiveLinesInterleaveChannelsFirst)
{
    AddressMap m(1ULL << 30, 8, 16, 1024);
    for (unsigned i = 0; i < 16; ++i) {
        DramCoord c = m.decode(static_cast<Addr>(i) * lineBytes);
        EXPECT_EQ(c.channel, i % 8u);
    }
}

TEST(AddressMap, BanksAfterChannels)
{
    AddressMap m(1ULL << 30, 8, 16, 1024);
    // Same channel, advancing banks.
    for (unsigned b = 0; b < 16; ++b) {
        DramCoord c = m.decode(static_cast<Addr>(b) * 8 * lineBytes);
        EXPECT_EQ(c.channel, 0u);
        EXPECT_EQ(c.bank, b);
    }
}

TEST(AddressMap, GeometryCoverage)
{
    const std::uint64_t cap = 1ULL << 26;
    AddressMap m(cap, 4, 8, 1024);
    EXPECT_EQ(m.channels(), 4u);
    EXPECT_EQ(m.banks(), 8u);
    // rows * banks * channels * linesPerRow * lineBytes == capacity
    const std::uint64_t lines_per_row = 1024 / lineBytes;
    EXPECT_EQ(m.rowsPerBank() * 4 * 8 * lines_per_row * lineBytes, cap);
}

TEST(AddressMap, DecodeIsInjectiveOverOneRowSpan)
{
    AddressMap m(1ULL << 24, 2, 4, 512);
    std::set<std::tuple<unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    const unsigned span = 2 * 4 * (512 / lineBytes) * 4;  // 4 rows
    for (unsigned i = 0; i < span; ++i) {
        DramCoord c = m.decode(static_cast<Addr>(i) * lineBytes);
        auto key = std::make_tuple(c.channel, c.bank, c.row, c.col);
        EXPECT_TRUE(seen.insert(key).second)
            << "duplicate coordinate for line " << i;
    }
}

TEST(AddressMap, WrapsBeyondCapacity)
{
    AddressMap m(1ULL << 20, 2, 4, 512);
    DramCoord a = m.decode(0);
    DramCoord b = m.decode(1ULL << 20);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.col, b.col);
}

/** The decode as plain div/mod, the definition the shifts must meet. */
DramCoord
divisionDecode(std::uint64_t capacity, unsigned channels, unsigned banks,
               std::uint64_t row_bytes, Addr addr)
{
    const std::uint64_t lines_per_row = row_bytes / lineBytes;
    const std::uint64_t rows =
        capacity / lineBytes / (channels * banks * lines_per_row);
    std::uint64_t line = (addr / lineBytes) % (capacity / lineBytes);
    DramCoord c;
    c.channel = static_cast<unsigned>(line % channels);
    line /= channels;
    c.bank = static_cast<unsigned>(line % banks);
    line /= banks;
    c.col = line % lines_per_row;
    line /= lines_per_row;
    c.row = line % rows;
    return c;
}

TEST(AddressMap, DecodeMatchesDivisionFormula)
{
    struct Geometry
    {
        std::uint64_t capacity;
        unsigned channels;
        unsigned banks;
        std::uint64_t rowBytes;
    };
    const DramCacheConfig dc;
    const MainMemoryConfig mm;
    const Geometry geoms[] = {
        {dc.capacityBytes, dc.channels, dc.banks, dc.rowBytes},
        {mm.capacityBytes, mm.channels, mm.banks, mm.rowBytes},
        {1ULL << 26, mm.channels, mm.banks, mm.rowBytes},
        {1ULL << 30, 8, 16, 1024},
        {1ULL << 20, 2, 4, 512},
        {1ULL << 12, 1, 1, 64},
        {1ULL << 34, 16, 32, 8192},
    };
    Rng rng(29);
    for (const Geometry &g : geoms) {
        const AddressMap m(g.capacity, g.channels, g.banks, g.rowBytes);
        for (int i = 0; i < 20000; ++i) {
            // Mostly in range, sometimes far beyond (decode wraps).
            const Addr addr = (i & 1) ? rng.next()
                                      : rng.range(g.capacity * 2);
            const DramCoord got = m.decode(addr);
            const DramCoord want = divisionDecode(
                g.capacity, g.channels, g.banks, g.rowBytes, addr);
            ASSERT_EQ(got.channel, want.channel) << std::hex << addr;
            ASSERT_EQ(got.bank, want.bank) << std::hex << addr;
            ASSERT_EQ(got.row, want.row) << std::hex << addr;
            ASSERT_EQ(got.col, want.col) << std::hex << addr;
        }
    }
}

/** Property: uniform addresses spread evenly over channels/banks. */
class AddressMapUniform
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(AddressMapUniform, EvenSpread)
{
    const auto [channels, banks] = GetParam();
    AddressMap m(1ULL << 28, channels, banks, 1024);
    std::vector<unsigned> chan_count(channels, 0);
    std::vector<unsigned> bank_count(banks, 0);
    const unsigned n = 1 << 14;
    for (unsigned i = 0; i < n; ++i) {
        DramCoord c = m.decode(static_cast<Addr>(i) * lineBytes);
        ++chan_count[c.channel];
        ++bank_count[c.bank];
    }
    for (unsigned c = 0; c < channels; ++c)
        EXPECT_EQ(chan_count[c], n / channels);
    for (unsigned b = 0; b < banks; ++b)
        EXPECT_EQ(bank_count[b], n / banks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressMapUniform,
    ::testing::Values(std::make_pair(2u, 8u), std::make_pair(8u, 16u),
                      std::make_pair(16u, 32u)));

} // namespace
} // namespace tsim
