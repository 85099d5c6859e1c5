/**
 * @file
 * Tests for the synthetic workload generators and the page-scatter
 * translation.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/profiles.hh"

namespace tsim
{
namespace
{

TEST(StreamGenerator, SequentialAndWraps)
{
    StreamGenerator g(0x1000, 8 * lineBytes, 1, 0.0);
    Rng rng(1);
    for (int lap = 0; lap < 3; ++lap) {
        for (unsigned i = 0; i < 8; ++i) {
            MemOp op = g.next(rng);
            EXPECT_EQ(op.addr, 0x1000 + i * lineBytes);
            EXPECT_FALSE(op.isStore);
        }
    }
}

TEST(StreamGenerator, PhaseOffsetsStart)
{
    StreamGenerator g(0, 100 * lineBytes, 1, 0.0, 0.5);
    Rng rng(1);
    EXPECT_EQ(g.next(rng).addr, 50 * lineBytes);
}

TEST(StreamGenerator, StoreFractionRoughlyHonored)
{
    StreamGenerator g(0, 1 << 20, 2, 0.4);
    Rng rng(7);
    int stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        stores += g.next(rng).isStore;
    EXPECT_NEAR(stores / double(n), 0.4, 0.02);
}

TEST(RandomGenerator, StaysInRegion)
{
    const Addr base = 1 << 20;
    const std::uint64_t bytes = 1 << 16;
    RandomGenerator g(base, bytes, 0.5);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        MemOp op = g.next(rng);
        ASSERT_GE(op.addr, base);
        ASSERT_LT(op.addr, base + bytes);
    }
}

TEST(ZipfGenerator, HeavyAlphaConcentrates)
{
    ZipfGenerator g(0, 1 << 22, 1.3, 0.0);  // 64 Ki lines
    Rng rng(5);
    std::map<Addr, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[g.next(rng).addr];
    // Top-16 lines should hold a large share of accesses.
    std::vector<int> freq;
    for (auto &[a, c] : counts)
        freq.push_back(c);
    std::sort(freq.rbegin(), freq.rend());
    int top = 0;
    for (int i = 0; i < 16 && i < static_cast<int>(freq.size()); ++i)
        top += freq[static_cast<size_t>(i)];
    EXPECT_GT(top / double(n), 0.2);
}

TEST(ZipfGenerator, FlatAlphaSpreads)
{
    ZipfGenerator g(0, 1 << 22, 0.6, 0.0);
    Rng rng(5);
    std::set<Addr> uniq;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        uniq.insert(g.next(rng).addr);
    // Far less concentration: most draws are distinct lines.
    EXPECT_GT(uniq.size(), static_cast<std::size_t>(n / 2));
}

/** FNV-1a over the first 200k ops of one seeded Zipf stream. */
std::uint64_t
zipfStreamHash(double alpha, std::uint64_t lines)
{
    ZipfGenerator g(0, lines * lineBytes, alpha, 0.25);
    Rng rng(11);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 200000; ++i) {
        const MemOp op = g.next(rng);
        h = (h ^ (op.addr | (op.isStore ? 1u : 0u))) * 0x100000001b3ULL;
    }
    return h;
}

// Pins every draw of both samplers (alpha <= 1 and the rejection
// sampler), so a shortcut in either cannot move a single address or
// RNG step. The constants come from the pow-per-draw sampler.
TEST(ZipfGenerator, StreamsArePinned)
{
    struct Case
    {
        double alpha;
        std::uint64_t lines;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {0.6, 5243, 0x773656408580a883ULL},
        {0.6, 63000, 0x154e744bbee95483ULL},
        {0.6, 1048576, 0x681399daa06a5943ULL},
        {1.1, 5243, 0x4cf4375fa22eac76ULL},
        {1.1, 63000, 0x225376624b235f0aULL},
        {1.1, 1048576, 0xd35de3f3e0f38fccULL},
        {1.2, 5243, 0xcfe58d6f04f1c5d7ULL},
        {1.2, 63000, 0x65080852b8515e68ULL},
        {1.2, 1048576, 0xcc9178874cda2919ULL},
        {2.5, 5243, 0x8c2d9755a4a78b3cULL},
        {2.5, 63000, 0x3a4cc14d66b487bcULL},
        {2.5, 1048576, 0xa5809e6964d18dbcULL},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(zipfStreamHash(c.alpha, c.lines), c.hash)
            << "alpha " << c.alpha << " lines " << c.lines;
    }
}

TEST(StencilGenerator, LastArrayIsStoreTarget)
{
    StencilGenerator g(0, 4 * 64 * lineBytes, 4);
    Rng rng(2);
    int stores = 0;
    for (int i = 0; i < 400; ++i)
        stores += g.next(rng).isStore;
    EXPECT_EQ(stores, 100);  // exactly one array in four is written
}

TEST(PageScatter, BijectiveOverSpace)
{
    auto inner = std::make_unique<StreamGenerator>(0, 1 << 20, 1, 0.0);
    PageScatterGenerator g(std::move(inner), 1 << 24, 42);
    std::set<std::uint64_t> seen;
    const std::uint64_t pages = 1ULL << g.spaceBits();
    for (std::uint64_t p = 0; p < pages; ++p) {
        const std::uint64_t phys = g.permute(p);
        ASSERT_LT(phys, pages);
        ASSERT_TRUE(seen.insert(phys).second)
            << "page " << p << " collides";
    }
}

TEST(PageScatter, PreservesOffsetWithinPage)
{
    auto inner = std::make_unique<RandomGenerator>(0, 1 << 22, 0.0);
    PageScatterGenerator g(std::move(inner), 1 << 22, 9);
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        // The inner generator emits line-aligned addresses; their
        // in-page offset must survive translation.
        MemOp op = g.next(rng);
        EXPECT_EQ(op.addr % lineBytes, 0u);
    }
}

TEST(Profiles, All28Present)
{
    EXPECT_EQ(allWorkloads().size(), 28u);
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

TEST(Profiles, GroupsBalanced)
{
    unsigned high = 0;
    for (const auto &w : allWorkloads())
        high += w.highMiss;
    EXPECT_GE(high, 10u);
    EXPECT_LE(high, 18u);
}

TEST(Profiles, FindWorkload)
{
    EXPECT_EQ(findWorkload("ft.C").kind, GenKind::Stream);
    EXPECT_TRUE(findWorkload("bfs.25").highMiss);
    EXPECT_FALSE(findWorkload("ep.C").highMiss);
}

TEST(Profiles, RepresentativeSubsetValid)
{
    auto reps = representativeWorkloads();
    EXPECT_GE(reps.size(), 8u);
    unsigned high = 0;
    for (const auto &w : reps)
        high += w.highMiss;
    EXPECT_GE(high, 3u);
    EXPECT_GE(reps.size() - high, 3u);
}

TEST(Profiles, GeneratorsStayInsidePhysicalSpace)
{
    const std::uint64_t cache = 16ULL << 20;
    for (const auto &w : allWorkloads()) {
        const std::uint64_t space = physicalSpaceBytes(w, cache);
        auto gen = makeGenerator(w, 0, 8, cache);
        Rng rng(1);
        for (int i = 0; i < 2000; ++i) {
            MemOp op = gen->next(rng);
            ASSERT_LT(op.addr, space) << w.name;
        }
    }
}

TEST(Profiles, SharedRegionIsSharedAcrossCores)
{
    // Two cores of a zipf workload must overlap on hot lines.
    const auto &wl = findWorkload("bfs.22");
    const std::uint64_t cache = 16ULL << 20;
    auto g0 = makeGenerator(wl, 0, 8, cache);
    auto g1 = makeGenerator(wl, 1, 8, cache);
    Rng r0(1), r1(2);
    std::set<Addr> a0, a1;
    for (int i = 0; i < 20000; ++i) {
        a0.insert(lineAlign(g0->next(r0).addr));
        a1.insert(lineAlign(g1->next(r1).addr));
    }
    std::size_t common = 0;
    for (Addr a : a0)
        common += a1.count(a);
    EXPECT_GT(common, a0.size() / 10);
}

/** Determinism: same seed, same stream. */
class GeneratorDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(GeneratorDeterminism, SameSeedSameStream)
{
    const auto &wl = findWorkload(GetParam());
    auto g1 = makeGenerator(wl, 2, 8, 16ULL << 20);
    auto g2 = makeGenerator(wl, 2, 8, 16ULL << 20);
    Rng r1(99), r2(99);
    for (int i = 0; i < 5000; ++i) {
        MemOp a = g1->next(r1);
        MemOp b = g2->next(r2);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.isStore, b.isStore);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, GeneratorDeterminism,
                         ::testing::Values("ft.C", "is.C", "bfs.25",
                                           "bt.D", "pr.22"));

} // namespace
} // namespace tsim
