/**
 * @file
 * Fault-injection tests for the data ECC (§III-C3): exhaustive
 * single-bit correction and double-bit detection.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "tdram/ecc.hh"

namespace tsim
{
namespace
{

TEST(Secded64, CleanWordDecodesOk)
{
    auto w = Secded64::encode(0xdeadbeefcafebabeULL);
    EXPECT_EQ(Secded64::decode(w), EccStatus::Ok);
    EXPECT_EQ(w.data, 0xdeadbeefcafebabeULL);
}

TEST(Secded64, AllZerosAndAllOnes)
{
    for (std::uint64_t v : {0ULL, ~0ULL}) {
        auto w = Secded64::encode(v);
        EXPECT_EQ(Secded64::decode(w), EccStatus::Ok);
        EXPECT_EQ(w.data, v);
    }
}

/** Exhaustive single-bit injection over all 72 codeword positions. */
class Secded64SingleBit : public ::testing::TestWithParam<unsigned>
{};

TEST_P(Secded64SingleBit, CorrectsAnySingleFlip)
{
    const unsigned pos = GetParam();
    Rng rng(pos + 1);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint64_t v = rng.next();
        auto w = Secded64::encode(v);
        Secded64::injectError(w, pos);
        EXPECT_EQ(Secded64::decode(w), EccStatus::Corrected)
            << "pos " << pos;
        EXPECT_EQ(w.data, v) << "pos " << pos;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, Secded64SingleBit,
                         ::testing::Range(0u, 72u));

TEST(Secded64, DetectsDoubleErrors)
{
    Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        const std::uint64_t v = rng.next();
        auto w = Secded64::encode(v);
        const unsigned a = static_cast<unsigned>(rng.range(72));
        unsigned b;
        do {
            b = static_cast<unsigned>(rng.range(72));
        } while (b == a);
        Secded64::injectError(w, a);
        Secded64::injectError(w, b);
        EXPECT_EQ(Secded64::decode(w), EccStatus::Uncorrectable)
            << "positions " << a << "," << b;
    }
}

} // namespace
} // namespace tsim
