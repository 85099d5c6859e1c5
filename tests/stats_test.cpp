/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"

namespace tsim
{
namespace
{

TEST(Scalar, Accumulates)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    s = 7;
    EXPECT_EQ(s.value(), 7.0);
}

TEST(Average, MeanAndCount)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(Histogram, BasicMoments)
{
    Histogram h(1.0, 10);
    for (int i = 1; i <= 5; ++i)
        h.sample(i);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 5.0);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(1.0, 4);
    h.sample(100.0);  // way past the last bucket
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
}

TEST(Histogram, PercentileMonotone)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p90, 90.0, 2.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(2.0, 8);
    h.sample(3);
    h.sample(9);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(StatGroup, DumpsNamedValues)
{
    StatGroup g("grp");
    Scalar s;
    s = 42;
    Histogram h(1.0, 4);
    h.sample(2);
    g.addScalar("answer", &s, "the answer");
    g.addHistogram("hist", &h);

    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("grp.answer 42"), std::string::npos);
    EXPECT_NE(out.find("the answer"), std::string::npos);
    EXPECT_NE(out.find("grp.hist.count 1"), std::string::npos);
}

} // namespace
} // namespace tsim
