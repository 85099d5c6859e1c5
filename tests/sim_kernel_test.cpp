/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering,
 * determinism, tick accounting, and the RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace tsim
{
namespace
{

TEST(Ticks, Conversions)
{
    EXPECT_EQ(nsToTicks(1), 1000u);
    EXPECT_EQ(nsToTicks(7.5), 7500u);
    EXPECT_EQ(nsToTicks(0.5), 500u);
    EXPECT_DOUBLE_EQ(ticksToNs(12000), 12.0);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(500, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CallbackCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.schedule(20, [&] {
            ++fired;
            eq.schedule(30, [&] { ++fired; });
        });
    });
    std::uint64_t n = eq.run();
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickSelfSchedulingRunsSameTick)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(5, [&] {
        if (++count < 4)
            eq.schedule(eq.curTick(), [&] { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvances)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    std::uint64_t n = eq.run(150);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 150u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, LimitBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.run(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextEventTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextEventTick(), 42u);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleInZeroFromCallbackRunsAtCurrentTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1000, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] {
            order.push_back(2);
            EXPECT_EQ(eq.curTick(), 1000u);
        });
    });
    eq.schedule(1001, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling in the past");
}

/**
 * Static determinism: a pseudo-random mixture of near-future (wheel)
 * and far-future (heap) events must execute in exact (tick, seq)
 * order, i.e. the two-level structure is invisible.
 */
TEST(EventQueue, NearAndFarEventsExecuteInGlobalOrder)
{
    EventQueue eq;
    Rng rng(42);
    const int n = 800;
    std::vector<std::pair<Tick, int>> expected;
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
        // Span ~10 wheel horizons so plenty of events take the
        // far-future path and migrate back in.
        const Tick when = rng.range(10 * EventQueue::horizonTicks);
        expected.emplace_back(when, i);
        eq.schedule(when, [&order, i] { order.push_back(i); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(n));
    eq.run();
    ASSERT_EQ(order.size(), expected.size());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], expected[i].second);
    EXPECT_TRUE(eq.empty());
}

/**
 * Dynamic determinism: callbacks that schedule new events (same
 * tick, short-horizon, and beyond the wheel horizon) must match a
 * naive sorted-list reference executing the same decision process.
 */
TEST(EventQueue, ReschedulingStressMatchesReferenceKernel)
{
    struct RefEvent
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };

    auto decideDelay = [](Rng &rng) -> Tick {
        switch (rng.range(4)) {
          case 0: return 0;                               // same tick
          case 1: return 1 + rng.range(5000);             // in-bucket
          case 2: return rng.range(EventQueue::horizonTicks);
          default:
            return EventQueue::horizonTicks +
                   rng.range(4 * EventQueue::horizonTicks);
        }
    };

    // Reference: flat vector, pop the (when, seq) minimum.
    std::vector<int> ref_order;
    {
        Rng rng(7);
        std::vector<RefEvent> pending;
        std::uint64_t seq = 0;
        int next_id = 0;
        for (int i = 0; i < 32; ++i)
            pending.push_back({rng.range(1000), seq++, next_id++});
        while (!pending.empty() && next_id < 3000) {
            auto it = std::min_element(
                pending.begin(), pending.end(),
                [](const RefEvent &a, const RefEvent &b) {
                    if (a.when != b.when)
                        return a.when < b.when;
                    return a.seq < b.seq;
                });
            const RefEvent ev = *it;
            pending.erase(it);
            ref_order.push_back(ev.id);
            const unsigned children = rng.range(3);
            for (unsigned c = 0; c < children; ++c) {
                pending.push_back(
                    {ev.when + decideDelay(rng), seq++, next_id++});
            }
        }
    }

    // Real kernel, same decision process.
    std::vector<int> order;
    {
        Rng rng(7);
        EventQueue eq;
        int next_id = 0;
        std::function<void(int)> body = [&](int id) {
            order.push_back(id);
            if (next_id >= 3000)
                return;
            const unsigned children = rng.range(3);
            for (unsigned c = 0; c < children; ++c) {
                const int child = next_id++;
                eq.scheduleIn(decideDelay(rng),
                              [&body, child] { body(child); });
            }
        };
        for (int i = 0; i < 32; ++i) {
            const int id = next_id++;
            eq.schedule(rng.range(1000), [&body, id] { body(id); });
        }
        while (eq.step() && static_cast<int>(order.size()) <
                                static_cast<int>(ref_order.size()))
            ;
    }

    ASSERT_GE(order.size(), ref_order.size());
    order.resize(ref_order.size());
    EXPECT_EQ(order, ref_order);
}

TEST(EventQueue, RunLimitInsideAndBeyondWheelHorizon)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(EventQueue::horizonTicks + 500, [&] { ++fired; });
    eq.schedule(3 * EventQueue::horizonTicks, [&] { ++fired; });
    EXPECT_EQ(eq.run(EventQueue::horizonTicks), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), EventQueue::horizonTicks);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.nextEventTick(), EventQueue::horizonTicks + 500);
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eq.empty());
}

/**
 * The allocation-free contract: callbacks with the capture shapes
 * the components actually use must never take the heap-fallback
 * path of InlineFunction.
 */
TEST(EventQueue, TypicalCapturesStayOnTheInlinePath)
{
    struct FakeTagResult
    {
        bool hit, valid, dirty;
        std::uint64_t victim;
        bool viaProbe;
    };

    const std::uint64_t before = InlineFunction::heapFallbacks();
    EventQueue eq;
    int sink = 0;
    std::uint64_t addr = 0xdeadbeef;
    Tick t = 42;
    FakeTagResult tr{true, true, false, 0x1234, false};
    std::function<void(Tick, const FakeTagResult &)> cb =
        [&sink](Tick, const FakeTagResult &) { ++sink; };

    // [this]-style, [this, addr, tick], [cb-copy, result, tick]:
    // the three shapes channel.cc / dram_cache.cc / core_engine.cc
    // schedule with.
    eq.schedule(10, [&sink] { ++sink; });
    eq.schedule(20, [&sink, addr, t] { sink += (addr + t) > 0; });
    eq.schedule(30, [cb, tr, t] { cb(t, tr); });
    eq.run();
    EXPECT_EQ(sink, 3);
    EXPECT_EQ(InlineFunction::heapFallbacks(), before);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeapButWorks)
{
    const std::uint64_t before = InlineFunction::heapFallbacks();
    std::array<char, InlineFunction::inlineCapacity + 64> big{};
    big[0] = 7;
    int result = 0;
    InlineFunction f([big, &result] { result = big[0]; });
    EXPECT_EQ(InlineFunction::heapFallbacks(), before + 1);
    InlineFunction g(std::move(f));
    g();
    EXPECT_EQ(result, 7);
}

TEST(InlineFunction, MoveTransfersAndLeavesSourceEmpty)
{
    int calls = 0;
    InlineFunction f([&calls] { ++calls; });
    EXPECT_TRUE(static_cast<bool>(f));
    InlineFunction g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    g();
    EXPECT_EQ(calls, 2);
    f = std::move(g);
    f();
    EXPECT_EQ(calls, 3);
}

TEST(EventQueue, PoolRecyclingSurvivesManyScheduleRunCycles)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 50; ++i)
            eq.scheduleIn(static_cast<Tick>(i * 37 % 900),
                          [&fired] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 200u * 50u);
    EXPECT_TRUE(eq.empty());
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.range(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

/** Property sweep: range() is roughly uniform for several bounds. */
class RngUniformity : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RngUniformity, BucketsRoughlyEqual)
{
    const std::uint64_t bound = GetParam();
    Rng r(bound * 1234567 + 1);
    std::vector<int> counts(bound, 0);
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        ++counts[r.range(bound)];
    const double expect = static_cast<double>(draws) / bound;
    for (auto c : counts)
        EXPECT_NEAR(c, expect, expect * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformity,
                         ::testing::Values(2, 3, 8, 10, 17));

} // namespace
} // namespace tsim
