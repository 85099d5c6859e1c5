/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot
 * primitives: event queue throughput, RNG, address decode, and
 * functional tag-array operations.
 */

#include <functional>

#include <benchmark/benchmark.h>

#include "dram/channel.hh"
#include "mem/address_map.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tdram/tag_array.hh"
#include "workload/profiles.hh"

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        tsim::EventQueue eq;
        long sink = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(static_cast<tsim::Tick>(i * 7 % 1000),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void
BM_RngNext(benchmark::State &state)
{
    tsim::Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_AddressDecode(benchmark::State &state)
{
    tsim::AddressMap map(1ULL << 30, 8, 16, 1024);
    tsim::Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(a));
        a += 64;
    }
}
BENCHMARK(BM_AddressDecode);

void
BM_TagArrayPeekInstall(benchmark::State &state)
{
    tsim::TagArray tags(1ULL << 24, static_cast<unsigned>(state.range(0)));
    tsim::Rng rng(7);
    for (auto _ : state) {
        tsim::Addr a = rng.range(1ULL << 28) * 64;
        auto r = tags.peek(a);
        benchmark::DoNotOptimize(r);
        if (!r.hit)
            tags.install(a, false);
    }
}
BENCHMARK(BM_TagArrayPeekInstall)->Arg(1)->Arg(8);

void
BM_ChannelReadThroughput(benchmark::State &state)
{
    // End-to-end DRAM-channel simulation speed: how many modelled
    // close-page reads the engine retires per wall-clock second.
    const unsigned n = 256;
    for (auto _ : state) {
        tsim::EventQueue eq;
        tsim::AddressMap map(1ULL << 24, 1, 16, 1024);
        tsim::ChannelConfig cfg;
        cfg.refreshEnabled = false;
        tsim::DramChannel chan(eq, "ch", cfg, map);
        unsigned done = 0;
        unsigned issued = 0;
        std::function<void()> feed = [&] {
            while (issued < n && chan.canAcceptRead()) {
                tsim::ChanReq r;
                r.id = issued;
                r.addr = static_cast<tsim::Addr>(issued) * 64;
                r.op = tsim::ChanOp::Read;
                r.onDataDone = [&done, &feed](tsim::Tick) {
                    ++done;
                    feed();
                };
                ++issued;
                chan.enqueue(std::move(r));
            }
        };
        feed();
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelReadThroughput);

void
BM_WorkloadGenerator(benchmark::State &state)
{
    const auto &wl = tsim::allWorkloads()[
        static_cast<std::size_t>(state.range(0))];
    auto gen = tsim::makeGenerator(wl, 0, 8, 16ULL << 20);
    tsim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen->next(rng));
    state.SetLabel(wl.name);
}
BENCHMARK(BM_WorkloadGenerator)->Arg(3)->Arg(4)->Arg(21)->Arg(25);

} // namespace

BENCHMARK_MAIN();
