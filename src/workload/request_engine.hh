/**
 * @file
 * Front end shared by every workload engine.
 *
 * A System drives exactly one request engine: the synthetic
 * CoreEngine (generators through an L1/LLC hierarchy) or the
 * TraceReplayEngine (a recorded .tdtz request stream). Both issue
 * demands into DramCacheCtrl::access() from the System's one event
 * queue, through the one demand-issue step here: it owns the
 * controller reference, the demand and backpressure counters, the
 * read-latency histogram and the finish tick.
 */

#ifndef TSIM_WORKLOAD_REQUEST_ENGINE_HH
#define TSIM_WORKLOAD_REQUEST_ENGINE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "dcache/dram_cache.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace tsim
{

/** Abstract demand-issuing front end (one per System). */
class RequestEngine : public SimObject
{
  public:
    RequestEngine(EventQueue &eq, std::string name, DramCacheCtrl &dcache)
        : SimObject(eq, std::move(name)), _dcache(dcache)
    {}
    ~RequestEngine() override = default;

    /** Schedule the engine's first event(s); called once at tick 0. */
    virtual void start() = 0;

    /** True once the engine will issue no further demands. */
    virtual bool done() const = 0;

    /** Tick at which the workload finished (report runtime). */
    Tick finishTick() const { return _finishTick; }

    /**
     * Warm the functional state (caches, DRAM-cache tags) without
     * consuming simulated time. The budget parameter is interpreted
     * per engine: operations per core (CoreEngine) or total records
     * (TraceReplayEngine).
     */
    virtual void warmup(std::uint64_t budget) = 0;

    /** Mean end-to-end demand-read latency in ns (SimReport). */
    double
    meanDemandReadLatencyNs() const
    {
        return demandReadLatency.mean();
    }

    /** Issue attempts rejected by controller backpressure. */
    std::uint64_t
    backpressureStallCount() const
    {
        return static_cast<std::uint64_t>(backpressureStalls.value());
    }

    virtual void regStats(StatGroup &g) const = 0;

    /** Print live issue state (deadlock debugging). */
    virtual void dumpDebug(std::FILE *f) const = 0;

    /** @name Statistics. */
    /// @{
    Scalar demandReadsIssued;   ///< per-line read demands
    Scalar demandWritesIssued;  ///< per-line write demands
    Scalar backpressureStalls;  ///< issue attempts refused
    Histogram demandReadLatency{4.0, 512};  ///< ns, end to end
    /// @}

  protected:
    /** Period at which a demand refused by backpressure is retried. */
    static constexpr Tick retryInterval = nsToTicks(4);

    /**
     * Offer demand @p pkt to the controller. A refusal counts one
     * backpressure stall. An accepted read counts in @p outstanding
     * and calls @p on_read when it returns; an accepted write is
     * fire-and-forget (the System run loop waits on inFlightDemands()
     * for the tail writes).
     * @return true if the controller took the demand.
     */
    template <class OnRead>
    bool
    issueDemand(const MemPacket &pkt, unsigned &outstanding,
                OnRead &&on_read)
    {
        if (!_dcache.canAccept(pkt)) {
            ++backpressureStalls;
            return false;
        }
        if (pkt.cmd == MemCmd::Read) {
            ++outstanding;
            ++demandReadsIssued;
            _dcache.access(pkt, std::forward<OnRead>(on_read));
        } else {
            ++demandWritesIssued;
            _dcache.access(pkt, RespCallback{});
        }
        return true;
    }

    /** Account a returned read: one fewer outstanding, its latency. */
    void
    readDone(unsigned &outstanding, const MemPacket &pkt)
    {
        panic_if(outstanding == 0, "read returned with none in flight");
        --outstanding;
        demandReadLatency.sample(ticksToNs(pkt.completed - pkt.created));
    }

    /** Register the demand statistics, in the dump order both use. */
    void
    regDemandStats(StatGroup &g) const
    {
        g.addScalar("demand_reads_issued", &demandReadsIssued);
        g.addScalar("demand_writes_issued", &demandWritesIssued);
        g.addScalar("backpressure_stalls", &backpressureStalls);
        g.addHistogram("demand_read_latency_ns", &demandReadLatency);
    }

    DramCacheCtrl &_dcache;
    Tick _finishTick = 0;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_REQUEST_ENGINE_HH
