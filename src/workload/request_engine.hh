/**
 * @file
 * Front-end interface shared by every workload engine.
 *
 * A System drives exactly one request engine: the synthetic
 * CoreEngine (generators through an L1/LLC hierarchy) or the
 * TraceReplayEngine (a recorded .tdtz request stream). Both issue
 * demands into DramCacheCtrl::access() from the System's one event
 * queue. This interface is the System-facing surface they share.
 */

#ifndef TSIM_WORKLOAD_REQUEST_ENGINE_HH
#define TSIM_WORKLOAD_REQUEST_ENGINE_HH

#include <cstdint>
#include <cstdio>

#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace tsim
{

/** Abstract demand-issuing front end (one per System). */
class RequestEngine : public SimObject
{
  public:
    using SimObject::SimObject;
    ~RequestEngine() override = default;

    /** Schedule the engine's first event(s); called once at tick 0. */
    virtual void start() = 0;

    /** True once the engine will issue no further demands. */
    virtual bool done() const = 0;

    /** Tick at which the workload finished (report runtime). */
    virtual Tick finishTick() const = 0;

    /**
     * Warm the functional state (caches, DRAM-cache tags) without
     * consuming simulated time. The budget parameter is interpreted
     * per engine: operations per core (CoreEngine) or total records
     * (TraceReplayEngine).
     */
    virtual void warmup(std::uint64_t budget) = 0;

    /** Mean end-to-end demand-read latency in ns (SimReport). */
    virtual double meanDemandReadLatencyNs() const = 0;

    /** Issue attempts rejected by controller backpressure. */
    virtual std::uint64_t backpressureStallCount() const = 0;

    virtual void regStats(StatGroup &g) const = 0;

    /** Print live issue state (deadlock debugging). */
    virtual void dumpDebug(std::FILE *f) const = 0;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_REQUEST_ENGINE_HH
