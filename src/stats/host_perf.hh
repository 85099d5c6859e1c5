/**
 * @file
 * Host-side throughput accounting.
 *
 * Simulated statistics tell us what the modelled machine did; these
 * counters tell us how fast the simulator itself ran — events
 * executed, host wall-time, and simulated-time per host-second. Every
 * System::run() fills one HostPerf, the bench harnesses aggregate
 * them, and the kernel microbenchmark tracks the same numbers so the
 * perf trajectory is visible across PRs.
 */

#ifndef TSIM_STATS_HOST_PERF_HH
#define TSIM_STATS_HOST_PERF_HH

#include <chrono>
#include <cstdint>

#include "sim/ticks.hh"

namespace tsim
{

/** Throughput counters for one or more simulation runs. */
struct HostPerf
{
    std::uint64_t events = 0;    ///< kernel events executed
    Tick simTicks = 0;           ///< simulated time covered
    double hostSeconds = 0;      ///< host wall-time spent
    std::uint64_t runs = 0;      ///< simulations aggregated
    std::uint64_t chanKicks = 0; ///< channel scheduler invocations
    std::uint64_t chanScans = 0; ///< request nodes examined by them
    std::uint64_t chanCmds = 0;  ///< Read/Write/ActRd/ActWr issued

    void
    merge(const HostPerf &o)
    {
        events += o.events;
        simTicks += o.simTicks;
        hostSeconds += o.hostSeconds;
        runs += o.runs;
        chanKicks += o.chanKicks;
        chanScans += o.chanScans;
        chanCmds += o.chanCmds;
    }

    /** Kernel events per host second. */
    double
    eventsPerSec() const
    {
        return hostSeconds > 0 ? events / hostSeconds : 0.0;
    }

    /** Simulated nanoseconds per host second. */
    double
    simNsPerHostSec() const
    {
        return hostSeconds > 0 ? ticksToNs(simTicks) / hostSeconds : 0.0;
    }
};

/** Wall-clock stopwatch for host-side accounting. */
class HostTimer
{
  public:
    // tdram-lint:allow(nondet): host wall-clock telemetry for the
    // [host] summary lines; never feeds simulated (golden) output.
    HostTimer() : _start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        // tdram-lint:allow(nondet): host wall-clock telemetry only.
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    // tdram-lint:allow(nondet): host wall-clock telemetry only.
    std::chrono::steady_clock::time_point _start;
};

} // namespace tsim

#endif // TSIM_STATS_HOST_PERF_HH
