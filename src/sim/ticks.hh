/**
 * @file
 * Simulation time base.
 *
 * The simulator counts time in ticks where one tick is one picosecond.
 * Table III of the TDRAM paper specifies timings in nanoseconds with
 * half-nanosecond entries (e.g., tHM = 7.5 ns); picoseconds keep every
 * parameter an exact integer.
 */

#ifndef TSIM_SIM_TICKS_HH
#define TSIM_SIM_TICKS_HH

#include <cstdint>

namespace tsim
{

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "never" / unset times. */
constexpr Tick maxTick = ~Tick(0);

/** One nanosecond in ticks. */
constexpr Tick tickPerNs = 1000;

/** Convert a (possibly fractional) nanosecond value to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(tickPerNs) + 0.5);
}

/** Convert ticks to nanoseconds (as double, for reporting only). */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickPerNs);
}

} // namespace tsim

#endif // TSIM_SIM_TICKS_HH
