/**
 * @file
 * DRAM timing parameters (paper Table III) and device presets.
 *
 * All values are ticks (picoseconds). The same data-bank parameters
 * are used for every evaluated DRAM-cache design, exactly as the
 * paper does; the tag-bank parameters apply to TDRAM (and, with the
 * paper's NDC settings, to NDC).
 */

#ifndef TSIM_DRAM_TIMING_HH
#define TSIM_DRAM_TIMING_HH

#include "sim/ticks.hh"

namespace tsim
{

/**
 * HM-bus slot width: the dedicated hit/miss bus delivers at most one
 * response per 0.75 ns (paper §IV-B). Shared by the channel model
 * (slot arbitration) and the protocol checker (slot exclusivity).
 */
constexpr Tick hmBusOccupancy = nsToTicks(0.75);

/** Timing parameters for one DRAM device/channel. */
struct TimingParams
{
    Tick clkPeriod = nsToTicks(0.5);  ///< 2 GHz command clock

    // --- Data banks (Table III, shared across all designs) ---
    Tick tBURST = nsToTicks(2);      ///< 64 B burst on a 32-bit channel
    Tick tRCD = nsToTicks(12);       ///< ACT to RD
    Tick tRCD_WR = nsToTicks(6);     ///< ACT to WR
    Tick tCCD_L = nsToTicks(2);      ///< column-to-column
    Tick tRP = nsToTicks(14);        ///< precharge
    Tick tRAS = nsToTicks(28);       ///< ACT to PRE
    Tick tCL = nsToTicks(18);        ///< RD to data
    Tick tCWL = nsToTicks(7);        ///< WR to data
    Tick tRRD = nsToTicks(2);        ///< ACT to ACT (different banks)
    Tick tXAW = nsToTicks(16);       ///< four-activate window
    Tick tRL_core = nsToTicks(2);    ///< internal read for wr-miss-dirty
    Tick tRTW_int = nsToTicks(1);    ///< internal rd->wr turnaround
    Tick tWR = nsToTicks(14);        ///< write recovery before PRE

    // --- Data-bus turnarounds at the DQ pins ---
    Tick tRTW = nsToTicks(4);        ///< read -> write bus turnaround
    Tick tWTR = nsToTicks(4);        ///< write -> read bus turnaround

    // --- Tag banks (TDRAM only; Table III bottom row) ---
    Tick tHM = nsToTicks(7.5);       ///< tag result to controller (bus)
    Tick tHM_int = nsToTicks(2.5);   ///< internal hit/miss detect
    Tick tRCD_TAG = nsToTicks(7.5);  ///< tag-mat activate to compare
    Tick tRC_TAG = nsToTicks(12);    ///< tag-bank cycle time

    // --- Refresh ---
    Tick tREFI = nsToTicks(3900);    ///< refresh interval
    Tick tRFC = nsToTicks(260);      ///< all-bank refresh duration

    /**
     * Burst-size scale for tag-and-data (TAD) designs.
     * Alloy/BEAR stream 80 B per 64 B demand; the paper models this
     * with increased timing parameters (tBURST etc.).
     */
    double burstScale = 1.0;

    /** Bank cycle time for a close-page read access. */
    Tick
    readBankBusy() const
    {
        return tRAS + tRP;
    }

    /** Bank cycle time for a close-page write access. */
    Tick
    writeBankBusy() const
    {
        Tick t = tRCD_WR + tCWL + dataBurst() + tWR + tRP;
        return t > tRAS + tRP ? t : tRAS + tRP;
    }

    /** Effective DQ occupancy of one data burst. */
    Tick
    dataBurst() const
    {
        return static_cast<Tick>(
            static_cast<double>(tBURST) * burstScale + 0.5);
    }

    /** ACT(Rd) issue to first data beat at the controller. */
    Tick
    readDataLatency() const
    {
        return tRCD + tCL;
    }

    /**
     * ActRd/probe issue to hit-miss result at the controller
     * (paper: tRCD_TAG + tHM = 15 ns, matching RLDRAM tRL).
     */
    Tick
    hmLatency() const
    {
        return tRCD_TAG + tHM;
    }
};

/** HBM3-like DRAM-cache device timings (Table III as written). */
TimingParams hbm3CacheTimings();

/** Alloy/BEAR variant: 80 B TAD bursts. */
TimingParams hbm3TadTimings();

/** DDR5 main-memory timings (slower core, same 2 GHz command clock). */
TimingParams ddr5Timings();

} // namespace tsim

#endif // TSIM_DRAM_TIMING_HH
