/**
 * @file
 * What one DRAM channel is: its device timing, capabilities, queue
 * sizes and row-buffer policy. The channel model (dram/channel.hh)
 * runs it and the protocol checker (check/check.hh) audits against
 * it, so both read this header and neither includes the other.
 */

#ifndef TSIM_DRAM_CHANNEL_CONFIG_HH
#define TSIM_DRAM_CHANNEL_CONFIG_HH

#include <cstdint>

#include "dram/timing.hh"

namespace tsim
{

/** Row-buffer management policy. */
enum class PagePolicy : std::uint8_t
{
    Close,  ///< auto-precharge after every column op (Table III)
    Open,   ///< rows stay open; FR-FCFS prefers row hits
};

/** Capability and policy knobs for one channel. */
struct ChannelConfig
{
    TimingParams timing{};
    unsigned banks = 16;          ///< logical (paired) banks
    std::uint64_t rowBytes = 1024;
    PagePolicy pagePolicy = PagePolicy::Close;

    bool inDramTags = false;      ///< device checks tags (TDRAM/NDC)
    bool hmAtColumn = false;      ///< NDC: result tied to column op
    bool conditionalColumn = false; ///< skip transfer on miss-clean
    bool enableProbe = false;     ///< TDRAM early tag probing
    bool hasFlushBuffer = false;  ///< device-side victim buffer
    unsigned flushEntries = 16;
    bool opportunisticDrain = true; ///< TDRAM-style unloading

    /**
     * Page-grain remap layer (Banshee). Remap records open a fill
     * group; flagged fill writes / spill reads stay in lockstep with
     * it (fillGroupLines per channel, addresses inside the
     * installed/evicted page of pageBytes).
     */
    bool remapTable = false;
    unsigned fillGroupLines = 0;  ///< fill writes per channel per group
    std::uint64_t pageBytes = 4096; ///< remap granularity

    unsigned readQCap = 64;
    unsigned writeQCap = 64;
    unsigned writeHigh = 48;      ///< enter write-drain mode
    unsigned writeLow = 16;       ///< leave write-drain mode
    bool refreshEnabled = true;
};

} // namespace tsim

#endif // TSIM_DRAM_CHANNEL_CONFIG_HH
