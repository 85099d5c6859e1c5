/**
 * @file
 * Common memory-system types: addresses, commands, demand packets and
 * the DRAM-cache access outcome taxonomy used throughout the paper
 * (Table II / Figure 1).
 */

#ifndef TSIM_MEM_TYPES_HH
#define TSIM_MEM_TYPES_HH

#include <cstdint>
#include <string>

#include "sim/inline_function.hh"
#include "sim/ticks.hh"

namespace tsim
{

/** Physical byte address. */
using Addr = std::uint64_t;

/** Unique demand-packet identifier. */
using PacketId = std::uint64_t;

/** Cache-line size used system-wide (Intel/AMD CPUs, per the paper). */
constexpr unsigned lineBytes = 64;

/** Align an address down to its cache line. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Demand command as seen by the DRAM cache (from the LLC). */
enum class MemCmd : std::uint8_t
{
    Read,   ///< LLC read miss (latency critical; CPU observes it)
    Write,  ///< LLC writeback (not latency critical, buffer critical)
};

/**
 * DRAM-cache access outcome taxonomy (paper Table II / Figure 1).
 *
 * "Invalid" means the indexed line held no valid tag; "Clean"/"Dirty"
 * refer to the state of the *resident victim* line on a miss, or of
 * the line itself on a hit.
 */
enum class AccessOutcome : std::uint8_t
{
    ReadHitClean,
    ReadHitDirty,
    ReadMissInvalid,
    ReadMissClean,
    ReadMissDirty,
    WriteHitClean,
    WriteHitDirty,
    WriteMissInvalid,
    WriteMissClean,
    WriteMissDirty,
    NumOutcomes,
};

/** Short printable name for an AccessOutcome. */
const char *outcomeName(AccessOutcome o);

/** True for the five read outcomes. */
constexpr bool
outcomeIsRead(AccessOutcome o)
{
    return o <= AccessOutcome::ReadMissDirty;
}

/** True for hit outcomes (read or write). */
constexpr bool
outcomeIsHit(AccessOutcome o)
{
    return o == AccessOutcome::ReadHitClean ||
           o == AccessOutcome::ReadHitDirty ||
           o == AccessOutcome::WriteHitClean ||
           o == AccessOutcome::WriteHitDirty;
}

/**
 * A demand request travelling from the LLC to the DRAM cache.
 *
 * Timestamps are filled in by the DRAM-cache controller and are the
 * raw material for the paper's latency metrics (tag-check latency,
 * read-buffer queueing delay).
 */
struct MemPacket
{
    PacketId id = 0;
    Addr addr = 0;          ///< line-aligned physical address
    MemCmd cmd = MemCmd::Read;
    int coreId = 0;
    Addr pc = 0;            ///< requesting instruction (MAP-I input)

    Tick created = 0;       ///< accepted by the DRAM-cache controller
    Tick tagIssued = 0;     ///< entered a DRAM queue for its tag check
    Tick tagDone = 0;       ///< hit/miss known at the controller
    Tick completed = 0;     ///< response sent (reads) / retired (writes)

    AccessOutcome outcome = AccessOutcome::NumOutcomes;
};

/**
 * Completion callback handed in with each demand packet. Sized for
 * the request engines' captures (a component pointer plus a core
 * index) so the per-demand path never allocates.
 */
using RespCallback = InlineCallable<void(MemPacket &), 16>;

} // namespace tsim

#endif // TSIM_MEM_TYPES_HH
