/**
 * @file
 * Banshee-style page-grain DRAM cache (PAPERS.md).
 *
 * Banshee manages DRAM-cache contents at page granularity through a
 * TLB/page-table-assisted remap layer (condensed here into the
 * RemapTable SimObject):
 *
 *  - Demands to *mapped* pages hit the cache unconditionally — the
 *    remap lookup is SRAM-side, so the tag check is free and every
 *    cache access moves useful data (no tag-read bloat).
 *  - Demands to *unmapped* pages bypass the cache to main memory
 *    while bumping a candidate frequency counter; once a candidate
 *    out-weighs the would-be victim by a threshold, the controller
 *    remaps the page: dirty victim lines spill to memory, the whole
 *    page streams in from memory, and every channel is notified via
 *    a Remap trace event so the protocol checker can audit the fill
 *    group's lockstep.
 *
 * Fills are serialized (one page in flight) and page-grain: each one
 * issues pageBytes/lineBytes fill writes, tagged with traceFillFlag
 * and a 16-bit fill-group id; victim spills use traceSpillFlag.
 * Replacement is frequency-based and bandwidth-aware — pages of
 * roughly equal worth never churn.
 */

#ifndef TSIM_DCACHE_BANSHEE_HH
#define TSIM_DCACHE_BANSHEE_HH

#include <array>

#include "dcache/dram_cache.hh"
#include "dcache/remap_table.hh"
#include "sim/open_map.hh"

namespace tsim
{

/** Banshee: page-grain remapped cache with bandwidth-aware fills. */
class BansheeCtrl : public DramCacheCtrl
{
  public:
    BansheeCtrl(EventQueue &eq, std::string name,
                const DramCacheConfig &cfg, MainMemory &mm);

    void warmAccess(Addr addr, bool is_write) override;
    void regStats(StatGroup &g) const override;

    /** The constructor's rule: a page is whole lines on every channel. */
    static bool
    pageSplitsOverChannels(std::uint64_t page_bytes, unsigned channels)
    {
        return channels > 0 &&
               page_bytes % (std::uint64_t{lineBytes} * channels) == 0;
    }

    const RemapTable &remapTable() const { return _remap; }

    /** Drained only when no page fill (spills included) is in flight. */
    bool quiescent() const override { return !_fillActive; }

    /** @name Statistics. */
    /// @{
    Scalar pageFills;     ///< timed-phase page fills started
    Scalar spilledLines;  ///< dirty victim lines written back
    Scalar fillsDropped;  ///< fill candidates lost to a full queue
    /// @}

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool initialOpAdmissible(const MemPacket &pkt) const override;

  private:
    /** Candidate must beat the victim's frequency by this margin. */
    static constexpr std::uint64_t kFillThreshold = 2;
    /** Fill candidates parked while another fill is in flight. */
    static constexpr unsigned kMaxPendingFills = 8;

    Addr pageAlign(Addr a) const { return a - a % _cfg.pageBytes; }
    unsigned linesPerPage() const
    {
        return static_cast<unsigned>(_cfg.pageBytes / lineBytes);
    }

    /**
     * Mapped for demand purposes: the page being filled is excluded
     * until its lines are all resident, so demand classification and
     * tag state never disagree mid-fill.
     */
    bool
    mappedForDemand(Addr page) const
    {
        if (_fillActive && page == _fillPage)
            return false;
        return _remap.contains(page);
    }

    /**
     * Classify a bypassed (unmapped) demand: outcome accounting and
     * tag-done bookkeeping like resolveTags, but with no functional
     * tag transition — the line is not being cached.
     */
    void classifyBypass(const TxnPtr &txn, Tick when);

    /** Bump @p page's candidate counter; maybe kick off its fill. */
    void trackCandidate(Addr page);

    /** True when @p page out-weighs its would-be victim right now. */
    bool
    fillQualifies(Addr page) const
    {
        const std::uint64_t *f = _candFreq.find(page);
        return f && *f >= _remap.victimFreq(page) + kFillThreshold;
    }

    void startFill(Addr page);
    void spillVictim(Addr victim);
    void fillLineArrived(Addr line);
    void fillOpDone();
    void spillOpDone();
    void completeIfDrained();

    RemapTable _remap;
    OpenHashMap<std::uint64_t> _candFreq;  ///< unmapped page → freq

    bool _fillActive = false;
    Addr _fillPage = 0;
    std::uint32_t _fillGroup = 0;
    std::uint32_t _nextGroup = 0;
    unsigned _fillOutstanding = 0;
    unsigned _spillOutstanding = 0;
    std::array<Addr, kMaxPendingFills> _pendingFills{};
    unsigned _pendingCount = 0;
};

} // namespace tsim

#endif // TSIM_DCACHE_BANSHEE_HH
