/**
 * @file
 * TicToc DRAM cache (PAPERS.md): a conventional tags-with-data
 * organization that tracks per-line dirtiness/cleanliness in the
 * controller and uses it to elide the two most wasteful conventional
 * flows:
 *
 *  - Write demands whose set cannot displace a dirty victim skip the
 *    tag-check read entirely (the tracked state proves the write is
 *    safe), going straight to the write queue like BEAR's write-hit
 *    bypass but without needing a presence hint.
 *  - Read misses over a valid *dirty* victim skip both the victim
 *    writeback and the fill: the demand is served from main memory
 *    and the dirty victim stays resident, so the cache never spends
 *    bandwidth turning one dirty line into another.
 *
 * Consequence (asserted by the conformance suite): TicToc never
 * issues a clean writeback — every main-memory write corresponds to
 * a WriteMissDirty eviction.
 */

#ifndef TSIM_DCACHE_TICTOC_HH
#define TSIM_DCACHE_TICTOC_HH

#include "dcache/conventional.hh"

namespace tsim
{

/** TicToc: dirtiness-tracked probe/fill elision over the CL flow. */
class TicTocCtrl : public CascadeLakeCtrl
{
  public:
    using CascadeLakeCtrl::CascadeLakeCtrl;

    void warmAccess(Addr addr, bool is_write) override;
    void regStats(StatGroup &g) const override;

    /** @name Statistics. */
    /// @{
    Scalar tagReadsElided;  ///< write-path tag checks skipped
    Scalar fillsElided;     ///< read-miss-dirty fills skipped
    /// @}

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool initialOpAdmissible(const MemPacket &pkt) const override;
    void tagDataArrived(const TxnPtr &txn, Tick t) override;

  private:
    /** Would a write to @p addr displace a valid dirty victim? */
    bool
    writeEvictsDirty(Addr addr) const
    {
        const TagResult p = _tags.peek(addr);
        return !p.hit && p.valid && p.dirty;
    }
};

} // namespace tsim

#endif // TSIM_DCACHE_TICTOC_HH
