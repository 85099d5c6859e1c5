/**
 * @file
 * In-DRAM-tag designs: NDC [60] and TDRAM (this paper).
 *
 * Both access separate on-die tag banks in lockstep with the data
 * banks via ActRd/ActWr, compare tags inside the DRAM, and suppress
 * the data transfer on read-miss-clean. They differ in *when* the
 * controller learns the result and how victims drain:
 *
 *  - NDC ties hit/miss to the column operation (result arrives with
 *    the data slot), cannot probe early, and drains its victim
 *    buffer only through explicit RES commands that bubble the DQ
 *    bus.
 *  - TDRAM returns the result on the dedicated HM bus at
 *    tRCD_TAG + tHM = 15 ns, probes queued reads in idle CA/tag-bank
 *    slots, and unloads its flush buffer opportunistically in unused
 *    read-miss-clean DQ slots and refresh windows.
 */

#ifndef TSIM_DCACHE_IN_DRAM_HH
#define TSIM_DCACHE_IN_DRAM_HH

#include "dcache/dram_cache.hh"

namespace tsim
{

/**
 * The controller flow of NDC, TDRAM and TDRAM-noprobe; the device
 * (dcacheChannelConfig) is all that tells them apart.
 */
class InDramTagCtrl : public DramCacheCtrl
{
  public:
    using DramCacheCtrl::DramCacheCtrl;

  protected:
    void startAccess(const TxnPtr &txn) override;
    ChanOp fillOp() const override { return ChanOp::ActWr; }

    /** HM-bus (or column-time) tag result for a read demand. */
    void readTagResult(const TxnPtr &txn, Tick t, const TagResult &tr);

    /** Demand-read data (hit data or dirty victim) fully received. */
    void readDataDone(const TxnPtr &txn, Tick t);

    /** Backing-store data arrived for a read miss. */
    void mmDataArrived(const TxnPtr &txn, Tick t);

    /** Fill once both the victim transfer and mm data are in. */
    void maybeFill(const TxnPtr &txn);
};

} // namespace tsim

#endif // TSIM_DCACHE_IN_DRAM_HH
