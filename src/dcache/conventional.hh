/**
 * @file
 * Conventional tags-with-data DRAM-cache designs (§II-A):
 *
 *  - CascadeLake: Intel's commercial design; tags live in the ECC
 *    bits of the data row, so *every* demand (read and write) first
 *    issues a DRAM read through the read queue to fetch tag+data.
 *  - Alloy: same flow but streams 80 B tag-and-data (TAD) units.
 *  - BEAR: Alloy plus a DRAM-cache-presence hint that lets LLC
 *    writebacks that hit skip the tag-check read entirely.
 *
 * CascadeLake optionally carries the MAP-I predictor (§V-D): reads
 * predicted to miss start the backing-store fetch in parallel with
 * the tag check (writes always need the tag read for dirty safety).
 */

#ifndef TSIM_DCACHE_CONVENTIONAL_HH
#define TSIM_DCACHE_CONVENTIONAL_HH

#include "dcache/dram_cache.hh"
#include "dcache/predictor.hh"

namespace tsim
{

/** Intel Cascade Lake-style tags-in-ECC DRAM cache. */
class CascadeLakeCtrl : public DramCacheCtrl
{
  public:
    /** @p design: CascadeLake, Alloy (the same flow on a TAD
     *  device), or a design that extends the flow. */
    CascadeLakeCtrl(EventQueue &eq, std::string name, Design design,
                    const DramCacheConfig &cfg, MainMemory &mm);

    double
    predictorAccuracy() const override
    {
        return _pred.accuracy();
    }

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool initialOpAdmissible(const MemPacket &pkt) const override;

    /** Tag+data read returned; run the design's decision tree. */
    virtual void tagDataArrived(const TxnPtr &txn, Tick t);

    /** Backing-store data for a read miss arrived. */
    void mmDataArrived(const TxnPtr &txn, Tick t);

    /** Enqueue the demand-write data after a write's tag check. */
    void issueDemandWrite(const TxnPtr &txn);

    MapIPredictor _pred;
};

/** BEAR: Alloy + write-hit tag-check bypass via LLC presence bits. */
class BearCtrl : public CascadeLakeCtrl
{
  public:
    using CascadeLakeCtrl::CascadeLakeCtrl;

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool initialOpAdmissible(const MemPacket &pkt) const override;
};

} // namespace tsim

#endif // TSIM_DCACHE_CONVENTIONAL_HH
