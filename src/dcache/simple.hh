/**
 * @file
 * Bounding designs: the Ideal cache (zero-latency tag/metadata
 * knowledge, the tags-in-SRAM upper bound of Fig 11) and the
 * NoCache pass-through (main memory only, the Fig 12 baseline).
 */

#ifndef TSIM_DCACHE_SIMPLE_HH
#define TSIM_DCACHE_SIMPLE_HH

#include "dcache/dram_cache.hh"

namespace tsim
{

/** Ideal cache: hit/miss and dirty state known in zero time. */
class IdealCtrl : public DramCacheCtrl
{
  public:
    IdealCtrl(EventQueue &eq, std::string name,
              const DramCacheConfig &cfg, MainMemory &mm);

  protected:
    void startAccess(const TxnPtr &txn) override;

  private:
    void startRead(const TxnPtr &txn);
    void startWrite(const TxnPtr &txn);
    void maybeFill(const TxnPtr &txn);
};

/** No DRAM cache: demands go straight to main memory. */
class NoCacheCtrl : public DramCacheCtrl
{
  public:
    NoCacheCtrl(EventQueue &eq, std::string name,
                const DramCacheConfig &cfg, MainMemory &mm);

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool usesMshr() const override { return false; }
};

} // namespace tsim

#endif // TSIM_DCACHE_SIMPLE_HH
