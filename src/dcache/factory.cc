/**
 * @file
 * Each design's DRAM-cache device (timing and capability bits, in one
 * place) and the factory assembling the requested controller.
 */

#include "dcache/banshee.hh"
#include "dcache/conventional.hh"
#include "dcache/dram_cache.hh"
#include "dcache/in_dram.hh"
#include "dcache/simple.hh"
#include "dcache/tictoc.hh"
#include "dram/timing.hh"

namespace tsim
{

ChannelConfig
dcacheChannelConfig(Design design, const DramCacheConfig &cfg)
{
    ChannelConfig c;
    c.timing = hbm3CacheTimings();
    c.banks = cfg.banks;
    c.rowBytes = cfg.rowBytes;
    c.pagePolicy = cfg.pagePolicy;
    c.flushEntries = cfg.flushEntries;
    c.pageBytes = cfg.pageBytes;
    c.readQCap = cfg.readQCap;
    c.writeQCap = cfg.writeQCap;
    c.writeHigh = cfg.writeQCap * 3 / 4;
    c.writeLow = cfg.writeQCap / 4;
    c.refreshEnabled = cfg.refreshEnabled;
    switch (design) {
      case Design::CascadeLake:
      case Design::Ideal:
        // Plain HBM3-style device: no in-DRAM tags, no HM bus, no
        // flush buffer; the controller learns hit/miss from the data.
        break;
      case Design::Alloy:
      case Design::Bear:
      case Design::TicToc:
        // Tag-and-data layout: 80 B TAD bursts per 64 B demand
        // (TicToc only elides the accesses it proves useless).
        c.timing = hbm3TadTimings();
        break;
      case Design::Ndc:
        c.inDramTags = true;
        c.hmAtColumn = true;        // result tied to the column op
        c.conditionalColumn = true; // moves the same bytes as TDRAM
        c.hasFlushBuffer = true;    // NDC's victim buffer
        c.opportunisticDrain = false; // drains only via explicit RES
        break;
      case Design::Tdram:
      case Design::TdramNoProbe:
        c.inDramTags = true;        // HM bus result at tRCD_TAG + tHM
        c.conditionalColumn = cfg.tdramConditionalColumn;
        c.enableProbe = design == Design::Tdram;
        c.hasFlushBuffer = true;
        break;
      case Design::NoCache:
        // The cache channels are never used; silence their refresh.
        c.refreshEnabled = false;
        break;
      case Design::Banshee:
        // The remap table is SRAM-side, so the device is plain; fill
        // groups write pageBytes/lineBytes lines, line-interleaved
        // over the channels.
        c.remapTable = true;
        c.fillGroupLines = static_cast<unsigned>(
            cfg.pageBytes / lineBytes / cfg.channels);
        break;
    }
    return c;
}

std::unique_ptr<DramCacheCtrl>
makeDramCache(EventQueue &eq, Design design, const DramCacheConfig &cfg,
              MainMemory &mm)
{
    const std::string n = std::string("dcache.") + designName(design);
    switch (design) {
      case Design::CascadeLake:
      case Design::Alloy:
        return std::make_unique<CascadeLakeCtrl>(eq, n, design, cfg, mm);
      case Design::Bear:
        return std::make_unique<BearCtrl>(eq, n, design, cfg, mm);
      case Design::Ndc:
      case Design::Tdram:
      case Design::TdramNoProbe:
        return std::make_unique<InDramTagCtrl>(eq, n, design, cfg, mm);
      case Design::Ideal:
        return std::make_unique<IdealCtrl>(eq, n, cfg, mm);
      case Design::NoCache:
        return std::make_unique<NoCacheCtrl>(eq, n, cfg, mm);
      case Design::TicToc:
        return std::make_unique<TicTocCtrl>(eq, n, design, cfg, mm);
      case Design::Banshee:
        return std::make_unique<BansheeCtrl>(eq, n, cfg, mm);
      default:
        panic("unknown DRAM-cache design");
    }
}

} // namespace tsim
