/**
 * @file
 * Multi-core request engine.
 *
 * Replaces gem5's cores + OS (DESIGN.md substitution #1): each core
 * runs an address-stream generator through a private L1 and the
 * shared LLC; LLC misses become DRAM-cache read demands and LLC
 * dirty evictions become DRAM-cache write demands. Cores are
 * MLP-limited (a bounded number of outstanding fills), so demand
 * latency directly throttles progress — the property the paper's
 * speedup results rest on.
 */

#ifndef TSIM_WORKLOAD_CORE_ENGINE_HH
#define TSIM_WORKLOAD_CORE_ENGINE_HH

#include <memory>
#include <vector>

#include "cache/sram_cache.hh"
#include "dcache/dram_cache.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/generator.hh"
#include "workload/request_engine.hh"

namespace tsim
{

/** Core/cache-hierarchy parameters (scaled from Table III / Fig 8). */
struct CoreConfig
{
    unsigned cores = 8;
    unsigned mlp = 4;             ///< outstanding DRAM-cache reads/core
    Tick thinkTime = nsToTicks(3);///< issue gap between memory ops
    std::uint64_t opsPerCore = 100000;

    std::uint64_t l1Bytes = 64 * 1024;
    std::uint64_t llcBytes = 2 * 1024 * 1024;

    bool operator==(const CoreConfig &) const = default;
};

/** Drives the whole hierarchy with one workload. */
class CoreEngine : public RequestEngine
{
  public:
    /**
     * @param gens One generator per core (cfg.cores entries).
     */
    CoreEngine(EventQueue &eq, std::string name, const CoreConfig &cfg,
               std::vector<std::unique_ptr<AddressGenerator>> gens,
               DramCacheCtrl &dcache, std::uint64_t seed);

    /** Schedule the first issue event of every core. */
    void start() override;

    /** True once every core issued and retired all its operations. */
    bool done() const override { return _coresDone == _cfg.cores; }

    /** Tick at which the last core finished. */
    Tick finishTick() const override { return _finishTick; }

    /**
     * Warm the functional state (L1s, LLC, DRAM-cache tags) with
     * @p ops_per_core operations per core, consuming no simulated
     * time. Mirrors the paper's warmed-up checkpoints (§IV-B). The
     * L1 and LLC statistics restart from zero afterwards, so they
     * count the measured phase only.
     */
    void warmup(std::uint64_t ops_per_core) override;

    /** @name Statistics. */
    /// @{
    Scalar opsRetired;
    Scalar demandReadsIssued;
    Scalar demandWritesIssued;
    Scalar backpressureStalls;
    Histogram demandReadLatency{4.0, 512};  ///< ns at the core
    /// @}

    double
    meanDemandReadLatencyNs() const override
    {
        return demandReadLatency.mean();
    }

    std::uint64_t
    backpressureStallCount() const override
    {
        return static_cast<std::uint64_t>(backpressureStalls.value());
    }

    SramCache &llc() { return _llc; }
    SramCache &l1(unsigned core) { return *_l1s[core]; }

    void regStats(StatGroup &g) const override;

    /** Print per-core live state (deadlock debugging). */
    void dumpDebug(std::FILE *f) const override;

  private:
    /**
     * Node of a core's backpressured-demand FIFO. Nodes are recycled
     * through an engine-wide free list carved from chunked slabs, so
     * the issue path never allocates once warm.
     */
    struct StallNode
    {
        MemPacket pkt;
        StallNode *next = nullptr;
    };

    struct Core
    {
        std::unique_ptr<AddressGenerator> gen;
        std::uint64_t issued = 0;       ///< ops consumed from the gen
        std::uint64_t retired = 0;
        unsigned outstanding = 0;       ///< in-flight DRAM-cache reads
        Tick readyAt = 0;               ///< local pipeline time
        bool issueScheduled = false;
        bool finished = false;
        StallNode *stalledHead = nullptr;  ///< backpressured demands
        StallNode *stalledTail = nullptr;
        bool hasStalled() const { return stalledHead != nullptr; }
    };

    void advance(unsigned c);
    void scheduleAdvance(unsigned c, Tick when);

    /** Try to issue every parked demand. @return true if all went. */
    bool drainStalled(unsigned c);

    bool issueDemand(unsigned c, MemPacket &pkt);
    void readReturned(unsigned c, const MemPacket &pkt);
    void maybeFinish(unsigned c);

    /** Park one demand at the tail of @p core's stalled FIFO. */
    void pushStalled(Core &core, const MemPacket &pkt);
    /** Unlink the front stalled demand and recycle its node. */
    void popStalled(Core &core);
    StallNode *allocStall();

    CoreConfig _cfg;
    DramCacheCtrl &_dcache;
    SramCache _llc;
    std::vector<std::unique_ptr<SramCache>> _l1s;
    std::vector<Core> _cores;
    Rng _rng;
    unsigned _coresDone = 0;
    Tick _finishTick = 0;
    PacketId _nextPktId = 1;
    std::vector<std::unique_ptr<StallNode[]>> _stallChunks;
    StallNode *_stallFree = nullptr;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_CORE_ENGINE_HH
