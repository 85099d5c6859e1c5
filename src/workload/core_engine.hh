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
    /// @}

    SramCache &llc() { return _llc; }
    SramCache &l1(unsigned core) { return *_l1s[core]; }

    void regStats(StatGroup &g) const override;

    /** Print per-core live state (deadlock debugging). */
    void dumpDebug(std::FILE *f) const override;

  private:
    /** Where an op's line was found in the SRAM levels. */
    enum class SramHit
    {
        L1,
        Llc,
        None,
    };

    /**
     * Demands one op can leave for the DRAM cache: the dirty LLC
     * victims of the L1 writeback and of the fetch, then the fetch.
     */
    static constexpr unsigned maxDemandsPerOp = 3;

    struct Core
    {
        std::unique_ptr<AddressGenerator> gen;
        std::uint64_t issued = 0;       ///< ops consumed from the gen
        std::uint64_t retired = 0;
        unsigned outstanding = 0;       ///< in-flight DRAM-cache reads
        Tick readyAt = 0;               ///< local pipeline time
        bool issueScheduled = false;
        bool finished = false;
        /**
         * Backpressured demands, issued from stalledHead. Only an op
         * parks demands, and advance() drains them or returns before
         * the next op, so one op's demands are all it ever holds.
         */
        MemPacket stalled[maxDemandsPerOp];
        unsigned stalledHead = 0;
        unsigned stalledEnd = 0;
        bool hasStalled() const { return stalledHead < stalledEnd; }
    };

    /**
     * Run one op on @p line through a core's @p l1 and the LLC. An
     * L1 hit ends there. Otherwise a dirty L1 victim is written into
     * the LLC, and @p demand(addr, is_write) receives, in issue
     * order, the dirty LLC victim that writeback evicts, the dirty
     * LLC victim the fetch evicts, and on an LLC miss the fetch.
     */
    template <class Demand>
    SramHit sramStep(SramCache &l1, Addr line, bool is_store,
                     Demand &&demand);

    void advance(unsigned c);
    void scheduleAdvance(unsigned c, Tick when);

    /** Try to issue every parked demand. @return true if all went. */
    bool drainStalled(unsigned c);

    void readReturned(unsigned c, const MemPacket &pkt);
    void maybeFinish(unsigned c);

    CoreConfig _cfg;
    SramCache _llc;
    std::vector<std::unique_ptr<SramCache>> _l1s;
    std::vector<Core> _cores;
    Rng _rng;
    unsigned _coresDone = 0;
    PacketId _nextPktId = 1;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_CORE_ENGINE_HH
