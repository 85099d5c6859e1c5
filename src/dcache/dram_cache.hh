/**
 * @file
 * DRAM-cache controller framework.
 *
 * DramCacheCtrl is the front-end every evaluated design shares: it
 * owns the functional tag state, serializes same-set transactions
 * through a conflicting-request buffer (Table III: 32 entries),
 * forwards reads that hit pending writes, talks to the per-channel
 * DRAM back-ends and the main memory, and keeps the paper's metrics
 * (access-outcome breakdown, tag-check latency, read-queue delay,
 * useful/maintenance/discarded traffic for bandwidth bloat).
 *
 * Each protocol flow from §II/§III implements startAccess() once;
 * designs that differ only in their device (CascadeLake and Alloy;
 * NDC, TDRAM and TDRAM-noprobe) share one controller class and get
 * their channels from dcacheChannelConfig().
 */

#ifndef TSIM_DCACHE_DRAM_CACHE_HH
#define TSIM_DCACHE_DRAM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "dram/main_memory.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/open_map.hh"
#include "sim/slab_pool.hh"
#include "stats/stats.hh"
#include "tdram/tag_array.hh"
#include "trace/trace.hh"

namespace tsim
{

/** The DRAM-cache designs evaluated in the paper. */
enum class Design : std::uint8_t
{
    CascadeLake,   ///< tags in ECC bits; DRAM read for every tag check
    Alloy,         ///< tag-and-data 80 B bursts [58]
    Bear,          ///< Alloy + write-hit tag-check bypass [28]
    Ndc,           ///< in-DRAM tags tied to the column op [60]
    Tdram,         ///< this paper
    TdramNoProbe,  ///< TDRAM ablation without early tag probing
    Ideal,         ///< zero-latency tags (tags-in-SRAM upper bound)
    NoCache,       ///< main memory only
    TicToc,        ///< dirtiness-tracked probe/fill elision [PAPERS.md]
    Banshee,       ///< page-grain remap + bandwidth-aware replacement
};

const char *designName(Design d);

/**
 * The design that designName() spells @p name. An unknown name prints
 * "unknown design '<name>'; one of: ..." with every valid name to
 * stderr and exits 1, as parseCount() does for a bad count.
 */
Design parseDesign(const std::string &name);

/** Set @p d to the design designName() spells @p name; false if none. */
bool findDesign(const std::string &name, Design &d);

/** True for the CascadeLakeCtrl family, which has a MAP-I predictor. */
bool designHasPredictor(Design d);

/** Configuration shared by every DRAM-cache design. */
struct DramCacheConfig
{
    std::uint64_t capacityBytes = 16ULL << 20;
    unsigned ways = 1;             ///< associativity (§V-F)
    unsigned channels = 8;
    unsigned banks = 16;
    std::uint64_t rowBytes = 1024;
    unsigned readQCap = 64;
    unsigned writeQCap = 64;
    unsigned conflictBufEntries = 32;
    unsigned flushEntries = 16;
    /** Row-buffer policy for conventional devices (Table III uses
     *  close-page; Open is an ablation; ActRd/ActWr are inherently
     *  close-page combined commands). */
    PagePolicy pagePolicy = PagePolicy::Close;
    bool predictor = false;        ///< MAP-I on CascadeLake (§V-D)
    unsigned prefetchDegree = 0;   ///< next-line prefetch on read miss
    Tick ctrlLatency = nsToTicks(2); ///< controller fast-path latency
    bool refreshEnabled = true;

    /** Remap granularity for page-grain designs (Banshee). */
    std::uint64_t pageBytes = 4096;

    /**
     * Ablation: disable TDRAM's conditional data response so
     * read-miss-cleans still stream (discarded) data, isolating the
     * contribution of the column-gating mechanism (§III-C3).
     */
    bool tdramConditionalColumn = true;

    bool operator==(const DramCacheConfig &) const = default;
};

/**
 * The channel every DRAM-cache channel of @p design runs under @p cfg:
 * the device timing (64 B bursts, or Alloy/BEAR/TicToc's 80 B TAD
 * bursts), the capability bits (in-DRAM tags, HM bus, conditional
 * column, early probing, flush buffer, page-grain remap), and the
 * geometry and queue sizes of @p cfg. The one description of each
 * design's device: the controllers build their channels from it and
 * the protocol checker audits against it, inline and offline.
 */
ChannelConfig dcacheChannelConfig(Design design,
                                  const DramCacheConfig &cfg);

/** Abstract DRAM-cache controller. */
class DramCacheCtrl : public SimObject
{
  public:
    /** Builds cfg.channels channels of dcacheChannelConfig(). */
    DramCacheCtrl(EventQueue &eq, std::string name, Design design,
                  const DramCacheConfig &cfg, MainMemory &mm);
    ~DramCacheCtrl() override;

    /** Admission control: false applies backpressure to the LLC. */
    bool canAccept(const MemPacket &pkt) const;

    /** Accept one demand; @p cb fires on completion. */
    void access(MemPacket pkt, RespCallback cb);

    /**
     * Functional-only access for warmup: applies the steady-state
     * tag transition (fill on read miss, write-allocate on write
     * miss) without consuming simulated time or touching stats.
     */
    virtual void warmAccess(Addr addr, bool is_write);

    /** True when the design consults a hit/miss predictor (§V-D). */
    bool
    hasPredictor() const
    {
        return _cfg.predictor && designHasPredictor(_design);
    }

    /** Prediction accuracy when a predictor is configured (§V-D). */
    virtual double predictorAccuracy() const { return 0.0; }

    /** @name Statistics. */
    /// @{
    Scalar demandReads;
    Scalar demandWrites;
    Scalar outcomes[static_cast<unsigned>(AccessOutcome::NumOutcomes)];
    Histogram tagCheckLatency{2.0, 512};  ///< ns (Fig 9)
    Histogram readLatency{4.0, 512};      ///< ns, demand reads
    Scalar fwdFromWriteBuf;      ///< reads served from pending writes
    Scalar servedFromFlush;      ///< reads served from the flush buffer
    Scalar predictedMiss;        ///< MAP-I predicted misses (reads)
    Scalar predictorWrongFetch;  ///< wasted early fetches (pred. miss, hit)
    Scalar prefetchIssued;       ///< next-line prefetches sent to mm
    Scalar prefetchUseful;       ///< prefetched lines later demanded
    Scalar bytesDemandServing;   ///< cache DQ bytes servicing demands
    Scalar bytesMaintenance;     ///< fills, victim writebacks, drains
    Scalar bytesDiscarded;       ///< discarded tag-read data, TAD pad
    /// @}

    std::uint64_t
    outcomeCount(AccessOutcome o) const
    {
        return static_cast<std::uint64_t>(
            outcomes[static_cast<unsigned>(o)].value());
    }

    /** DRAM-cache miss ratio over all demands. */
    double missRatio() const;

    /** Bandwidth bloat factor: total cache traffic / demand-serving. */
    double bloatFactor() const;

    /** Fraction of cache traffic that served no purpose (Fig 3). */
    double unusefulFraction() const;

    /** Mean read-buffer queueing delay over all channels (Fig 10). */
    double meanReadQueueDelayNs() const;

    /** Mean tag-check latency (Fig 9). */
    double meanTagCheckLatencyNs() const
    {
        return tagCheckLatency.mean();
    }

    virtual void regStats(StatGroup &g) const;

    /** Print controller/channel live state (deadlock debugging). */
    void dumpDebug(std::FILE *f) const;

    /**
     * Optional event-trace sink for controller-level demand events
     * (DESIGN.md §10); null disables. Channel-level command events go
     * to the per-channel DramChannel::traceBuf instead.
     */
    TraceBuffer *traceBuf = nullptr;

    /**
     * Optional inline protocol checker for the demand-pairing rules
     * (DESIGN.md §11); null disables. Channel-level command events go
     * to the per-channel DramChannel::checker instead.
     */
    ProtocolChecker *checker = nullptr;
    unsigned checkChannel = 0;

    DramChannel &channel(unsigned i) { return *_chans[i]; }
    const DramChannel &channel(unsigned i) const { return *_chans[i]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(_chans.size());
    }
    const TagArray &tags() const { return _tags; }
    MainMemory &mainMemory() { return _mm; }

    /**
     * Demands accepted but not yet responded to. The run loop keeps
     * stepping past CoreEngine::done() until this reaches zero so
     * fire-and-forget writes still in flight get their responses
     * (and the checker sees every DemandStart paired).
     */
    std::uint64_t inFlightDemands() const { return _inFlight; }

    /**
     * False while design-internal maintenance (e.g. a page-grain
     * fill group) is still in flight. The run loop drains it before
     * stopping so traces never truncate mid-operation.
     */
    virtual bool quiescent() const { return true; }

    /**
     * @name Bus events (src/sim/event_bus.hh, DESIGN.md §13).
     * Controller-level demand events plus stats-only occurrences;
     * channel-level command events live on DramChannel.
     */
    /// @{
    struct DemandStartEv
    {
        static constexpr TraceKind kind = TraceKind::DemandStart;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;  ///< 1 = write demand

        void
        stats(DramCacheCtrl &c) const
        {
            if (extra)
                ++c.demandWrites;
            else
                ++c.demandReads;
        }
    };

    struct DemandDoneEv
    {
        static constexpr TraceKind kind = TraceKind::DemandDone;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;  ///< AccessOutcome
        bool isRead;
        double latencyNs;

        void
        stats(DramCacheCtrl &c) const
        {
            if (isRead)
                c.readLatency.sample(latencyNs);
        }
    };

    /** Same-set conflict parked behind the MSHR FIFO head. */
    struct ConflictQueuedEv
    {
        static constexpr bool traced = false;
        double occupancy;  ///< waiting demands across all sets

        void
        stats(DramCacheCtrl &c) const
        {
            c._conflictOcc.sample(occupancy);
        }
    };

    /** Read-side tag resolution completed (Fig 9 latency). */
    struct TagResolvedEv
    {
        static constexpr bool traced = false;
        double latencyNs;

        void
        stats(DramCacheCtrl &c) const
        {
            c.tagCheckLatency.sample(latencyNs);
        }
    };
    /// @}

  protected:
    /**
     * One in-flight demand transaction. Slab-pooled with an intrusive
     * refcount (PoolItem) so the controller's hot path allocates
     * nothing; setNext links same-set transactions into the MSHR's
     * intrusive FIFO.
     */
    struct Txn : PoolItem<Txn>
    {
        MemPacket pkt;
        RespCallback cb;
        bool tagResolved = false;
        bool finished = false;
        bool mmStarted = false;
        Tick mmDataAt = 0;      ///< backing-store data arrival (0 = not yet)
        bool victimDone = false; ///< dirty-victim data left the cache
        bool fillIssued = false;
        TagResult tr{};
        std::uint64_t chanReqId = 0;
        Txn *setNext = nullptr;  ///< next queued demand of the same set
    };
    /**
     * Capture into callback lambdas with an init-capture
     * (`txn = txn`), never `[this, txn]`: capturing a
     * `const TxnPtr &` parameter by copy gives the closure a *const*
     * PoolRef member, whose move degrades to the (refcounting) copy
     * constructor and pushes the closure off InlineCallable's
     * noexcept-move inline path onto the heap.
     */
    using TxnPtr = PoolRef<Txn>;

    /** Design-specific protocol flow for one demand. */
    virtual void startAccess(const TxnPtr &txn) = 0;

    /** NoCache bypasses the set-serialized MSHR path. */
    virtual bool usesMshr() const { return true; }

    /**
     * Can the design's *initial* DRAM-cache operation for @p pkt be
     * enqueued right now? Used by canAccept.
     */
    virtual bool initialOpAdmissible(const MemPacket &pkt) const;

    /** @name Helpers for the design subclasses. */
    /// @{
    unsigned chanIdx(Addr addr) const { return _map.decode(addr).channel; }
    DramChannel &channelFor(Addr addr) { return *_chans[chanIdx(addr)]; }

    /**
     * Classify + apply the functional tag transition for @p txn at
     * tick @p when (the moment the controller learns the tag result).
     * Idempotent: later calls (e.g. main HM after a probe) no-op.
     *
     * @param sample_latency False when no tag check was actually
     *        performed (e.g. BEAR's write-hit bypass), so the sample
     *        must not enter the Fig 9 tag-check-latency statistic.
     */
    void resolveTags(const TxnPtr &txn, Tick when,
                     bool sample_latency = true);

    /**
     * Send the response for @p txn at @p when (latency observed by
     * the requester). Idempotent; does not release the MSHR.
     */
    void respond(const TxnPtr &txn, Tick when);

    /**
     * Release @p txn's MSHR entry, allowing queued same-set demands
     * to proceed. Call only after every cache-state-affecting
     * operation of the transaction has been issued.
     */
    void release(const TxnPtr &txn);

    /** respond() + release() for flows that complete in one step. */
    void finish(const TxnPtr &txn, Tick when);

    /** Enqueue on the right channel, retrying while the queue is full. */
    void enqueueChan(ChanReq req, bool is_write);

    /** Install the line and enqueue the design's fill write. */
    void doFill(Addr addr);

    /** Design-specific fill operation (Write vs ActWr). */
    virtual ChanOp fillOp() const { return ChanOp::Write; }

    void addPendingWrite(Addr addr) { ++_pendingWrites[addr]; }
    void removePendingWrite(Addr addr);
    bool isPendingWrite(Addr addr) const
    {
        return _pendingWrites.contains(addr);
    }

    void mmRead(Addr addr, MmReadCb cb);
    void mmWrite(Addr addr);

    /** Account one cache-DQ transfer into the three traffic classes. */
    void
    accountCache(std::uint64_t serving, std::uint64_t maintenance,
                 std::uint64_t discarded)
    {
        bytesDemandServing += static_cast<double>(serving);
        bytesMaintenance += static_cast<double>(maintenance);
        bytesDiscarded += static_cast<double>(discarded);
    }

    /** Demand-burst size on the cache DQ (64 or 80 bytes). */
    unsigned burstBytes() const { return _burstBytes; }

    std::uint64_t nextChanId() { return _nextChanId++; }
    /// @}

    Design _design;
    DramCacheConfig _cfg;
    TagArray _tags;
    AddressMap _map;
    std::vector<std::unique_ptr<DramChannel>> _chans;
    MainMemory &_mm;

  private:
    void beginTxn(const TxnPtr &txn);
    bool tryFastPath(const TxnPtr &txn);

    /** Issue next-line prefetches after a read miss (§V-D). */
    void maybePrefetch(Addr addr);

    /**
     * Intrusive per-set MSHR FIFO: head/tail of the Txn::setNext
     * chain. The map holds one queue reference on every linked Txn.
     */
    struct SetFifo
    {
        Txn *head = nullptr;
        Txn *tail = nullptr;
    };

    SlabPool<Txn> _txnPool;
    OpenHashMap<SetFifo> _setQueues;
    unsigned _waiting = 0;  ///< conflicting-request buffer occupancy
    Histogram _conflictOcc{1.0, 40};
    OpenHashMap<unsigned> _pendingWrites;
    OpenHashSet _prefetched;               ///< awaiting first demand
    std::uint64_t _inFlight = 0;  ///< accepted, not yet responded
    std::uint64_t _nextChanId = 1;
    unsigned _burstBytes = lineBytes;
};

/** Build the requested design over @p mm. */
std::unique_ptr<DramCacheCtrl>
makeDramCache(EventQueue &eq, Design design, const DramCacheConfig &cfg,
              MainMemory &mm);

} // namespace tsim

#endif // TSIM_DCACHE_DRAM_CACHE_HH
