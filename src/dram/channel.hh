/**
 * @file
 * Cycle-level model of one DRAM channel and its per-channel
 * controller back-end.
 *
 * One class models every device kind the paper evaluates; the
 * ChannelConfig capability flags select the behaviour:
 *
 *  - Conventional (CascadeLake / Alloy / BEAR devices): plain
 *    close-page ACT+RD / ACT+WR accesses; tags ride in the data
 *    burst, so the controller learns hit/miss only when read data
 *    arrives.
 *  - TDRAM: in-DRAM tag mats (tRC_TAG cycle time), ActRd/ActWr
 *    lockstep commands, HM bus with results at tRCD_TAG + tHM,
 *    conditional column operation (read-miss-clean transfers no
 *    data and donates its DQ slot to flush-buffer unloading),
 *    device-side flush buffer, and opportunistic early tag probing.
 *  - NDC: in-DRAM tags, but hit/miss is tied to the column operation
 *    (hmAtColumn), no probing, and the victim buffer drains only via
 *    explicit commands that force DQ turnarounds.
 *
 * The controller policy is FR-FCFS with a close-page policy
 * (Table III), read priority with write-drain hysteresis, tRRD/tXAW
 * activation windows, DQ-bus direction turnarounds, and periodic
 * all-bank refresh.
 *
 * Scheduling core (see DESIGN.md §9): requests live in a fixed-size
 * slab pool allocated at construction and are threaded onto intrusive
 * lists — one per-direction FIFO (arrival order), one per bank (used
 * by FR-FCFS selection) and one of the reads still eligible for an
 * early tag probe (used by the probe picker). Every timing constraint
 * of a request is a function of only its (bank, op kind, row-hit)
 * class, so the next wake-up is computed from per-bank class counts
 * without walking any list, and selection walks a bank's FIFO only
 * when one of its classes is ready — tick- and order-identical to an
 * oldest-first full scan. A kick that provably issues and probes
 * nothing (a new request that cannot issue yet, or a superseded kick
 * event) is skipped while the timing state is unchanged since the
 * last kick. Completion callbacks are small-buffer-optimized
 * InlineCallables, so the whole enqueue → issue → complete path
 * performs no heap allocation.
 */

#ifndef TSIM_DRAM_CHANNEL_HH
#define TSIM_DRAM_CHANNEL_HH

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "check/check.hh"
#include "dram/channel_config.hh"
#include "dram/timing.hh"
#include "mem/address_map.hh"
#include "mem/types.hh"
#include "sim/event_bus.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/open_map.hh"
#include "stats/stats.hh"
#include "tdram/flush_buffer.hh"
#include "tdram/tag_array.hh"
#include "trace/trace.hh"

namespace tsim
{

/** Channel-level operation kinds. */
enum class ChanOp : std::uint8_t
{
    Read,    ///< conventional ACT+RD (data, or tag+data for CL/Alloy)
    Write,   ///< conventional ACT+WR (demand write or fill)
    ActRd,   ///< TDRAM/NDC lockstep tag+data read
    ActWr,   ///< TDRAM/NDC lockstep tag+data write
};

/**
 * Per-request completion callbacks. Sized so the front-ends' real
 * captures (a component pointer plus a shared transaction pointer,
 * or a MainMemory::read callback) stay on the inline path; the
 * counted heap fallback still handles bigger ones.
 */
using ChanTagCb = InlineCallable<void(Tick, const TagResult &), 64>;
using ChanDataCb = InlineCallable<void(Tick), 64>;

/** One request as seen by a channel. Move-only (callbacks own state). */
struct ChanReq
{
    std::uint64_t id = 0;
    Addr addr = 0;               ///< full line address
    ChanOp op = ChanOp::Read;
    bool isDemandRead = false;   ///< demand read (vs. tag read / fill)

    /**
     * Tag result at the controller. Fired for in-DRAM-tag kinds
     * (TDRAM at HM time, NDC at column time) and for probe results
     * (TagResult::viaProbe set). May fire more than once for a
     * probed request; consumers must be idempotent.
     */
    ChanTagCb onTagResult;

    /** Data fully transferred (reads: at controller; writes: sent). */
    ChanDataCb onDataDone;

    /**
     * Controller flags OR'd into the issue event's extra field
     * (trace.hh traceFillFlag/traceSpillFlag + fill-group id). Zero
     * for everything but page-grain fill/spill traffic (Banshee).
     */
    std::uint32_t ctrlExtra = 0;

    // --- filled in by the channel ---
    Tick enqueued = 0;
    DramCoord coord{};
    bool probed = false;
};

// The whole request path is move-only and must never throw mid-move:
// requests sit in the channel's slab pool and in InlineFunction
// captures (queue-full retries), both of which require nothrow moves.
static_assert(std::is_nothrow_move_constructible_v<ChanReq>,
              "ChanReq must be nothrow-move-constructible");
static_assert(std::is_nothrow_move_assignable_v<ChanReq>,
              "ChanReq must be nothrow-move-assignable");
static_assert(!std::is_copy_constructible_v<ChanReq>,
              "ChanReq must stay move-only (callbacks own state)");

/** One DRAM channel plus its controller back-end. */
class DramChannel : public SimObject
{
  public:
    DramChannel(EventQueue &eq, std::string name, ChannelConfig cfg,
                AddressMap map);

    /** @name Queue admission (backpressure to the front-end). */
    /// @{
    bool canAcceptRead() const
    {
        return _qCount[DirRead] < _cfg.readQCap;
    }
    bool canAcceptWrite() const
    {
        return _qCount[DirWrite] < _cfg.writeQCap;
    }
    std::size_t readQSize() const { return _qCount[DirRead]; }
    std::size_t writeQSize() const { return _qCount[DirWrite]; }
    /// @}

    /** Enqueue a request; panics if the target queue is full. */
    void enqueue(ChanReq req);

    /**
     * Retire a queued read early (probe said miss-clean and the
     * front-end handles it without a data access). O(1) via the
     * id→node index. Queued read ids must be unique.
     * @return true if the request was found and removed.
     */
    bool removeRead(std::uint64_t id);

    /**
     * Announce a page-grain remap-table install (Banshee). Emits a
     * Remap record ahead of the group's fill/spill traffic so the
     * checker can audit page-fill lockstep and remap consistency.
     */
    void noteRemap(Tick when, Addr page, Addr victim,
                   std::uint32_t extra);

    /** @name Flush-buffer interface (TDRAM/NDC kinds only). */
    /// @{
    bool flushContains(Addr addr) const { return _flush.contains(addr); }
    bool flushRemove(Addr addr) { return _flush.remove(addr); }
    unsigned flushSize() const { return _flush.size(); }
    const FlushBuffer &flushBuffer() const { return _flush; }
    /** Explicitly drain every buffered entry (turnaround cost). */
    void forceDrain();
    /// @}

    /**
     * Functional tag peek, supplied by the DRAM-cache front-end.
     * Required when inDramTags is set; must be side-effect free.
     */
    InlineCallable<TagResult(Addr), 64> peekTags;

    /** Victim line from the flush buffer arrived at the controller. */
    InlineCallable<void(Addr, Tick), 64> onFlushArrive;

    /**
     * Optional cycle-level event-trace sink (DESIGN.md §10); null
     * disables tracing for this channel. Events reach it through
     * emit() (sim/event_bus.hh).
     */
    TraceBuffer *traceBuf = nullptr;

    /**
     * Optional inline protocol checker (DESIGN.md §11); null disables
     * checking for this channel. Events reach it through emit().
     * `checkChannel` is this channel's id in the checker
     * (ProtocolChecker::addChannel).
     */
    ProtocolChecker *checker = nullptr;
    unsigned checkChannel = 0;

    const ChannelConfig &config() const { return _cfg; }

    /** @name Statistics. */
    /// @{
    Histogram readQueueDelay{2.0, 256};   ///< ns, per read-queue exit
    Scalar issuedReads;
    Scalar issuedWrites;
    Scalar issuedActRd;
    Scalar issuedActWr;
    Scalar probesIssued;
    Scalar probeBankConflicts;   ///< probes skipped: tag bank busy
    Scalar refreshes;
    Scalar bytesToCtrl;          ///< DQ device -> controller
    Scalar bytesFromCtrl;        ///< DQ controller -> device
    Scalar dqBusyTicks;          ///< ticks DQ actually transferring
    Scalar dqReservedIdleTicks;  ///< reserved-but-unused (miss-clean)
    Scalar turnarounds;          ///< DQ direction switches
    Scalar dataBankActs;         ///< data-bank activations
    Scalar tagBankActs;          ///< tag-bank activations
    Scalar rowHits;              ///< open-page row-buffer hits
    Scalar rowConflicts;         ///< open-page PRE-then-ACT conflicts
    /// @}

    /**
     * @name Host-side instrumentation.
     * Scheduler work counters for the [host] throughput summaries;
     * deliberately NOT registered as simulated stats so the stats
     * dump stays byte-identical to the reference scheduler.
     */
    /// @{
    std::uint64_t hostKicks = 0;           ///< kick() invocations
    mutable std::uint64_t hostScanSteps = 0; ///< request nodes examined
    /// @}

    /** Register all channel stats on @p g for reporting. */
    void regStats(StatGroup &g) const;

    /**
     * @name Bus events (src/sim/event_bus.hh, DESIGN.md §13).
     * One struct per emission site: the TraceKind payload the trace
     * and check subscribers consume, plus the site's statistics
     * applied by stats(). Stats-only occurrences set traced = false.
     * Emitted with emit(*this, Ev{...}); argument lists that used to
     * be retyped across the trace and check macros now exist once.
     */
    /// @{
    struct ReadIssuedEv
    {
        static constexpr TraceKind kind = TraceKind::Read;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
        unsigned bytes;       ///< DQ payload toward the controller
        double queueDelayNs;  ///< read-queue residency
        double burstTicks;    ///< DQ occupancy of the transfer

        void
        stats(DramChannel &c) const
        {
            c.bytesToCtrl += bytes;
            c.readQueueDelay.sample(queueDelayNs);
            ++c.issuedReads;
            c.dqBusyTicks += burstTicks;
        }
    };

    struct WriteIssuedEv
    {
        static constexpr TraceKind kind = TraceKind::Write;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
        unsigned bytes;
        double burstTicks;

        void
        stats(DramChannel &c) const
        {
            c.bytesFromCtrl += bytes;
            ++c.issuedWrites;
            c.dqBusyTicks += burstTicks;
        }
    };

    struct ActRdIssuedEv
    {
        static constexpr TraceKind kind = TraceKind::ActRd;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
        unsigned bytes;
        double burstTicks;
        bool transfer;        ///< column op actually moved data
        double queueDelayNs;

        void
        stats(DramChannel &c) const
        {
            ++c.dataBankActs;
            ++c.tagBankActs;
            if (transfer) {
                c.bytesToCtrl += bytes;
                c.dqBusyTicks += burstTicks;
            }
            c.readQueueDelay.sample(queueDelayNs);
            ++c.issuedActRd;
        }
    };

    struct ActWrIssuedEv
    {
        static constexpr TraceKind kind = TraceKind::ActWr;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
        unsigned bytes;
        double burstTicks;

        void
        stats(DramChannel &c) const
        {
            ++c.dataBankActs;
            ++c.tagBankActs;
            c.bytesFromCtrl += bytes;
            c.dqBusyTicks += burstTicks;
            ++c.issuedActWr;
        }
    };

    struct ProbeIssuedEv
    {
        static constexpr TraceKind kind = TraceKind::Probe;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;

        void
        stats(DramChannel &c) const
        {
            ++c.tagBankActs;
            ++c.probesIssued;
        }
    };

    /**
     * Page-grain remap-table install/evict (Banshee); trace/check
     * payload only. addr = installed page, aux = evicted page, extra
     * bit 0 = victim valid, bits 16-31 = fill-group id.
     */
    struct RemapEv
    {
        static constexpr TraceKind kind = TraceKind::Remap;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
    };

    /** HM-bus result (MAIN or probe); trace/check payload only. */
    struct HmResultEv
    {
        static constexpr TraceKind kind = TraceKind::HmResult;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
    };

    struct FlushPushEv
    {
        static constexpr TraceKind kind = TraceKind::FlushPush;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
    };

    /** One victim drained; extra carries the DrainCause. */
    struct FlushDrainEv
    {
        static constexpr TraceKind kind = TraceKind::FlushDrain;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;
        double burstTicks;

        void
        stats(DramChannel &c) const
        {
            switch (static_cast<DrainCause>(extra)) {
              case DrainCause::MissClean:
                ++c._flush.drainedOnMissClean;
                break;
              case DrainCause::Refresh:
                ++c._flush.drainedOnRefresh;
                break;
              case DrainCause::Forced:
                ++c._flush.drainedForced;
                break;
            }
            c.bytesToCtrl += lineBytes;
            c.dqBusyTicks += burstTicks;
        }
    };

    struct RefreshEv
    {
        static constexpr TraceKind kind = TraceKind::Refresh;
        Tick tick;
        Addr addr;
        std::uint16_t bank;
        std::uint64_t aux;
        std::uint32_t extra;

        void stats(DramChannel &c) const { ++c.refreshes; }
    };

    /** Read retired from the queue without a data access. */
    struct ReadRetiredEv
    {
        static constexpr bool traced = false;
        double queueDelayNs;

        void
        stats(DramChannel &c) const
        {
            c.readQueueDelay.sample(queueDelayNs);
        }
    };

    /** Reserved miss-clean DQ slot went unused. */
    struct DqIdleEv
    {
        static constexpr bool traced = false;
        double burstTicks;

        void
        stats(DramChannel &c) const
        {
            c.dqReservedIdleTicks += burstTicks;
        }
    };

    /** Probe candidates skipped because their tag banks were busy. */
    struct ProbeConflictEv
    {
        static constexpr bool traced = false;
        unsigned count;

        void stats(DramChannel &c) const { c.probeBankConflicts += count; }
    };
    /// @}

  private:
    static constexpr std::uint32_t NIL = 0xffffffffu;
    static constexpr unsigned DirRead = 0;
    static constexpr unsigned DirWrite = 1;

    /** Intrusive list endpoints into the request pool. */
    struct List
    {
        std::uint32_t head = NIL;
        std::uint32_t tail = NIL;
    };

    /** One pooled request plus its intrusive list links. */
    struct ReqNode
    {
        ChanReq req;
        std::uint64_t seq = 0;   ///< global arrival order (FCFS key)
        std::uint32_t prev = NIL;     ///< global per-direction list
        std::uint32_t next = NIL;     ///< (next also chains the free list)
        std::uint32_t bankPrev = NIL; ///< per-bank per-direction list
        std::uint32_t bankNext = NIL;
        std::uint32_t probePrev = NIL; ///< probe-eligible read list
        std::uint32_t probeNext = NIL;
        bool probePending = false;    ///< probe issued, HM not yet fired
    };

    /** One bank; the fields the wake and selection passes read first. */
    struct BankState
    {
        Tick nextAct = 0;      ///< data mats ready for next ACT
        Tick tagNextAct = 0;   ///< tag mats ready (TDRAM/NDC)
        Tick nextPre = 0;      ///< earliest precharge (tRAS/tWR)
        // --- scheduler state ---
        std::uint16_t opCount[2][2]{}; ///< queued [dir][op kind]
        /**
         * Queued requests per [dir][op kind] whose row matches the
         * open row right now (open page only; all-zero otherwise).
         * Maintained on link/unlink and rebuilt whenever the bank's
         * (rowOpen, openRow) changes, so scans know exactly which
         * (kind, row-hit) classes exist without walking the queue.
         */
        std::uint16_t hitCount[2][2]{};
        std::uint16_t probeEligible = 0; ///< unprobed reads with tag cb
        bool rowOpen = false;  ///< open page: a row is open
        List q[2];                     ///< bank FIFO per direction
        std::uint64_t openRow = 0;     ///< open page: the open row
    };

    /**
     * Tag callback whose request left the queue while a probe result
     * (and possibly the MAIN HM event) was still in flight; both
     * deliveries route here by id. refs counts pending deliveries.
     */
    struct OrphanCb
    {
        std::uint64_t id = 0;
        ChanTagCb cb;
        std::uint8_t refs = 0;
        bool active = false;
    };

    /** 0 for Read/Write, 1 for ActRd/ActWr (within one direction). */
    static constexpr unsigned
    opKindIdx(ChanOp op)
    {
        return (op == ChanOp::ActRd || op == ChanOp::ActWr) ? 1u : 0u;
    }

    static constexpr unsigned
    dirOf(ChanOp op)
    {
        return (op == ChanOp::Write || op == ChanOp::ActWr) ? DirWrite
                                                            : DirRead;
    }

    /**
     * Bank-independent terms of classIssue() for one direction (CA
     * bus, refresh, tRRD/tFAW, DQ turnaround, HM bus), hoisted out of
     * the bank loops and kept in _gates.
     */
    struct ClassGates
    {
        Tick kind[2];     ///< [op kind] needing an ACT on a closed bank
        Tick rowHit;      ///< open page, plain op: row hit (no ACT)
        Tick rowConflict; ///< open page, plain op: PRE, then ACT
    };

    /** Open-page: true if @p req hits the currently open row. */
    bool rowHit(const ChanReq &req) const;

    /** True for a read that may still get an early tag probe. */
    static bool
    wantsProbe(const ChanReq &req)
    {
        return !req.probed && static_cast<bool>(req.onTagResult);
    }

    /**
     * Write-drain hysteresis: the mode kick() serves at the current
     * write-queue depth (enter at writeHigh, leave at writeLow).
     */
    bool
    nextDrainMode() const
    {
        return _drainingWrites ? _qCount[DirWrite] > _cfg.writeLow
                               : _qCount[DirWrite] >= _cfg.writeHigh;
    }

    void kick();
    void scheduleKick(Tick when);

    /** Recompute _gates from the current timing state. */
    void updateGates();

    /**
     * Earliest issue tick shared by every request of one class: op
     * kind @p kind of direction @p dir in bank @p b, row hit or not.
     */
    Tick classIssue(unsigned dir, const BankState &b, unsigned kind,
                    bool row_hit) const;

    /** Earliest tick at which @p req could be issued (_gates current). */
    Tick earliestIssue(const ChanReq &req) const;

    /**
     * FR-FCFS pick for @p dir at @p now: the oldest issuable row hit
     * (open page), else the oldest issuable request. NIL if none.
     */
    std::uint32_t selectReady(unsigned dir, Tick now) const;

    /**
     * Oldest node in @p b's @p dir FIFO, younger than @p seq_bound,
     * whose class is ready at @p now; NIL if none. The classes are
     * checked first, so a bank with none ready is never walked.
     */
    std::uint32_t firstReadyInBank(const BankState &b, unsigned dir,
                                   Tick now, bool row_hits_only,
                                   std::uint64_t seq_bound) const;

    /**
     * Next kick tick: the exact min earliestIssue over the queues the
     * drain mode serves, and (outside write drain) the earliest probe
     * issue; maxTick if none. Reads the classes present in each bank
     * from opCount/hitCount: O(banks), no list walk.
     */
    Tick earliestWake() const;

    /** Unlink @p idx from its queue and issue it at the current tick. */
    void dequeueAndIssue(std::uint32_t idx);

    /** Issue @p req now (constraints already met, already unlinked). */
    void issue(ChanReq &&req, bool probe_pending);

    void issueConventional(ChanReq &req, bool is_write);
    void issueActRd(ChanReq &req, bool probe_pending);
    void issueActWr(ChanReq &req);

    /** Push a victim into the flush buffer, retrying on stalls. */
    void flushPushRetry(Addr victim);

    /** Try to issue one early tag probe; @return true if issued. */
    bool tryProbe();

    /** Probe-issue constraints shared by every bank (CA, refresh, HM). */
    Tick probeGate() const;

    /**
     * Earliest probe issue for an eligible read whose tag bank frees
     * at @p tag_free; maxTick if probing is off, write drain holds
     * probes back, or @p tag_free is maxTick.
     */
    Tick probeWake(Tick tag_free) const;

    /**
     * True if no probe can issue at @p now. @p conflicts is then the
     * number of eligible reads whose tag bank is busy — what a failed
     * tryProbe() counts — found in O(banks) without walking.
     */
    bool probeBlocked(Tick now, unsigned &conflicts) const;

    /** Count @p conflicts probe bank conflicts (no-op for zero). */
    void noteProbeConflicts(unsigned conflicts);

    /**
     * Handle the kick an enqueue of @p idx triggers without running
     * kick(), when that provably issues and probes nothing (see
     * _settled). @return false if kick() must run.
     */
    bool skipEnqueueKick(std::uint32_t idx);

    /** Deliver a probe HM result to the request with @p id. */
    void deliverProbe(std::uint64_t id, Tick t, const TagResult &tr);

    /** @name Request pool and intrusive lists. */
    /// @{
    std::uint32_t allocNode();
    void freeNode(std::uint32_t idx);
    void qLink(unsigned dir, std::uint32_t idx);
    void qUnlink(unsigned dir, std::uint32_t idx);
    void probeLink(std::uint32_t idx);
    void probeUnlink(std::uint32_t idx);
    void bankLink(BankState &b, unsigned dir, std::uint32_t idx);
    void bankUnlink(BankState &b, unsigned dir, std::uint32_t idx);

    /**
     * Call @p fn(bank) for every bank with a queued read (if
     * @p reads) or write (if @p writes), in bank order.
     */
    template <typename Fn>
    void
    forQueuedBanks(bool reads, bool writes, Fn &&fn) const
    {
        for (std::size_t w = 0; w < _queuedBanks[DirRead].size(); ++w) {
            std::uint64_t bits =
                (reads ? _queuedBanks[DirRead][w] : 0) |
                (writes ? _queuedBanks[DirWrite][w] : 0);
            while (bits) {
                fn(_banks[w * 64 + std::countr_zero(bits)]);
                bits &= bits - 1;
            }
        }
    }

    /** Recount hitCount after the bank's open row changed. */
    void rebuildHitCounts(BankState &b);
    /// @}

    /** @name Orphaned tag callbacks (probe in flight past dequeue). */
    /// @{
    void orphanAdd(std::uint64_t id, ChanTagCb cb, std::uint8_t refs);
    void orphanDeliver(std::uint64_t id, Tick t, const TagResult &tr);
    /// @}

    /**
     * Reserve the DQ bus for a transfer of @p dur starting no
     * earlier than @p start. @return actual start tick.
     */
    Tick reserveDq(bool is_write, Tick start, Tick dur);

    /** Earliest DQ start for direction @p is_write (incl. turnaround). */
    Tick dqEarliest(bool is_write) const;

    Tick fawConstraint() const;
    void recordAct(Tick t);

    void startRefresh();

    ChannelConfig _cfg;
    AddressMap _map;
    const TimingParams &_t;

    std::vector<ReqNode> _pool;   ///< fixed slab: readQCap + writeQCap
    std::uint32_t _freeHead = NIL;
    List _q[2];                   ///< global FIFOs (read, write)
    unsigned _qCount[2] = {0, 0};
    std::uint64_t _nextArrival = 0;

    /** Queued read id -> node; 2 x readQCap slots, so never grows. */
    OpenHashMap<std::uint32_t> _readIndex;

    std::vector<OrphanCb> _orphans;

    std::vector<BankState> _banks;
    /** Bitset per direction of the banks whose FIFO is non-empty. */
    std::vector<std::uint64_t> _queuedBanks[2];
    List _probeQ;                 ///< probe-eligible reads, arrival order
    Tick _actRing[4] = {};        ///< last four ACTs (tXAW window)
    unsigned _actHead = 0;        ///< oldest ACT once the ring is full
    unsigned _acts = 0;           ///< ACTs recorded, saturating at 4
    Tick _lastAct = 0;
    Tick _caFreeAt = 0;
    Tick _hmFreeAt = 0;
    Tick _dqFreeAt = 0;
    bool _dqLastWrite = false;
    bool _dqEverUsed = false;
    Tick _refreshUntil = 0;
    bool _drainingWrites = false;
    Tick _nextKick = 0;

    /**
     * No timing state has changed since the last kick() returned, so
     * no queued request can issue before the pending kick at
     * _nextKick. Set at the end of kick(); cleared at its start and
     * by forceDrain() and startRefresh(), the only timing-state
     * changes outside kick(). enqueue() and superseded kick events
     * use it to skip kicks that would issue nothing.
     */
    bool _settled = false;

    /**
     * ClassGates per direction. Current inside kick() and whenever
     * _settled holds: timing state changes only where _settled is
     * cleared, and kick() recomputes them after each issue or probe.
     */
    ClassGates _gates[2]{};

    FlushBuffer _flush;
    Tick _flushDrainUntil = 0;
};

} // namespace tsim

#endif // TSIM_DRAM_CHANNEL_HH
