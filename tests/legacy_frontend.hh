/**
 * @file
 * Frozen pre-fast-path front-end snapshot (tests/bench only).
 *
 * Verbatim copy of the controller/core front end as it stood before
 * the zero-alloc fast-path rewrite: shared_ptr transactions,
 * unordered_map/deque set queues, std::function mmRead callbacks,
 * triple-probe SramCache, per-core stalled deques. bench/micro_frontend
 * replays the identical workload through this copy and the production
 * front end and fails unless their stats checksums agree, so the
 * rewrite is continuously cross-checked against the seed behaviour.
 *
 * Everything lives in tsim::legacyfe; shared leaf types (TagResult,
 * MemPacket, ChanReq, Design, configs of untouched components) are
 * the production ones so both front ends drive the same production
 * DramChannel back-end.
 */

#ifndef TSIM_TESTS_LEGACY_FRONTEND_HH
#define TSIM_TESTS_LEGACY_FRONTEND_HH

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/sram_cache.hh"
#include "dcache/dram_cache.hh"
#include "dcache/predictor.hh"
#include "dram/channel.hh"
#include "dram/main_memory.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"
#include "trace/trace.hh"
#include "workload/core_engine.hh"
#include "workload/generator.hh"

namespace tsim
{
namespace legacyfe
{

/** Frozen pre-probe-handle tag array (re-searches on every call). */
class TagArray
{
  public:
    TagArray(std::uint64_t capacity_bytes, unsigned ways = 1)
        : _ways(ways)
    {
        fatal_if(ways == 0, "associativity must be >= 1");
        std::uint64_t lines = capacity_bytes / lineBytes;
        fatal_if(lines == 0 || lines % ways != 0,
                 "capacity must be a multiple of ways*lineBytes");
        _sets = lines / ways;
        fatal_if(_sets & (_sets - 1), "set count must be a power of two");
        _entries.resize(lines);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned ways() const { return _ways; }

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr / lineBytes) & (_sets - 1);
    }

    TagResult
    peek(Addr addr) const
    {
        TagResult r;
        const std::uint64_t set = setIndex(addr);
        for (unsigned w = 0; w < _ways; ++w) {
            const Entry &e = entry(set, w);
            if (e.valid && e.tag == tagOf(addr)) {
                r.hit = true;
                r.valid = true;
                r.dirty = e.dirty;
                r.victimAddr = addr;
                return r;
            }
        }
        const Entry &victim = entry(set, victimWay(set));
        r.valid = victim.valid;
        r.dirty = victim.valid && victim.dirty;
        r.victimAddr = victim.valid ? rebuildAddr(set, victim.tag) : 0;
        return r;
    }

    void
    install(Addr addr, bool dirty)
    {
        const std::uint64_t set = setIndex(addr);
        Entry *slot = find(addr);
        if (!slot)
            slot = &entry(set, victimWay(set));
        slot->valid = true;
        slot->tag = tagOf(addr);
        slot->dirty = dirty;
        slot->lru = ++_clock;
    }

    void
    markDirty(Addr addr)
    {
        Entry *e = find(addr);
        panic_if(!e, "markDirty on non-resident line %llx",
                 (unsigned long long)addr);
        e->dirty = true;
        e->lru = ++_clock;
    }

    void
    markClean(Addr addr)
    {
        if (Entry *e = find(addr))
            e->dirty = false;
    }

    void
    touch(Addr addr)
    {
        if (Entry *e = find(addr))
            e->lru = ++_clock;
    }

    void
    invalidate(Addr addr)
    {
        if (Entry *e = find(addr))
            e->valid = false;
    }

    bool isHit(Addr addr) const { return peek(addr).hit; }

    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const auto &e : _entries)
            n += e.valid;
        return n;
    }

  private:
    struct Entry
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Addr tagOf(Addr addr) const { return (addr / lineBytes) / _sets; }

    Addr
    rebuildAddr(std::uint64_t set, Addr tag) const
    {
        return (tag * _sets + set) * lineBytes;
    }

    Entry &entry(std::uint64_t set, unsigned way)
    {
        return _entries[set * _ways + way];
    }

    const Entry &entry(std::uint64_t set, unsigned way) const
    {
        return _entries[set * _ways + way];
    }

    unsigned
    victimWay(std::uint64_t set) const
    {
        unsigned best = 0;
        for (unsigned w = 0; w < _ways; ++w) {
            const Entry &e = entry(set, w);
            if (!e.valid)
                return w;
            if (e.lru < entry(set, best).lru)
                best = w;
        }
        return best;
    }

    Entry *
    find(Addr addr)
    {
        const std::uint64_t set = setIndex(addr);
        for (unsigned w = 0; w < _ways; ++w) {
            Entry &e = entry(set, w);
            if (e.valid && e.tag == tagOf(addr))
                return &e;
        }
        return nullptr;
    }

    unsigned _ways;
    std::uint64_t _sets;
    std::uint64_t _clock = 0;
    std::vector<Entry> _entries;
};

/** Frozen triple-probe SRAM cache (peek + markDirty/touch/install). */
class SramCache
{
  public:
    struct Result
    {
        bool hit = false;
        bool writeback = false;
        Addr writebackAddr = 0;
    };

    SramCache(std::string name, std::uint64_t capacity, unsigned ways,
              Tick hit_latency)
        : _name(std::move(name)), _tags(capacity, ways),
          _hitLatency(hit_latency)
    {}

    Result
    access(Addr addr, bool is_store)
    {
        Result res;
        TagResult tr = _tags.peek(addr);
        if (tr.hit) {
            ++hits;
            res.hit = true;
            if (is_store)
                _tags.markDirty(addr);
            else
                _tags.touch(addr);
            return res;
        }
        ++misses;
        if (tr.valid && tr.dirty) {
            res.writeback = true;
            res.writebackAddr = tr.victimAddr;
            ++writebacks;
        }
        _tags.install(addr, is_store);
        return res;
    }

    bool contains(Addr addr) const { return _tags.peek(addr).hit; }

    Tick hitLatency() const { return _hitLatency; }
    const std::string &name() const { return _name; }

    double
    missRatio() const
    {
        const double total = hits.value() + misses.value();
        return total > 0 ? misses.value() / total : 0.0;
    }

    Scalar hits;
    Scalar misses;
    Scalar writebacks;

    void
    regStats(StatGroup &g) const
    {
        g.addScalar(_name + ".hits", &hits);
        g.addScalar(_name + ".misses", &misses);
        g.addScalar(_name + ".writebacks", &writebacks);
    }

  private:
    std::string _name;
    TagArray _tags;
    Tick _hitLatency;
};

/** Frozen main-memory front-end (std::function read callbacks). */
class MainMemory : public SimObject
{
  public:
    MainMemory(EventQueue &eq, std::string name,
               const MainMemoryConfig &cfg);

    void read(Addr addr, std::function<void(Tick)> on_done);
    void write(Addr addr);

    Scalar reads;
    Scalar writes;
    Histogram readLatency{4.0, 256};
    Histogram frontQueueDepth{1.0, 64};

    std::uint64_t bytesMoved() const;
    void regStats(StatGroup &g) const;

    DramChannel &channel(unsigned i) { return *_chans[i]; }
    const DramChannel &channel(unsigned i) const { return *_chans[i]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(_chans.size());
    }

  private:
    struct Pending
    {
        ChanReq req;
        bool isWrite;
    };

    void drainFront(unsigned chan);
    void submit(unsigned chan, ChanReq req, bool is_write);

    MainMemoryConfig _cfg;
    AddressMap _map;
    std::vector<std::unique_ptr<DramChannel>> _chans;
    std::vector<std::deque<Pending>> _front;
    std::uint64_t _nextId = 1;
};

/** Frozen shared_ptr/unordered_map DRAM-cache controller front end. */
class DramCacheCtrl : public SimObject
{
  public:
    DramCacheCtrl(EventQueue &eq, std::string name,
                  const DramCacheConfig &cfg, MainMemory &mm,
                  ChannelConfig chan_cfg);
    ~DramCacheCtrl() override = default;

    bool canAccept(const MemPacket &pkt) const;
    void access(MemPacket pkt, RespCallback cb);
    void warmAccess(Addr addr, bool is_write);

    virtual Design design() const = 0;
    virtual double predictorAccuracy() const { return 0.0; }

    Scalar demandReads;
    Scalar demandWrites;
    Scalar outcomes[static_cast<unsigned>(AccessOutcome::NumOutcomes)];
    Histogram tagCheckLatency{2.0, 512};
    Histogram readLatency{4.0, 512};
    Scalar fwdFromWriteBuf;
    Scalar servedFromFlush;
    Scalar predictedMiss;
    Scalar predictorWrongFetch;
    Scalar prefetchIssued;
    Scalar prefetchUseful;
    Scalar bytesDemandServing;
    Scalar bytesMaintenance;
    Scalar bytesDiscarded;

    double missRatio() const;
    double meanReadQueueDelayNs() const;

    void regStats(StatGroup &g) const;

    TraceBuffer *traceBuf = nullptr;
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

    std::uint64_t inFlightDemands() const { return _inFlight; }

  protected:
    struct Txn
    {
        MemPacket pkt;
        RespCallback cb;
        bool tagResolved = false;
        bool finished = false;
        bool mmStarted = false;
        Tick mmDataAt = 0;
        bool victimDone = false;
        bool fillIssued = false;
        TagResult tr{};
        std::uint64_t chanReqId = 0;
    };
    using TxnPtr = std::shared_ptr<Txn>;

    virtual void startAccess(const TxnPtr &txn) = 0;
    virtual bool usesMshr() const { return true; }
    virtual bool initialOpAdmissible(const MemPacket &pkt) const;

    unsigned chanIdx(Addr addr) const { return _map.decode(addr).channel; }
    DramChannel &channelFor(Addr addr) { return *_chans[chanIdx(addr)]; }

    void resolveTags(const TxnPtr &txn, Tick when,
                     bool sample_latency = true);
    void respond(const TxnPtr &txn, Tick when);
    void release(const TxnPtr &txn);
    void finish(const TxnPtr &txn, Tick when);
    void enqueueChan(ChanReq req, bool is_write);
    void doFill(Addr addr);
    virtual ChanOp fillOp() const { return ChanOp::Write; }

    void addPendingWrite(Addr addr) { ++_pendingWrites[addr]; }
    void removePendingWrite(Addr addr);
    bool isPendingWrite(Addr addr) const
    {
        return _pendingWrites.count(addr) != 0;
    }

    void mmRead(Addr addr, std::function<void(Tick)> cb);
    void mmWrite(Addr addr);

    void
    accountCache(std::uint64_t serving, std::uint64_t maintenance,
                 std::uint64_t discarded)
    {
        bytesDemandServing += static_cast<double>(serving);
        bytesMaintenance += static_cast<double>(maintenance);
        bytesDiscarded += static_cast<double>(discarded);
    }

    unsigned burstBytes() const { return _burstBytes; }

    std::uint64_t nextChanId() { return _nextChanId++; }

    DramCacheConfig _cfg;
    TagArray _tags;
    AddressMap _map;
    std::vector<std::unique_ptr<DramChannel>> _chans;
    MainMemory &_mm;

  private:
    void beginTxn(const TxnPtr &txn);
    bool tryFastPath(const TxnPtr &txn);
    void maybePrefetch(Addr addr);

    std::unordered_map<std::uint64_t, std::deque<TxnPtr>> _setQueues;
    unsigned _waiting = 0;
    Histogram _conflictOcc{1.0, 40};
    std::unordered_map<Addr, unsigned> _pendingWrites;
    std::unordered_set<Addr> _prefetched;
    std::uint64_t _inFlight = 0;
    std::uint64_t _nextChanId = 1;
    unsigned _burstBytes = lineBytes;
};

/** Frozen shared NDC/TDRAM controller flow. */
class InDramTagCtrl : public DramCacheCtrl
{
  public:
    InDramTagCtrl(EventQueue &eq, std::string name,
                  const DramCacheConfig &cfg, MainMemory &mm,
                  ChannelConfig chan_cfg);

  protected:
    void startAccess(const TxnPtr &txn) override;
    ChanOp fillOp() const override { return ChanOp::ActWr; }

    void readTagResult(const TxnPtr &txn, Tick t, const TagResult &tr);
    void readDataDone(const TxnPtr &txn, Tick t);
    void mmDataArrived(const TxnPtr &txn, Tick t);
    void maybeFill(const TxnPtr &txn);
};

class NdcCtrl : public InDramTagCtrl
{
  public:
    NdcCtrl(EventQueue &eq, std::string name,
            const DramCacheConfig &cfg, MainMemory &mm);
    Design design() const override { return Design::Ndc; }
};

class TdramCtrl : public InDramTagCtrl
{
  public:
    TdramCtrl(EventQueue &eq, std::string name,
              const DramCacheConfig &cfg, MainMemory &mm,
              bool probing = true);
    Design design() const override
    {
        return _probing ? Design::Tdram : Design::TdramNoProbe;
    }

  private:
    bool _probing;
};

/** Frozen CascadeLake tags-in-ECC flow. */
class CascadeLakeCtrl : public DramCacheCtrl
{
  public:
    CascadeLakeCtrl(EventQueue &eq, std::string name,
                    const DramCacheConfig &cfg, MainMemory &mm);

    Design design() const override { return Design::CascadeLake; }

    double
    predictorAccuracy() const override
    {
        return _pred.accuracy();
    }

  protected:
    void startAccess(const TxnPtr &txn) override;
    bool initialOpAdmissible(const MemPacket &pkt) const override;

    void tagDataArrived(const TxnPtr &txn, Tick t);
    void mmDataArrived(const TxnPtr &txn, Tick t);
    void issueDemandWrite(const TxnPtr &txn);

    MapIPredictor _pred;
};

/** Frozen per-core-deque request engine. */
class CoreEngine : public SimObject
{
  public:
    CoreEngine(EventQueue &eq, std::string name, const CoreConfig &cfg,
               std::vector<std::unique_ptr<AddressGenerator>> gens,
               DramCacheCtrl &dcache, std::uint64_t seed);

    void start();
    bool done() const { return _coresDone == _cfg.cores; }
    Tick finishTick() const { return _finishTick; }
    void warmup(std::uint64_t ops_per_core);

    Scalar opsRetired;
    Scalar demandReadsIssued;
    Scalar demandWritesIssued;
    Scalar backpressureStalls;
    Histogram demandReadLatency{4.0, 512};

    SramCache &llc() { return _llc; }
    SramCache &l1(unsigned core) { return *_l1s[core]; }

    void regStats(StatGroup &g) const;

  private:
    struct Core
    {
        std::unique_ptr<AddressGenerator> gen;
        std::uint64_t issued = 0;
        std::uint64_t retired = 0;
        unsigned outstanding = 0;
        Tick readyAt = 0;
        bool issueScheduled = false;
        bool finished = false;
        std::deque<MemPacket> stalled;
    };

    void advance(unsigned c);
    void scheduleAdvance(unsigned c, Tick when);
    bool drainStalled(unsigned c);
    bool issueDemand(unsigned c, MemPacket &pkt);
    void readReturned(unsigned c, const MemPacket &pkt);
    void maybeFinish(unsigned c);

    CoreConfig _cfg;
    DramCacheCtrl &_dcache;
    SramCache _llc;
    std::vector<std::unique_ptr<SramCache>> _l1s;
    std::vector<Core> _cores;
    Rng _rng;
    unsigned _coresDone = 0;
    Tick _finishTick = 0;
    PacketId _nextPktId = 1;
};

} // namespace legacyfe
} // namespace tsim

#endif // TSIM_TESTS_LEGACY_FRONTEND_HH
