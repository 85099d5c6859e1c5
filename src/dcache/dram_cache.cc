#include "dcache/dram_cache.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace tsim
{

namespace
{

/** designName() of each Design, in enum order. */
constexpr const char *designNames[] = {
    "CascadeLake", "Alloy",   "BEAR",    "NDC",    "TDRAM",
    "TDRAM-noprobe", "Ideal", "NoCache", "TicToc", "Banshee"};
static_assert(std::size(designNames) ==
              static_cast<std::size_t>(Design::Banshee) + 1);

} // namespace

const char *
designName(Design d)
{
    const auto i = static_cast<std::size_t>(d);
    return i < std::size(designNames) ? designNames[i] : "unknown";
}

bool
findDesign(const std::string &name, Design &d)
{
    for (std::size_t i = 0; i < std::size(designNames); ++i) {
        if (name == designNames[i]) {
            d = static_cast<Design>(i);
            return true;
        }
    }
    return false;
}

Design
parseDesign(const std::string &name)
{
    Design d{};
    if (findDesign(name, d))
        return d;
    std::fprintf(stderr, "unknown design '%s'; one of:", name.c_str());
    for (const char *n : designNames)
        std::fprintf(stderr, " %s", n);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

DramCacheCtrl::DramCacheCtrl(EventQueue &eq, std::string name,
                             Design design, const DramCacheConfig &cfg,
                             MainMemory &mm)
    : SimObject(eq, std::move(name)), _design(design), _cfg(cfg),
      _tags(cfg.capacityBytes, cfg.ways),
      _map(cfg.capacityBytes, cfg.channels, cfg.banks, cfg.rowBytes),
      _mm(mm)
{
    const ChannelConfig chan_cfg = dcacheChannelConfig(design, cfg);
    _burstBytes = static_cast<unsigned>(
        lineBytes * chan_cfg.timing.burstScale + 0.5);

    for (unsigned c = 0; c < cfg.channels; ++c) {
        auto ch = std::make_unique<DramChannel>(
            eq, this->name() + ".ch" + std::to_string(c), chan_cfg,
            _map);
        if (chan_cfg.inDramTags) {
            ch->peekTags = [this](Addr a) { return _tags.peek(a); };
            ch->onFlushArrive = [this](Addr victim, Tick) {
                // A drained dirty victim becomes a main-memory
                // writeback; the transfer itself is maintenance
                // traffic on the cache DQ bus.
                accountCache(0, lineBytes, 0);
                mmWrite(victim);
            };
        }
        _chans.push_back(std::move(ch));
    }
}

DramCacheCtrl::~DramCacheCtrl()
{
    // The intrusive MSHR FIFOs own one reference per linked Txn;
    // release them so mid-flight teardown (unit tests) doesn't leak
    // pool slots.
    _setQueues.forEach([](std::uint64_t, SetFifo &q) {
        Txn *t = q.head;
        while (t) {
            Txn *next = t->setNext;
            TxnPtr::adopt(t);
            t = next;
        }
        q.head = q.tail = nullptr;
    });
}

bool
DramCacheCtrl::canAccept(const MemPacket &pkt) const
{
    if (!usesMshr())
        return true;
    if (_waiting >= _cfg.conflictBufEntries)
        return false;
    return initialOpAdmissible(pkt);
}

bool
DramCacheCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    const unsigned c = _map.decode(pkt.addr).channel;
    if (pkt.cmd == MemCmd::Read)
        return _chans[c]->canAcceptRead();
    return _chans[c]->canAcceptWrite();
}

void
DramCacheCtrl::access(MemPacket pkt, RespCallback cb)
{
    pkt.addr = lineAlign(pkt.addr);
    pkt.created = curTick();
    emit(*this, DemandStartEv{
        .tick = pkt.created, .addr = pkt.addr, .bank = traceBankNone,
        .aux = 0, .extra = pkt.cmd == MemCmd::Write ? 1u : 0u});

    TxnPtr txn = _txnPool.alloc();
    txn->pkt = pkt;
    txn->cb = std::move(cb);
    ++_inFlight;

    if (!usesMshr()) {
        txn->pkt.tagIssued = curTick();
        startAccess(txn);
        return;
    }

    const std::uint64_t set = _tags.setIndex(pkt.addr);
    SetFifo &q = _setQueues[set];
    const bool was_empty = q.head == nullptr;
    Txn *raw = TxnPtr(txn).detach();  // the FIFO's own reference
    raw->setNext = nullptr;
    if (q.tail)
        q.tail->setNext = raw;
    else
        q.head = raw;
    q.tail = raw;
    if (was_empty) {
        beginTxn(txn);
    } else {
        ++_waiting;
        emit(*this, ConflictQueuedEv{
            .occupancy = static_cast<double>(_waiting)});
    }
}

void
DramCacheCtrl::warmAccess(Addr addr, bool is_write)
{
    addr = lineAlign(addr);
    const TagArray::Probe p = _tags.probe(addr);
    if (is_write) {
        if (p.result.hit)
            _tags.markDirty(p);
        else
            _tags.install(addr, true, p);
    } else {
        if (p.result.hit)
            _tags.touch(p);
        else
            _tags.install(addr, false, p);
    }
}

void
DramCacheCtrl::beginTxn(const TxnPtr &txn)
{
    if (tryFastPath(txn))
        return;
    txn->pkt.tagIssued = curTick();
    startAccess(txn);
}

bool
DramCacheCtrl::tryFastPath(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    const bool is_read = txn->pkt.cmd == MemCmd::Read;

    // Reads matching a pending (queued) cache write are served from
    // the controller's write buffer, like gem5's DRAM controller.
    if (is_read && isPendingWrite(addr)) {
        ++fwdFromWriteBuf;
        txn->tagResolved = true;
        txn->pkt.tagDone = curTick();
        const AccessOutcome o = AccessOutcome::ReadHitClean;
        txn->pkt.outcome = o;
        ++outcomes[static_cast<unsigned>(o)];
        _tags.touch(addr);
        const Tick done = curTick() + _cfg.ctrlLatency;
        _eq.schedule(done, [this, txn = txn, done] { finish(txn, done); });
        return true;
    }

    // Reads matching a flush-buffer entry are served from the buffer
    // (§III-D2): the controller has global knowledge of its contents.
    if (is_read && channelFor(addr).flushContains(addr)) {
        ++servedFromFlush;
        txn->tagResolved = true;
        txn->pkt.tagDone = curTick();
        const AccessOutcome o = AccessOutcome::ReadMissClean;
        txn->pkt.outcome = o;
        ++outcomes[static_cast<unsigned>(o)];
        const Tick done = curTick() + _cfg.ctrlLatency;
        _eq.schedule(done, [this, txn = txn, done] { finish(txn, done); });
        return true;
    }

    // Writes matching a flush-buffer entry supersede the buffered
    // (older) dirty data.
    if (!is_read)
        channelFor(addr).flushRemove(addr);
    return false;
}

void
DramCacheCtrl::resolveTags(const TxnPtr &txn, Tick when,
                           bool sample_latency)
{
    if (txn->tagResolved)
        return;
    txn->tagResolved = true;

    const Addr addr = txn->pkt.addr;
    const bool is_read = txn->pkt.cmd == MemCmd::Read;
    const TagArray::Probe probe = _tags.probe(addr);
    const TagResult &tr = probe.result;
    txn->tr = tr;

    AccessOutcome o;
    if (tr.hit) {
        o = is_read
            ? (tr.dirty ? AccessOutcome::ReadHitDirty
                        : AccessOutcome::ReadHitClean)
            : (tr.dirty ? AccessOutcome::WriteHitDirty
                        : AccessOutcome::WriteHitClean);
    } else if (!tr.valid) {
        o = is_read ? AccessOutcome::ReadMissInvalid
                    : AccessOutcome::WriteMissInvalid;
    } else {
        o = is_read
            ? (tr.dirty ? AccessOutcome::ReadMissDirty
                        : AccessOutcome::ReadMissClean)
            : (tr.dirty ? AccessOutcome::WriteMissDirty
                        : AccessOutcome::WriteMissClean);
    }
    txn->pkt.outcome = o;
    ++outcomes[static_cast<unsigned>(o)];

    // Functional transition. Read misses install at fill time; write
    // demands allocate immediately (insert-on-miss, write-allocate).
    if (is_read) {
        if (tr.hit) {
            _tags.touch(probe);
            if (!_prefetched.empty() && _prefetched.erase(addr))
                ++prefetchUseful;
        } else if (_cfg.prefetchDegree > 0) {
            maybePrefetch(addr);
        }
    } else {
        if (tr.hit)
            _tags.markDirty(probe);
        else
            _tags.install(addr, true, probe);
    }

    txn->pkt.tagDone = when;
    // Fig 9's tag-check latency is the latency-critical read-side
    // metric (it bounds the LLC miss penalty); write-side checks
    // influence it only through the queue contention they create.
    if (sample_latency && is_read) {
        emit(*this, TagResolvedEv{
            .latencyNs = ticksToNs(when - txn->pkt.tagIssued)});
    }
}

void
DramCacheCtrl::respond(const TxnPtr &txn, Tick when)
{
    if (txn->finished)
        return;
    txn->finished = true;
    panic_if(_inFlight == 0, "demand response without an open demand");
    --_inFlight;
    txn->pkt.completed = when;
    emit(*this, DemandDoneEv{
        .tick = when, .addr = txn->pkt.addr, .bank = traceBankNone,
        .aux = when - txn->pkt.created,
        .extra = static_cast<std::uint32_t>(txn->pkt.outcome),
        .isRead = txn->pkt.cmd == MemCmd::Read,
        .latencyNs = ticksToNs(when - txn->pkt.created)});
    if (txn->cb)
        txn->cb(txn->pkt);
}

void
DramCacheCtrl::release(const TxnPtr &txn)
{
    if (!usesMshr())
        return;
    const std::uint64_t set = _tags.setIndex(txn->pkt.addr);
    SetFifo *q = _setQueues.find(set);
    panic_if(!q || q->head != txn.get(),
             "MSHR bookkeeping out of sync");
    Txn *head = q->head;
    q->head = head->setNext;
    head->setNext = nullptr;
    if (!q->head)
        q->tail = nullptr;
    // The FIFO's reference to the departing head dies with this scope.
    const TxnPtr departing = TxnPtr::adopt(head);
    if (!q->head) {
        _setQueues.erase(set);
    } else {
        --_waiting;
        const TxnPtr next = TxnPtr::share(q->head);
        beginTxn(next);
    }
}

void
DramCacheCtrl::finish(const TxnPtr &txn, Tick when)
{
    panic_if(txn->finished, "double finish of packet %llu",
             (unsigned long long)txn->pkt.id);
    respond(txn, when);
    release(txn);
}

void
DramCacheCtrl::enqueueChan(ChanReq req, bool is_write)
{
    DramChannel &ch = channelFor(req.addr);
    const bool space =
        is_write ? ch.canAcceptWrite() : ch.canAcceptRead();
    if (space) {
        ch.enqueue(std::move(req));
        return;
    }
    // Queue full: retry shortly. The channel drains continuously, so
    // this terminates; the retry interval is one burst.
    _eq.scheduleIn(ch.config().timing.tBURST,
                   [this, req = std::move(req), is_write]() mutable {
                       enqueueChan(std::move(req), is_write);
                   });
}

void
DramCacheCtrl::doFill(Addr addr)
{
    _tags.install(addr, false);
    addPendingWrite(addr);
    ChanReq req;
    req.id = nextChanId();
    req.addr = addr;
    req.op = fillOp();
    req.onDataDone = [this, addr](Tick) { removePendingWrite(addr); };
    // The fill transfer is maintenance traffic; TAD designs move the
    // extra tag bytes as discarded padding.
    accountCache(0, lineBytes, burstBytes() - lineBytes);
    enqueueChan(std::move(req), true);
}

void
DramCacheCtrl::maybePrefetch(Addr addr)
{
    // Simple next-N-line prefetcher (§V-D): fetched lines fill the
    // cache like demand misses but never answer the LLC. Prefetches
    // skip busy sets (no MSHR is allocated for them) and lines whose
    // install would evict dirty data (that needs a data read first).
    for (unsigned i = 1; i <= _cfg.prefetchDegree; ++i) {
        const Addr p = addr + static_cast<Addr>(i) * lineBytes;
        if (_prefetched.contains(p) || isPendingWrite(p))
            continue;
        const TagResult tr = _tags.peek(p);
        if (tr.hit || (tr.valid && tr.dirty))
            continue;
        if (_setQueues.contains(_tags.setIndex(p)))
            continue;
        _prefetched.insert(p);
        ++prefetchIssued;
        mmRead(p, [this, p](Tick) {
            // Re-validate: a demand may have raced us here.
            if (_setQueues.contains(_tags.setIndex(p))) {
                _prefetched.erase(p);
                return;
            }
            const TagResult now = _tags.peek(p);
            if (now.hit || (now.valid && now.dirty)) {
                _prefetched.erase(p);
                return;
            }
            doFill(p);
        });
    }
}

void
DramCacheCtrl::removePendingWrite(Addr addr)
{
    unsigned *n = _pendingWrites.find(addr);
    if (n && --*n == 0)
        _pendingWrites.erase(addr);
}

void
DramCacheCtrl::mmRead(Addr addr, MmReadCb cb)
{
    _mm.read(addr, std::move(cb));
}

void
DramCacheCtrl::mmWrite(Addr addr)
{
    _mm.write(addr);
}

double
DramCacheCtrl::missRatio() const
{
    std::uint64_t miss = 0, total = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(AccessOutcome::NumOutcomes); ++i) {
        const auto o = static_cast<AccessOutcome>(i);
        const auto n = static_cast<std::uint64_t>(outcomes[i].value());
        total += n;
        if (!outcomeIsHit(o))
            miss += n;
    }
    return total ? static_cast<double>(miss) / total : 0.0;
}

double
DramCacheCtrl::bloatFactor() const
{
    const double useful = bytesDemandServing.value();
    const double total = useful + bytesMaintenance.value() +
                         bytesDiscarded.value();
    return useful > 0 ? total / useful : 1.0;
}

double
DramCacheCtrl::unusefulFraction() const
{
    const double total = bytesDemandServing.value() +
                         bytesMaintenance.value() +
                         bytesDiscarded.value();
    return total > 0 ? bytesDiscarded.value() / total : 0.0;
}

double
DramCacheCtrl::meanReadQueueDelayNs() const
{
    double sum = 0;
    std::uint64_t count = 0;
    for (const auto &ch : _chans) {
        sum += ch->readQueueDelay.sum();
        count += ch->readQueueDelay.count();
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

void
DramCacheCtrl::dumpDebug(std::FILE *f) const
{
    std::fprintf(f, "%s: waiting=%u activeSets=%zu pendingWr=%zu\n",
                 name().c_str(), _waiting, _setQueues.size(),
                 _pendingWrites.size());
    std::size_t shown = 0;
    _setQueues.forEach([&](std::uint64_t set, const SetFifo &q) {
        if (shown++ >= 8)
            return;
        std::size_t depth = 0;
        for (const Txn *n = q.head; n; n = n->setNext)
            ++depth;
        const Txn *t = q.head;
        std::fprintf(f,
                     "  set %llu: depth=%zu front{id=%llu addr=%llx "
                     "%s resolved=%d finished=%d mmStarted=%d "
                     "mmDataAt=%llu victimDone=%d fillIssued=%d}\n",
                     (unsigned long long)set, depth,
                     (unsigned long long)t->pkt.id,
                     (unsigned long long)t->pkt.addr,
                     t->pkt.cmd == MemCmd::Read ? "R" : "W",
                     t->tagResolved, t->finished, t->mmStarted,
                     (unsigned long long)t->mmDataAt, t->victimDone,
                     t->fillIssued);
    });
    for (const auto &ch : _chans) {
        std::fprintf(f, "  %s: readQ=%zu writeQ=%zu flush=%u\n",
                     ch->name().c_str(), ch->readQSize(),
                     ch->writeQSize(), ch->flushSize());
    }
}

void
DramCacheCtrl::regStats(StatGroup &g) const
{
    g.addScalar("demand_reads", &demandReads);
    g.addScalar("demand_writes", &demandWrites);
    for (unsigned i = 0;
         i < static_cast<unsigned>(AccessOutcome::NumOutcomes); ++i) {
        g.addScalar(std::string("outcome.") +
                        outcomeName(static_cast<AccessOutcome>(i)),
                    &outcomes[i]);
    }
    g.addHistogram("tag_check_latency_ns", &tagCheckLatency,
                   "Fig 9 metric");
    g.addHistogram("read_latency_ns", &readLatency);
    g.addScalar("fwd_from_write_buf", &fwdFromWriteBuf);
    g.addScalar("served_from_flush", &servedFromFlush);
    g.addScalar("predicted_miss", &predictedMiss);
    g.addScalar("predictor_wrong_fetch", &predictorWrongFetch);
    g.addScalar("prefetch_issued", &prefetchIssued);
    g.addScalar("prefetch_useful", &prefetchUseful);
    g.addScalar("bytes_demand_serving", &bytesDemandServing);
    g.addScalar("bytes_maintenance", &bytesMaintenance);
    g.addScalar("bytes_discarded", &bytesDiscarded);
    g.addHistogram("conflict_buf_occupancy", &_conflictOcc);
    for (const auto &ch : _chans)
        ch->regStats(g);
}

} // namespace tsim
