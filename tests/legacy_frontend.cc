/**
 * @file
 * Implementation of the frozen pre-fast-path front end (see
 * legacy_frontend.hh). Copied verbatim from the production sources at
 * the snapshot point; do not "improve" it — its value is being the
 * unchanged seed behaviour.
 */

#include "legacy_frontend.hh"

#include <algorithm>
#include <cmath>

namespace tsim
{
namespace legacyfe
{

// ---------------------------------------------------------------------
// MainMemory (frozen copy of src/dram/main_memory.cc)
// ---------------------------------------------------------------------

MainMemory::MainMemory(EventQueue &eq, std::string name,
                       const MainMemoryConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg),
      _map(cfg.capacityBytes, cfg.channels, cfg.banks, cfg.rowBytes),
      _front(cfg.channels)
{
    ChannelConfig ccfg;
    ccfg.timing = cfg.timing;
    ccfg.banks = cfg.banks;
    ccfg.rowBytes = cfg.rowBytes;
    ccfg.readQCap = cfg.readQCap;
    ccfg.writeQCap = cfg.writeQCap;
    ccfg.refreshEnabled = cfg.refreshEnabled;
    ccfg.writeHigh = cfg.writeQCap * 3 / 4;
    ccfg.writeLow = cfg.writeQCap / 4;
    for (unsigned c = 0; c < cfg.channels; ++c) {
        _chans.push_back(std::make_unique<DramChannel>(
            eq, this->name() + ".ch" + std::to_string(c), ccfg,
            _map));
    }
}

void
MainMemory::read(Addr addr, std::function<void(Tick)> on_done)
{
    const unsigned chan = _map.decode(addr).channel;
    const Tick start = curTick();
    ++reads;
    ChanReq req;
    req.id = _nextId++;
    req.addr = addr;
    req.op = ChanOp::Read;
    req.isDemandRead = true;
    req.onDataDone = [this, start, chan,
                      cb = std::move(on_done)](Tick t) {
        readLatency.sample(ticksToNs(t - start));
        if (cb)
            cb(t);
        drainFront(chan);
    };
    submit(chan, std::move(req), false);
}

void
MainMemory::write(Addr addr)
{
    const unsigned chan = _map.decode(addr).channel;
    ++writes;
    ChanReq req;
    req.id = _nextId++;
    req.addr = addr;
    req.op = ChanOp::Write;
    req.onDataDone = [this, chan](Tick) { drainFront(chan); };
    submit(chan, std::move(req), true);
}

void
MainMemory::submit(unsigned chan, ChanReq req, bool is_write)
{
    auto &front = _front[chan];
    DramChannel &ch = *_chans[chan];
    const bool space =
        is_write ? ch.canAcceptWrite() : ch.canAcceptRead();
    if (front.empty() && space) {
        ch.enqueue(std::move(req));
    } else {
        front.push_back(Pending{std::move(req), is_write});
        frontQueueDepth.sample(static_cast<double>(front.size()));
    }
}

void
MainMemory::drainFront(unsigned chan)
{
    auto &front = _front[chan];
    DramChannel &ch = *_chans[chan];
    while (!front.empty()) {
        const bool is_write = front.front().isWrite;
        const bool space =
            is_write ? ch.canAcceptWrite() : ch.canAcceptRead();
        if (!space)
            break;
        ChanReq req = std::move(front.front().req);
        front.pop_front();
        ch.enqueue(std::move(req));
    }
}

std::uint64_t
MainMemory::bytesMoved() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _chans) {
        total += static_cast<std::uint64_t>(ch->bytesToCtrl.value()) +
                 static_cast<std::uint64_t>(ch->bytesFromCtrl.value());
    }
    return total;
}

void
MainMemory::regStats(StatGroup &g) const
{
    g.addScalar("reads", &reads, "main-memory read requests");
    g.addScalar("writes", &writes, "main-memory write requests");
    g.addHistogram("read_latency_ns", &readLatency);
    g.addHistogram("front_queue_depth", &frontQueueDepth);
}

// ---------------------------------------------------------------------
// DramCacheCtrl (frozen copy of src/dcache/dram_cache.cc)
// ---------------------------------------------------------------------

DramCacheCtrl::DramCacheCtrl(EventQueue &eq, std::string name,
                             const DramCacheConfig &cfg, MainMemory &mm,
                             ChannelConfig chan_cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg),
      _tags(cfg.capacityBytes, cfg.ways),
      _map(cfg.capacityBytes, cfg.channels, cfg.banks, cfg.rowBytes),
      _mm(mm)
{
    chan_cfg.timing = cfg.timing;
    chan_cfg.banks = cfg.banks;
    chan_cfg.rowBytes = cfg.rowBytes;
    chan_cfg.readQCap = cfg.readQCap;
    chan_cfg.writeQCap = cfg.writeQCap;
    chan_cfg.writeHigh = cfg.writeQCap * 3 / 4;
    chan_cfg.writeLow = cfg.writeQCap / 4;
    chan_cfg.flushEntries = cfg.flushEntries;
    chan_cfg.refreshEnabled = cfg.refreshEnabled;
    chan_cfg.pagePolicy = cfg.pagePolicy;
    _burstBytes = static_cast<unsigned>(
        lineBytes * cfg.timing.burstScale + 0.5);

    for (unsigned c = 0; c < cfg.channels; ++c) {
        auto ch = std::make_unique<DramChannel>(
            eq, this->name() + ".ch" + std::to_string(c), chan_cfg,
            _map);
        if (chan_cfg.inDramTags) {
            ch->peekTags = [this](Addr a) { return _tags.peek(a); };
            ch->onFlushArrive = [this](Addr victim, Tick) {
                accountCache(0, lineBytes, 0);
                mmWrite(victim);
            };
        }
        _chans.push_back(std::move(ch));
    }
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
    if (pkt.cmd == MemCmd::Read)
        ++demandReads;
    else
        ++demandWrites;
    TSIM_TRACE_EVENT(traceBuf, TraceKind::DemandStart, pkt.created,
                     pkt.addr, traceBankNone, 0,
                     pkt.cmd == MemCmd::Write ? 1u : 0u);
    TSIM_CHECK_EVENT(checker, checkChannel, TraceKind::DemandStart,
                     pkt.created, pkt.addr, traceBankNone, 0,
                     pkt.cmd == MemCmd::Write ? 1u : 0u);

    auto txn = std::make_shared<Txn>();
    txn->pkt = pkt;
    txn->cb = std::move(cb);
    ++_inFlight;

    if (!usesMshr()) {
        txn->pkt.tagIssued = curTick();
        startAccess(txn);
        return;
    }

    const std::uint64_t set = _tags.setIndex(pkt.addr);
    auto &q = _setQueues[set];
    q.push_back(txn);
    if (q.size() == 1) {
        beginTxn(txn);
    } else {
        ++_waiting;
        _conflictOcc.sample(static_cast<double>(_waiting));
    }
}

void
DramCacheCtrl::warmAccess(Addr addr, bool is_write)
{
    addr = lineAlign(addr);
    const TagResult tr = _tags.peek(addr);
    if (is_write) {
        if (tr.hit)
            _tags.markDirty(addr);
        else
            _tags.install(addr, true);
    } else {
        if (tr.hit)
            _tags.touch(addr);
        else
            _tags.install(addr, false);
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

    if (is_read && isPendingWrite(addr)) {
        ++fwdFromWriteBuf;
        txn->tagResolved = true;
        txn->pkt.tagDone = curTick();
        const AccessOutcome o = AccessOutcome::ReadHitClean;
        txn->pkt.outcome = o;
        ++outcomes[static_cast<unsigned>(o)];
        _tags.touch(addr);
        const Tick done = curTick() + _cfg.ctrlLatency;
        _eq.schedule(done, [this, txn, done] { finish(txn, done); });
        return true;
    }

    if (is_read && channelFor(addr).flushContains(addr)) {
        ++servedFromFlush;
        txn->tagResolved = true;
        txn->pkt.tagDone = curTick();
        const AccessOutcome o = AccessOutcome::ReadMissClean;
        txn->pkt.outcome = o;
        ++outcomes[static_cast<unsigned>(o)];
        const Tick done = curTick() + _cfg.ctrlLatency;
        _eq.schedule(done, [this, txn, done] { finish(txn, done); });
        return true;
    }

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
    const TagResult tr = _tags.peek(addr);
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

    if (is_read) {
        if (tr.hit) {
            _tags.touch(addr);
            if (!_prefetched.empty() && _prefetched.erase(addr))
                ++prefetchUseful;
        } else if (_cfg.prefetchDegree > 0) {
            maybePrefetch(addr);
        }
    } else {
        if (tr.hit)
            _tags.markDirty(addr);
        else
            _tags.install(addr, true);
    }

    txn->pkt.tagDone = when;
    if (sample_latency && is_read)
        tagCheckLatency.sample(ticksToNs(when - txn->pkt.tagIssued));
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
    TSIM_TRACE_EVENT(traceBuf, TraceKind::DemandDone, when,
                     txn->pkt.addr, traceBankNone,
                     when - txn->pkt.created,
                     static_cast<std::uint32_t>(txn->pkt.outcome));
    TSIM_CHECK_EVENT(checker, checkChannel, TraceKind::DemandDone, when,
                     txn->pkt.addr, traceBankNone,
                     when - txn->pkt.created,
                     static_cast<std::uint32_t>(txn->pkt.outcome));
    if (txn->pkt.cmd == MemCmd::Read)
        readLatency.sample(ticksToNs(when - txn->pkt.created));
    if (txn->cb)
        txn->cb(txn->pkt);
}

void
DramCacheCtrl::release(const TxnPtr &txn)
{
    if (!usesMshr())
        return;
    const std::uint64_t set = _tags.setIndex(txn->pkt.addr);
    auto it = _setQueues.find(set);
    panic_if(it == _setQueues.end() || it->second.empty() ||
                 it->second.front() != txn,
             "MSHR bookkeeping out of sync");
    it->second.pop_front();
    if (it->second.empty()) {
        _setQueues.erase(it);
    } else {
        --_waiting;
        beginTxn(it->second.front());
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
    _eq.scheduleIn(_cfg.timing.tBURST,
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
    accountCache(0, lineBytes, burstBytes() - lineBytes);
    enqueueChan(std::move(req), true);
}

void
DramCacheCtrl::maybePrefetch(Addr addr)
{
    for (unsigned i = 1; i <= _cfg.prefetchDegree; ++i) {
        const Addr p = addr + static_cast<Addr>(i) * lineBytes;
        if (_prefetched.count(p) || isPendingWrite(p))
            continue;
        const TagResult tr = _tags.peek(p);
        if (tr.hit || (tr.valid && tr.dirty))
            continue;
        if (_setQueues.count(_tags.setIndex(p)))
            continue;
        _prefetched.insert(p);
        ++prefetchIssued;
        mmRead(p, [this, p](Tick) {
            if (_setQueues.count(_tags.setIndex(p))) {
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
    auto it = _pendingWrites.find(addr);
    if (it != _pendingWrites.end() && --it->second == 0)
        _pendingWrites.erase(it);
}

void
DramCacheCtrl::mmRead(Addr addr, std::function<void(Tick)> cb)
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

// ---------------------------------------------------------------------
// InDramTagCtrl / NdcCtrl / TdramCtrl (frozen src/dcache/in_dram.cc)
// ---------------------------------------------------------------------

namespace
{

ChannelConfig
ndcChanCfg()
{
    ChannelConfig c;
    c.inDramTags = true;
    c.hmAtColumn = true;
    c.conditionalColumn = true;
    c.enableProbe = false;
    c.hasFlushBuffer = true;
    c.opportunisticDrain = false;
    return c;
}

ChannelConfig
tdramChanCfg(bool probing, bool conditional_column)
{
    ChannelConfig c;
    c.inDramTags = true;
    c.hmAtColumn = false;
    c.conditionalColumn = conditional_column;
    c.enableProbe = probing;
    c.hasFlushBuffer = true;
    c.opportunisticDrain = true;
    return c;
}

ChannelConfig
conventionalChanCfg()
{
    return ChannelConfig{};
}

} // namespace

InDramTagCtrl::InDramTagCtrl(EventQueue &eq, std::string name,
                             const DramCacheConfig &cfg, MainMemory &mm,
                             ChannelConfig chan_cfg)
    : DramCacheCtrl(eq, std::move(name), cfg, mm, chan_cfg)
{
}

void
InDramTagCtrl::startAccess(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    if (txn->pkt.cmd == MemCmd::Read) {
        ChanReq req;
        req.id = nextChanId();
        txn->chanReqId = req.id;
        req.addr = addr;
        req.op = ChanOp::ActRd;
        req.isDemandRead = true;
        req.onTagResult = [this, txn](Tick t, const TagResult &tr) {
            readTagResult(txn, t, tr);
        };
        req.onDataDone = [this, txn](Tick t) { readDataDone(txn, t); };
        enqueueChan(std::move(req), false);
        return;
    }

    ChanReq req;
    req.id = nextChanId();
    txn->chanReqId = req.id;
    req.addr = addr;
    req.op = ChanOp::ActWr;
    req.onTagResult = [this, txn](Tick t, const TagResult &) {
        resolveTags(txn, t);
        finish(txn, t);
    };
    addPendingWrite(addr);
    req.onDataDone = [this, addr](Tick) { removePendingWrite(addr); };
    accountCache(lineBytes, 0, burstBytes() - lineBytes);
    enqueueChan(std::move(req), true);
}

void
InDramTagCtrl::readTagResult(const TxnPtr &txn, Tick t,
                             const TagResult &tr)
{
    if (txn->finished || txn->tagResolved)
        return;
    resolveTags(txn, t);

    switch (txn->pkt.outcome) {
      case AccessOutcome::ReadHitClean:
      case AccessOutcome::ReadHitDirty:
        break;
      case AccessOutcome::ReadMissInvalid:
      case AccessOutcome::ReadMissClean:
        txn->victimDone = true;
        if (tr.viaProbe) {
            channelFor(txn->pkt.addr).removeRead(txn->chanReqId);
        }
        if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(txn->pkt.addr,
                   [this, txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        break;
      case AccessOutcome::ReadMissDirty:
        if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(txn->pkt.addr,
                   [this, txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        break;
      default:
        panic("unexpected outcome for a read demand");
    }
}

void
InDramTagCtrl::readDataDone(const TxnPtr &txn, Tick t)
{
    if (!txn->tagResolved) {
        TagResult tr{};
        readTagResult(txn, t, tr);
    }
    if (outcomeIsHit(txn->pkt.outcome)) {
        accountCache(lineBytes, 0, 0);
        respond(txn, t);
        release(txn);
        return;
    }
    if (txn->pkt.outcome == AccessOutcome::ReadMissClean ||
        txn->pkt.outcome == AccessOutcome::ReadMissInvalid) {
        panic_if(channelFor(txn->pkt.addr).config().conditionalColumn,
                 "unexpected data on a %s read",
                 outcomeName(txn->pkt.outcome));
        accountCache(0, 0, lineBytes);
        return;
    }
    accountCache(0, lineBytes, 0);
    mmWrite(txn->tr.victimAddr);
    txn->victimDone = true;
    maybeFill(txn);
}

void
InDramTagCtrl::mmDataArrived(const TxnPtr &txn, Tick t)
{
    txn->mmDataAt = t;
    respond(txn, t);
    maybeFill(txn);
}

void
InDramTagCtrl::maybeFill(const TxnPtr &txn)
{
    if (txn->fillIssued || txn->mmDataAt == 0 || !txn->victimDone)
        return;
    txn->fillIssued = true;
    doFill(txn->pkt.addr);
    release(txn);
}

NdcCtrl::NdcCtrl(EventQueue &eq, std::string name,
                 const DramCacheConfig &cfg, MainMemory &mm)
    : InDramTagCtrl(eq, std::move(name), cfg, mm, ndcChanCfg())
{
}

TdramCtrl::TdramCtrl(EventQueue &eq, std::string name,
                     const DramCacheConfig &cfg, MainMemory &mm,
                     bool probing)
    : InDramTagCtrl(eq, std::move(name), cfg, mm,
                    tdramChanCfg(probing, cfg.tdramConditionalColumn)),
      _probing(probing)
{
}

// ---------------------------------------------------------------------
// CascadeLakeCtrl (frozen copy of src/dcache/conventional.cc)
// ---------------------------------------------------------------------

CascadeLakeCtrl::CascadeLakeCtrl(EventQueue &eq, std::string name,
                                 const DramCacheConfig &cfg,
                                 MainMemory &mm)
    : DramCacheCtrl(eq, std::move(name), cfg, mm,
                    conventionalChanCfg())
{
}

bool
CascadeLakeCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    const unsigned c = _map.decode(pkt.addr).channel;
    return _chans[c]->canAcceptRead();
}

void
CascadeLakeCtrl::startAccess(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    const bool is_read = txn->pkt.cmd == MemCmd::Read;

    if (is_read && _cfg.predictor && !_pred.predictHit(txn->pkt.pc)) {
        ++predictedMiss;
        txn->mmStarted = true;
        mmRead(addr,
               [this, txn](Tick t) { mmDataArrived(txn, t); });
    }

    ChanReq req;
    req.id = nextChanId();
    txn->chanReqId = req.id;
    req.addr = addr;
    req.op = ChanOp::Read;
    req.isDemandRead = is_read;
    req.onDataDone = [this, txn](Tick t) { tagDataArrived(txn, t); };
    enqueueChan(std::move(req), false);
}

void
CascadeLakeCtrl::tagDataArrived(const TxnPtr &txn, Tick t)
{
    const Addr addr = txn->pkt.addr;
    const bool is_read = txn->pkt.cmd == MemCmd::Read;
    const bool predicted_hit =
        _cfg.predictor ? _pred.predictHit(txn->pkt.pc) : true;

    resolveTags(txn, t);
    if (_cfg.predictor && is_read) {
        _pred.update(txn->pkt.pc, txn->tr.hit);
        _pred.recordOutcome(predicted_hit, txn->tr.hit);
    }

    const unsigned pad = burstBytes() - lineBytes;
    const bool dirty_victim =
        !txn->tr.hit && txn->tr.valid && txn->tr.dirty;

    if (is_read) {
        if (txn->tr.hit) {
            accountCache(lineBytes, 0, pad);
            if (txn->mmStarted)
                ++predictorWrongFetch;
            finish(txn, t);
            return;
        }
        if (dirty_victim) {
            accountCache(0, lineBytes, pad);
            mmWrite(txn->tr.victimAddr);
        } else {
            accountCache(0, 0, lineBytes + pad);
        }
        if (txn->mmDataAt != 0) {
            doFill(addr);
            txn->fillIssued = true;
            finish(txn, t);
        } else if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(addr,
                   [this, txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        return;
    }

    if (dirty_victim) {
        accountCache(0, lineBytes, pad);
        mmWrite(txn->tr.victimAddr);
    } else {
        accountCache(0, 0, lineBytes + pad);
    }
    issueDemandWrite(txn);
    finish(txn, t);
}

void
CascadeLakeCtrl::issueDemandWrite(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    addPendingWrite(addr);
    ChanReq w;
    w.id = nextChanId();
    w.addr = addr;
    w.op = ChanOp::Write;
    w.onDataDone = [this, addr](Tick) { removePendingWrite(addr); };
    accountCache(lineBytes, 0, burstBytes() - lineBytes);
    enqueueChan(std::move(w), true);
}

void
CascadeLakeCtrl::mmDataArrived(const TxnPtr &txn, Tick t)
{
    txn->mmDataAt = t;
    if (!txn->tagResolved)
        return;
    if (txn->tr.hit)
        return;
    if (!txn->fillIssued) {
        doFill(txn->pkt.addr);
        txn->fillIssued = true;
    }
    finish(txn, t);
}

// ---------------------------------------------------------------------
// CoreEngine (frozen copy of src/workload/core_engine.cc)
// ---------------------------------------------------------------------

CoreEngine::CoreEngine(
    EventQueue &eq, std::string name, const CoreConfig &cfg,
    std::vector<std::unique_ptr<AddressGenerator>> gens,
    DramCacheCtrl &dcache, std::uint64_t seed)
    : SimObject(eq, std::move(name)), _cfg(cfg), _dcache(dcache),
      _llc("llc", cfg.llcBytes, cfg.llcWays, cfg.llcLatency),
      _rng(seed)
{
    fatal_if(gens.size() != cfg.cores,
             "need one generator per core (%u cores, %zu gens)",
             cfg.cores, gens.size());
    _cores.resize(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        _l1s.push_back(std::make_unique<SramCache>(
            "l1." + std::to_string(c), cfg.l1Bytes, cfg.l1Ways,
            cfg.l1Latency));
        _cores[c].gen = std::move(gens[c]);
    }
}

void
CoreEngine::start()
{
    for (unsigned c = 0; c < _cfg.cores; ++c)
        scheduleAdvance(c, curTick());
}

void
CoreEngine::scheduleAdvance(unsigned c, Tick when)
{
    auto &core = _cores[c];
    if (core.issueScheduled)
        return;
    core.issueScheduled = true;
    _eq.schedule(std::max(when, curTick()), [this, c] {
        _cores[c].issueScheduled = false;
        advance(c);
    });
}

void
CoreEngine::advance(unsigned c)
{
    auto &core = _cores[c];
    if (core.finished)
        return;
    const Tick now = curTick();
    if (core.readyAt < now)
        core.readyAt = now;

    if (!drainStalled(c)) {
        scheduleAdvance(c, now + _cfg.retryInterval);
        return;
    }

    while (core.issued < _cfg.opsPerCore) {
        if (core.readyAt > now) {
            scheduleAdvance(c, core.readyAt);
            return;
        }
        if (core.outstanding >= _cfg.mlp)
            return;

        const MemOp op = core.gen->next(_rng);
        ++core.issued;
        core.readyAt += _cfg.thinkTime + _cfg.l1Latency;

        const Addr line = lineAlign(op.addr);
        SramCache &l1 = *_l1s[c];
        const auto l1res = l1.access(line, op.isStore);
        if (l1res.hit) {
            ++core.retired;
            ++opsRetired;
            continue;
        }

        if (l1res.writeback) {
            const auto wb = _llc.access(l1res.writebackAddr, true);
            if (wb.writeback) {
                MemPacket p;
                p.id = _nextPktId++;
                p.addr = wb.writebackAddr;
                p.cmd = MemCmd::Write;
                p.coreId = static_cast<int>(c);
                core.stalled.push_back(p);
            }
        }

        core.readyAt += _cfg.llcLatency;
        const auto llcres = _llc.access(line, false);
        if (llcres.writeback) {
            MemPacket p;
            p.id = _nextPktId++;
            p.addr = llcres.writebackAddr;
            p.cmd = MemCmd::Write;
            p.coreId = static_cast<int>(c);
            core.stalled.push_back(p);
        }
        if (llcres.hit) {
            if (!drainStalled(c)) {
                scheduleAdvance(c, now + _cfg.retryInterval);
                return;
            }
            ++core.retired;
            ++opsRetired;
            continue;
        }

        MemPacket rd;
        rd.id = _nextPktId++;
        rd.addr = line;
        rd.cmd = MemCmd::Read;
        rd.coreId = static_cast<int>(c);
        rd.pc = (static_cast<Addr>(c) << 32) | (core.issued % 64) * 4;
        core.stalled.push_back(rd);

        if (!drainStalled(c)) {
            scheduleAdvance(c, now + _cfg.retryInterval);
            return;
        }
    }
    maybeFinish(c);
}

bool
CoreEngine::drainStalled(unsigned c)
{
    auto &core = _cores[c];
    while (!core.stalled.empty()) {
        MemPacket &pkt = core.stalled.front();
        if (!issueDemand(c, pkt)) {
            ++backpressureStalls;
            return false;
        }
        core.stalled.pop_front();
    }
    return true;
}

bool
CoreEngine::issueDemand(unsigned c, MemPacket &pkt)
{
    if (!_dcache.canAccept(pkt))
        return false;
    if (pkt.cmd == MemCmd::Read) {
        ++_cores[c].outstanding;
        ++demandReadsIssued;
        _dcache.access(pkt, [this, c](MemPacket &done) {
            readReturned(c, done);
        });
    } else {
        ++demandWritesIssued;
        _dcache.access(pkt, RespCallback{});
    }
    return true;
}

void
CoreEngine::readReturned(unsigned c, const MemPacket &pkt)
{
    auto &core = _cores[c];
    panic_if(core.outstanding == 0, "read returned with none in flight");
    --core.outstanding;
    ++core.retired;
    ++opsRetired;
    demandReadLatency.sample(ticksToNs(pkt.completed - pkt.created));
    if (core.issued < _cfg.opsPerCore || !core.stalled.empty()) {
        advance(c);
    } else {
        maybeFinish(c);
    }
}

void
CoreEngine::maybeFinish(unsigned c)
{
    auto &core = _cores[c];
    if (core.finished || core.issued < _cfg.opsPerCore ||
        core.outstanding > 0 || !core.stalled.empty()) {
        return;
    }
    core.finished = true;
    ++_coresDone;
    _finishTick =
        std::max(_finishTick, std::max(curTick(), core.readyAt));
}

void
CoreEngine::warmup(std::uint64_t ops_per_core)
{
    for (unsigned c = 0; c < _cfg.cores; ++c) {
        auto &core = _cores[c];
        SramCache &l1 = *_l1s[c];
        for (std::uint64_t i = 0; i < ops_per_core; ++i) {
            const MemOp op = core.gen->next(_rng);
            const Addr line = lineAlign(op.addr);
            const auto l1res = l1.access(line, op.isStore);
            if (l1res.hit)
                continue;
            if (l1res.writeback) {
                const auto wb = _llc.access(l1res.writebackAddr, true);
                if (wb.writeback)
                    _dcache.warmAccess(wb.writebackAddr, true);
            }
            const auto llcres = _llc.access(line, false);
            if (llcres.writeback)
                _dcache.warmAccess(llcres.writebackAddr, true);
            if (!llcres.hit)
                _dcache.warmAccess(line, false);
        }
    }
}

void
CoreEngine::regStats(StatGroup &g) const
{
    g.addScalar("ops_retired", &opsRetired);
    g.addScalar("demand_reads_issued", &demandReadsIssued);
    g.addScalar("demand_writes_issued", &demandWritesIssued);
    g.addScalar("backpressure_stalls", &backpressureStalls);
    g.addHistogram("demand_read_latency_ns", &demandReadLatency);
    _llc.regStats(g);
}

} // namespace legacyfe
} // namespace tsim
