#include "dcache/banshee.hh"

namespace tsim
{

BansheeCtrl::BansheeCtrl(EventQueue &eq, std::string name,
                         const DramCacheConfig &cfg, MainMemory &mm)
    : DramCacheCtrl(eq, name, Design::Banshee, cfg, mm),
      _remap(eq, name + ".remap", cfg.capacityBytes, cfg.pageBytes,
             cfg.ways)
{
    fatal_if(!pageSplitsOverChannels(cfg.pageBytes, cfg.channels),
             "%llu B pages do not split into whole lines over %u channels",
             (unsigned long long)cfg.pageBytes, cfg.channels);
}

bool
BansheeCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    const Addr page = pageAlign(pkt.addr);
    if (!mappedForDemand(page))
        return true;  // bypass: the mm front queue never stalls
    const unsigned c = _map.decode(pkt.addr).channel;
    return pkt.cmd == MemCmd::Write ? _chans[c]->canAcceptWrite()
                                    : _chans[c]->canAcceptRead();
}

void
BansheeCtrl::classifyBypass(const TxnPtr &txn, Tick when)
{
    if (txn->tagResolved)
        return;
    txn->tagResolved = true;

    classify(txn, _tags.peek(txn->pkt.addr));
    txn->pkt.tagDone = when;
    if (txn->pkt.cmd == MemCmd::Read) {
        emit(*this, TagResolvedEv{
            .latencyNs = ticksToNs(when - txn->pkt.tagIssued)});
    }
}

void
BansheeCtrl::startAccess(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    const Addr page = pageAlign(addr);
    const bool is_read = txn->pkt.cmd == MemCmd::Read;

    if (mappedForDemand(page)) {
        _remap.touch(page);
        // The remap lookup is SRAM-side, so the tag check costs
        // nothing; a mapped page has every line resident (the fill
        // path excludes in-flight pages from mappedForDemand).
        resolveTags(txn, curTick());
        panic_if(!txn->tr.hit,
                 "%s: mapped page %llx with non-resident line %llx",
                 name().c_str(), (unsigned long long)page,
                 (unsigned long long)addr);
        if (is_read) {
            ChanReq req = chanReq(addr, ChanOp::Read);
            txn->chanReqId = req.id;
            req.isDemandRead = true;
            req.onDataDone = [this, txn = txn](Tick t) {
                accountCache(lineBytes, 0, 0);
                finish(txn, t);
            };
            enqueueChan(std::move(req), false);
        } else {
            demandWrite(addr);
            _eq.scheduleIn(_cfg.ctrlLatency, [this, txn = txn] {
                finish(txn, curTick());
            });
        }
        return;
    }

    // Unmapped page: bypass to main memory and count the page as a
    // remap candidate.
    classifyBypass(txn, curTick());
    if (is_read) {
        txn->mmStarted = true;
        mmRead(addr, [this, txn = txn](Tick t) { finish(txn, t); });
    } else {
        mmWrite(addr);
        _eq.scheduleIn(_cfg.ctrlLatency,
                       [this, txn = txn] { finish(txn, curTick()); });
    }
    trackCandidate(page);
}

void
BansheeCtrl::trackCandidate(Addr page)
{
    ++_candFreq[page];
    if (!fillQualifies(page))
        return;
    if (_fillActive) {
        for (unsigned i = 0; i < _pendingCount; ++i) {
            if (_pendingFills[i] == page)
                return;
        }
        if (_pendingCount < kMaxPendingFills) {
            _pendingFills[_pendingCount++] = page;
        } else {
            ++fillsDropped;
        }
        return;
    }
    startFill(page);
}

void
BansheeCtrl::startFill(Addr page)
{
    _fillActive = true;
    _fillPage = page;
    _fillGroup = _nextGroup++ & traceGroupMask;

    const std::uint64_t *f = _candFreq.find(page);
    const std::uint64_t freq = f ? *f : 0;
    _candFreq.erase(page);

    const RemapTable::InstallResult res = _remap.install(page, freq);
    ++pageFills;

    const std::uint32_t ex = (res.victimValid ? 1u : 0u) |
                             (_fillGroup << traceGroupShift);
    // Every channel receives part of the line-interleaved page, so
    // every per-channel checker opens the fill group.
    for (auto &ch : _chans)
        ch->noteRemap(curTick(), page, res.victimValid ? res.victimPage : 0,
                      ex);

    if (res.victimValid)
        spillVictim(res.victimPage);

    const unsigned lines = linesPerPage();
    for (unsigned k = 0; k < lines; ++k) {
        const Addr line = page + k * lineBytes;
        ++_fillOutstanding;
        mmRead(line, [this, line](Tick) { fillLineArrived(line); });
    }
}

void
BansheeCtrl::spillVictim(Addr victim)
{
    const unsigned lines = linesPerPage();
    // Only dirty lines move; clean ones are dropped for free. The
    // snapshot happens before the invalidate sweep below.
    for (unsigned k = 0; k < lines; ++k) {
        const Addr line = victim + k * lineBytes;
        const TagResult tr = _tags.peek(line);
        if (!tr.hit || !tr.dirty)
            continue;
        ++_spillOutstanding;
        ++spilledLines;
        ChanReq r = chanReq(line, ChanOp::Read);
        r.ctrlExtra = traceSpillFlag | (_fillGroup << traceGroupShift);
        r.onDataDone = [this, line](Tick) {
            accountCache(0, lineBytes, 0);
            mmWrite(line);
            spillOpDone();
        };
        enqueueChan(std::move(r), false);
    }
    for (unsigned k = 0; k < lines; ++k)
        _tags.invalidate(victim + k * lineBytes);
}

void
BansheeCtrl::fillLineArrived(Addr line)
{
    // Install at data arrival (not upfront) so the line becomes
    // forwardable exactly when its fill write is pending.
    _tags.install(line, false);
    addPendingWrite(line);
    ChanReq w = chanReq(line, ChanOp::Write);
    w.ctrlExtra = traceFillFlag | (_fillGroup << traceGroupShift);
    w.onDataDone = [this, line](Tick) {
        removePendingWrite(line);
        fillOpDone();
    };
    accountCache(0, lineBytes, 0);
    enqueueChan(std::move(w), true);
}

void
BansheeCtrl::fillOpDone()
{
    panic_if(_fillOutstanding == 0, "%s: stray fill completion",
             name().c_str());
    --_fillOutstanding;
    completeIfDrained();
}

void
BansheeCtrl::spillOpDone()
{
    panic_if(_spillOutstanding == 0, "%s: stray spill completion",
             name().c_str());
    --_spillOutstanding;
    completeIfDrained();
}

void
BansheeCtrl::completeIfDrained()
{
    if (_fillOutstanding != 0 || _spillOutstanding != 0)
        return;
    _fillActive = false;
    // Pop parked candidates in arrival order until one still beats
    // its victim (frequencies move while a fill is in flight).
    while (_pendingCount > 0) {
        const Addr page = _pendingFills[0];
        --_pendingCount;
        for (unsigned i = 0; i < _pendingCount; ++i)
            _pendingFills[i] = _pendingFills[i + 1];
        if (_remap.contains(page))
            continue;
        if (fillQualifies(page)) {
            startFill(page);
            return;
        }
    }
}

void
BansheeCtrl::warmAccess(Addr addr, bool is_write)
{
    addr = lineAlign(addr);
    const Addr page = pageAlign(addr);
    if (_remap.contains(page)) {
        _remap.touch(page);
        if (is_write)
            _tags.markDirty(addr);
        else
            _tags.touch(addr);
        return;
    }
    const std::uint64_t f = ++_candFreq[page];
    if (f < _remap.victimFreq(page) + kFillThreshold)
        return;
    // Silent page-grain warm fill: no Remap events, no statistics.
    _candFreq.erase(page);
    const RemapTable::InstallResult res =
        _remap.install(page, f, /*silent=*/true);
    const unsigned lines = linesPerPage();
    if (res.victimValid) {
        for (unsigned k = 0; k < lines; ++k)
            _tags.invalidate(res.victimPage + k * lineBytes);
    }
    for (unsigned k = 0; k < lines; ++k)
        _tags.install(page + k * lineBytes, false);
    if (is_write)
        _tags.markDirty(addr);
}

void
BansheeCtrl::regStats(StatGroup &g) const
{
    DramCacheCtrl::regStats(g);
    g.addScalar("banshee.page_fills", &pageFills);
    g.addScalar("banshee.spilled_lines", &spilledLines);
    g.addScalar("banshee.fills_dropped", &fillsDropped);
    _remap.regStats(g);
}

} // namespace tsim
