#include "dcache/conventional.hh"

namespace tsim
{

CascadeLakeCtrl::CascadeLakeCtrl(EventQueue &eq, std::string name,
                                 Design design,
                                 const DramCacheConfig &cfg,
                                 MainMemory &mm)
    : DramCacheCtrl(eq, std::move(name), design, cfg, mm)
{
}

bool
CascadeLakeCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    // Every demand, including writes, starts with a tag+data read
    // through the read queue (§II-B1).
    const unsigned c = _map.decode(pkt.addr).channel;
    return _chans[c]->canAcceptRead();
}

void
CascadeLakeCtrl::startAccess(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    const bool is_read = txn->pkt.cmd == MemCmd::Read;

    // MAP-I (§V-D): reads predicted to miss overlap the backing-store
    // fetch with the tag check. The tag check must still complete
    // before responding (the victim may be dirty).
    if (is_read && _cfg.predictor && !_pred.predictHit(txn->pkt.pc)) {
        ++predictedMiss;
        txn->mmStarted = true;
        mmRead(addr,
               [this, txn = txn](Tick t) { mmDataArrived(txn, t); });
    }

    ChanReq req = chanReq(addr, ChanOp::Read);
    txn->chanReqId = req.id;
    req.isDemandRead = is_read;
    req.onDataDone = [this, txn = txn](Tick t) { tagDataArrived(txn, t); };
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

    const unsigned pad = burstBytes() - lineBytes;  // TAD overhead
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
        // Read miss: the fetched data served only the tag check
        // unless the victim is dirty (then it is the writeback data).
        if (dirty_victim) {
            accountCache(0, lineBytes, pad);
            mmWrite(txn->tr.victimAddr);
        } else {
            accountCache(0, 0, lineBytes + pad);
        }
        if (txn->mmDataAt != 0) {
            // Predictor fetch already returned; respond now.
            doFill(addr);
            txn->fillIssued = true;
            finish(txn, t);
        } else if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(addr,
                   [this, txn = txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        return;
    }

    // Write demand: the tag-read data is discarded unless the victim
    // is dirty (write-miss-dirty needs it for the writeback).
    if (dirty_victim) {
        accountCache(0, lineBytes, pad);
        mmWrite(txn->tr.victimAddr);
    } else {
        accountCache(0, 0, lineBytes + pad);
    }
    demandWrite(txn->pkt.addr);
    finish(txn, t);
}

void
CascadeLakeCtrl::mmDataArrived(const TxnPtr &txn, Tick t)
{
    txn->mmDataAt = t;
    if (!txn->tagResolved)
        return;  // predictor fetch beat the tag check; wait for it
    if (txn->tr.hit)
        return;  // wasted predictor fetch (counted at tag time)
    if (!txn->fillIssued) {
        doFill(txn->pkt.addr);
        txn->fillIssued = true;
    }
    finish(txn, t);
}

bool
BearCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    const unsigned c = _map.decode(pkt.addr).channel;
    if (pkt.cmd == MemCmd::Write && _tags.peek(pkt.addr).hit)
        return _chans[c]->canAcceptWrite();
    return _chans[c]->canAcceptRead();
}

void
BearCtrl::startAccess(const TxnPtr &txn)
{
    // BEAR's DRAM-cache-presence bit lets LLC writebacks that hit
    // skip the tag-check read entirely (§II-B, Fig 3 caption).
    if (txn->pkt.cmd == MemCmd::Write && _tags.peek(txn->pkt.addr).hit) {
        resolveTags(txn, curTick(), /*sample_latency=*/false);
        demandWrite(txn->pkt.addr);
        _eq.scheduleIn(_cfg.ctrlLatency,
                       [this, txn = txn] { finish(txn, curTick()); });
        return;
    }
    CascadeLakeCtrl::startAccess(txn);
}

} // namespace tsim
