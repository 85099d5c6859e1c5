#include "dcache/simple.hh"

namespace tsim
{

IdealCtrl::IdealCtrl(EventQueue &eq, std::string name,
                     const DramCacheConfig &cfg, MainMemory &mm)
    : DramCacheCtrl(eq, std::move(name), Design::Ideal, cfg, mm)
{
}

void
IdealCtrl::startAccess(const TxnPtr &txn)
{
    // The ideal cache knows hit/miss and metadata instantly.
    resolveTags(txn, curTick());
    if (txn->pkt.cmd == MemCmd::Read)
        startRead(txn);
    else
        startWrite(txn);
}

void
IdealCtrl::startRead(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    if (txn->tr.hit) {
        ChanReq req = chanReq(addr, ChanOp::Read);
        req.isDemandRead = true;
        req.onDataDone = [this, txn = txn](Tick t) {
            accountCache(lineBytes, 0, 0);
            finish(txn, t);
        };
        enqueueChan(std::move(req), false);
        return;
    }

    // Read miss: the backing-store fetch starts immediately; a dirty
    // victim is read out off the critical path.
    const bool dirty_victim = txn->tr.valid && txn->tr.dirty;
    if (dirty_victim) {
        ChanReq v = chanReq(txn->tr.victimAddr, ChanOp::Read);
        v.onDataDone = [this, txn = txn](Tick) {
            accountCache(0, lineBytes, 0);
            mmWrite(txn->tr.victimAddr);
            txn->victimDone = true;
            maybeFill(txn);
        };
        enqueueChan(std::move(v), false);
    } else {
        txn->victimDone = true;
    }
    txn->mmStarted = true;
    mmRead(addr, [this, txn = txn](Tick t) {
        txn->mmDataAt = t;
        respond(txn, t);
        maybeFill(txn);
    });
}

void
IdealCtrl::startWrite(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    const bool dirty_victim =
        !txn->tr.hit && txn->tr.valid && txn->tr.dirty;
    if (dirty_victim) {
        // The victim must leave the data mats before the new data
        // overwrites it.
        ChanReq v = chanReq(txn->tr.victimAddr, ChanOp::Read);
        v.onDataDone = [this, txn = txn](Tick t) {
            accountCache(0, lineBytes, 0);
            mmWrite(txn->tr.victimAddr);
            demandWrite(txn->pkt.addr);
            finish(txn, t);
        };
        enqueueChan(std::move(v), false);
        return;
    }
    demandWrite(addr);
    _eq.scheduleIn(_cfg.ctrlLatency,
                   [this, txn = txn] { finish(txn, curTick()); });
}

void
IdealCtrl::maybeFill(const TxnPtr &txn)
{
    if (txn->fillIssued || txn->mmDataAt == 0 || !txn->victimDone)
        return;
    txn->fillIssued = true;
    doFill(txn->pkt.addr);
    release(txn);
}

NoCacheCtrl::NoCacheCtrl(EventQueue &eq, std::string name,
                         const DramCacheConfig &cfg, MainMemory &mm)
    : DramCacheCtrl(eq, std::move(name), Design::NoCache, cfg, mm)
{
}

void
NoCacheCtrl::startAccess(const TxnPtr &txn)
{
    if (txn->pkt.cmd == MemCmd::Read) {
        mmRead(txn->pkt.addr,
               [this, txn = txn](Tick t) { respond(txn, t); });
    } else {
        mmWrite(txn->pkt.addr);
        _eq.scheduleIn(_cfg.ctrlLatency,
                       [this, txn = txn] { respond(txn, curTick()); });
    }
}

} // namespace tsim
