#include "dcache/in_dram.hh"

namespace tsim
{

void
InDramTagCtrl::startAccess(const TxnPtr &txn)
{
    const Addr addr = txn->pkt.addr;
    if (txn->pkt.cmd == MemCmd::Read) {
        ChanReq req = chanReq(addr, ChanOp::ActRd);
        txn->chanReqId = req.id;
        req.isDemandRead = true;
        req.onTagResult = [this, txn = txn](Tick t, const TagResult &tr) {
            readTagResult(txn, t, tr);
        };
        req.onDataDone = [this, txn = txn](Tick t) { readDataDone(txn, t); };
        enqueueChan(std::move(req), false);
        return;
    }

    // Write demand: a single ActWr carries the data; the device
    // handles a dirty victim through its flush buffer, so no data
    // ever returns and no DQ turnaround occurs (§III-D2).
    ChanReq req = chanReq(addr, ChanOp::ActWr);
    txn->chanReqId = req.id;
    req.onTagResult = [this, txn = txn](Tick t, const TagResult &) {
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
        // Data arrives via readDataDone; nothing to start here.
        break;
      case AccessOutcome::ReadMissInvalid:
      case AccessOutcome::ReadMissClean:
        txn->victimDone = true;  // no victim transfer needed
        if (tr.viaProbe) {
            // Probe retired the request from the read queue before
            // its MAIN slot; the data-bank access never happens.
            channelFor(txn->pkt.addr).removeRead(txn->chanReqId);
        }
        if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(txn->pkt.addr,
                   [this, txn = txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        break;
      case AccessOutcome::ReadMissDirty:
        // Start the backing-store fetch immediately (the HM result
        // precedes the dirty-victim data transfer); the victim
        // arrives via readDataDone and stays off the critical path.
        if (!txn->mmStarted) {
            txn->mmStarted = true;
            mmRead(txn->pkt.addr,
                   [this, txn = txn](Tick t2) { mmDataArrived(txn, t2); });
        }
        break;
      default:
        panic("unexpected outcome for a read demand");
    }
}

void
InDramTagCtrl::readDataDone(const TxnPtr &txn, Tick t)
{
    // Note: txn->finished may already be true here — respond() fires
    // at backing-store-data time, which can precede the dirty-victim
    // transfer when the HM result (or a probe) started the fetch
    // early. The victim handoff below must still run.
    if (!txn->tagResolved) {
        // NDC delivers data and status in the same slot; the data
        // event can run first. Resolve via the normal path.
        TagResult tr{};  // placeholder, resolveTags re-peeks
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
        // Only possible with the conditional-column ablation
        // disabled: the device streamed data the controller must
        // discard, exactly like a conventional design.
        panic_if(channelFor(txn->pkt.addr).config().conditionalColumn,
                 "unexpected data on a %s read",
                 outcomeName(txn->pkt.outcome));
        accountCache(0, 0, lineBytes);
        return;
    }
    // Dirty victim streamed out: write it back to main memory.
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

} // namespace tsim
