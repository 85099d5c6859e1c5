#include "dcache/tictoc.hh"

namespace tsim
{

bool
TicTocCtrl::initialOpAdmissible(const MemPacket &pkt) const
{
    const unsigned c = _map.decode(pkt.addr).channel;
    // Writes that cannot displace a dirty victim skip the tag-check
    // read, so their initial operation is the demand write itself.
    if (pkt.cmd == MemCmd::Write && !writeEvictsDirty(pkt.addr))
        return _chans[c]->canAcceptWrite();
    return _chans[c]->canAcceptRead();
}

void
TicTocCtrl::startAccess(const TxnPtr &txn)
{
    // The tracked dirtiness state proves most writes safe without a
    // tag check: a write hit updates in place, and a write miss over
    // a clean (or invalid) victim can write-allocate immediately —
    // nothing that needs a writeback is displaced. Only a write miss
    // over a valid dirty victim still takes the conventional
    // tag-read-first flow (the fetched data is the writeback data).
    if (txn->pkt.cmd == MemCmd::Write &&
        !writeEvictsDirty(txn->pkt.addr)) {
        ++tagReadsElided;
        resolveTags(txn, curTick(), /*sample_latency=*/false);
        demandWrite(txn->pkt.addr);
        _eq.scheduleIn(_cfg.ctrlLatency,
                       [this, txn = txn] { finish(txn, curTick()); });
        return;
    }
    CascadeLakeCtrl::startAccess(txn);
}

void
TicTocCtrl::tagDataArrived(const TxnPtr &txn, Tick t)
{
    // Read miss over a valid dirty victim: eliding the fill keeps
    // the dirty line resident and saves both the victim writeback
    // and the fill write — the demand is served straight from main
    // memory and only the tag-read burst is spent (discarded).
    if (txn->pkt.cmd == MemCmd::Read && !txn->tagResolved) {
        const TagResult p = _tags.peek(txn->pkt.addr);
        if (!p.hit && p.valid && p.dirty) {
            const bool predicted_hit =
                _cfg.predictor ? _pred.predictHit(txn->pkt.pc) : true;
            resolveTags(txn, t);
            if (_cfg.predictor) {
                _pred.update(txn->pkt.pc, txn->tr.hit);
                _pred.recordOutcome(predicted_hit, txn->tr.hit);
            }
            accountCache(0, 0, burstBytes());
            ++fillsElided;
            txn->fillIssued = true;  // suppress mmDataArrived's fill
            if (txn->mmDataAt != 0) {
                finish(txn, t);
            } else if (!txn->mmStarted) {
                txn->mmStarted = true;
                mmRead(txn->pkt.addr, [this, txn = txn](Tick t2) {
                    mmDataArrived(txn, t2);
                });
            }
            return;
        }
    }
    CascadeLakeCtrl::tagDataArrived(txn, t);
}

void
TicTocCtrl::warmAccess(Addr addr, bool is_write)
{
    // Mirror the steady state of the timed flow: a read miss whose
    // victim is valid and dirty elides the fill, so warmup must not
    // install over it either (the dirty victim stays resident).
    addr = lineAlign(addr);
    if (!is_write) {
        const TagResult p = _tags.peek(addr);
        if (!p.hit && p.valid && p.dirty)
            return;
    }
    DramCacheCtrl::warmAccess(addr, is_write);
}

void
TicTocCtrl::regStats(StatGroup &g) const
{
    DramCacheCtrl::regStats(g);
    g.addScalar("tictoc.tag_reads_elided", &tagReadsElided);
    g.addScalar("tictoc.fills_elided", &fillsElided);
}

} // namespace tsim
