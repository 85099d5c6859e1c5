/**
 * @file
 * DRAM channel implementation: the incremental, allocation-free
 * FR-FCFS back-end. See channel.hh for the model and DESIGN.md §9 for
 * why the incremental scheduler is tick- and order-identical to the
 * reference full-scan one it replaced; tests/channel_sched_test.cpp
 * pins that reference's output as digests.
 */

#include "dram/channel.hh"

#include <algorithm>

namespace tsim
{

namespace
{

/** Subtract with clamping at zero (timing offsets on unsigned ticks). */
constexpr Tick
subClamp(Tick a, Tick b)
{
    return a > b ? a - b : 0;
}

} // namespace

DramChannel::DramChannel(EventQueue &eq, std::string name,
                         ChannelConfig cfg, AddressMap map)
    : SimObject(eq, std::move(name)), _cfg(cfg), _map(map),
      _t(_cfg.timing), _banks(cfg.banks),
      _flush(cfg.flushEntries)
{
    fatal_if(_cfg.banks == 0, "channel needs at least one bank");

    // Fixed-size request slab: enqueue panics on overflow, so the
    // pool never grows and the steady state never allocates.
    const std::uint32_t cap = _cfg.readQCap + _cfg.writeQCap;
    _pool.resize(cap);
    for (std::uint32_t i = 0; i < cap; ++i)
        _pool[i].next = (i + 1 < cap) ? i + 1 : NIL;
    _freeHead = cap ? 0 : NIL;

    // Read-id index: power-of-two table at <= 1/2 load factor.
    std::size_t want = 2 * std::max<std::size_t>(_cfg.readQCap, 4);
    std::size_t size = 1;
    while (size < want)
        size <<= 1;
    _readIndex.resize(size);
    _indexMask = static_cast<std::uint32_t>(size - 1);

    _orphans.resize(std::max(1u, _cfg.readQCap));

    for (auto &words : _queuedBanks)
        words.resize((_cfg.banks + 63) / 64);

    if (_cfg.refreshEnabled) {
        _eq.schedule(_t.tREFI, [this] { startRefresh(); });
    }
}

// ---------------------------------------------------------------------
// Request pool and intrusive lists.
// ---------------------------------------------------------------------

std::uint32_t
DramChannel::allocNode()
{
    panic_if(_freeHead == NIL, "%s: request pool exhausted",
             name().c_str());
    const std::uint32_t idx = _freeHead;
    _freeHead = _pool[idx].next;
    _pool[idx].next = NIL;
    return idx;
}

void
DramChannel::freeNode(std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    // Drop any callback still held; the rest of the request is
    // overwritten when the node is next taken.
    n.req.onTagResult.reset();
    n.req.onDataDone.reset();
    n.probePending = false;
    n.prev = n.bankPrev = n.bankNext = n.probePrev = n.probeNext = NIL;
    n.next = _freeHead;
    _freeHead = idx;
}

void
DramChannel::qLink(unsigned dir, std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    n.prev = _q[dir].tail;
    n.next = NIL;
    if (_q[dir].tail == NIL)
        _q[dir].head = idx;
    else
        _pool[_q[dir].tail].next = idx;
    _q[dir].tail = idx;
}

void
DramChannel::qUnlink(unsigned dir, std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    if (n.prev != NIL)
        _pool[n.prev].next = n.next;
    else
        _q[dir].head = n.next;
    if (n.next != NIL)
        _pool[n.next].prev = n.prev;
    else
        _q[dir].tail = n.prev;
    n.prev = n.next = NIL;
}

void
DramChannel::probeLink(std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    n.probePrev = _probeQ.tail;
    n.probeNext = NIL;
    if (_probeQ.tail == NIL)
        _probeQ.head = idx;
    else
        _pool[_probeQ.tail].probeNext = idx;
    _probeQ.tail = idx;
    ++_banks[n.req.coord.bank].probeEligible;
}

void
DramChannel::probeUnlink(std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    if (n.probePrev != NIL)
        _pool[n.probePrev].probeNext = n.probeNext;
    else
        _probeQ.head = n.probeNext;
    if (n.probeNext != NIL)
        _pool[n.probeNext].probePrev = n.probePrev;
    else
        _probeQ.tail = n.probePrev;
    n.probePrev = n.probeNext = NIL;
    --_banks[n.req.coord.bank].probeEligible;
}

void
DramChannel::bankLink(BankState &b, unsigned dir, std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    n.bankPrev = b.q[dir].tail;
    n.bankNext = NIL;
    if (b.q[dir].tail == NIL) {
        b.q[dir].head = idx;
        const unsigned bank = n.req.coord.bank;
        _queuedBanks[dir][bank / 64] |= std::uint64_t{1} << (bank % 64);
    } else {
        _pool[b.q[dir].tail].bankNext = idx;
    }
    b.q[dir].tail = idx;
    ++b.opCount[dir][opKindIdx(n.req.op)];
    if (_cfg.pagePolicy == PagePolicy::Open && b.rowOpen &&
        b.openRow == n.req.coord.row) {
        ++b.hitCount[dir][opKindIdx(n.req.op)];
    }
}

void
DramChannel::bankUnlink(BankState &b, unsigned dir, std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    if (n.bankPrev != NIL)
        _pool[n.bankPrev].bankNext = n.bankNext;
    else
        b.q[dir].head = n.bankNext;
    if (n.bankNext != NIL)
        _pool[n.bankNext].bankPrev = n.bankPrev;
    else
        b.q[dir].tail = n.bankPrev;
    n.bankPrev = n.bankNext = NIL;
    if (b.q[dir].head == NIL) {
        const unsigned bank = n.req.coord.bank;
        _queuedBanks[dir][bank / 64] &= ~(std::uint64_t{1} << (bank % 64));
    }
    --b.opCount[dir][opKindIdx(n.req.op)];
    if (_cfg.pagePolicy == PagePolicy::Open && b.rowOpen &&
        b.openRow == n.req.coord.row) {
        --b.hitCount[dir][opKindIdx(n.req.op)];
    }
}

void
DramChannel::rebuildHitCounts(BankState &b)
{
    b.hitCount[0][0] = b.hitCount[0][1] = 0;
    b.hitCount[1][0] = b.hitCount[1][1] = 0;
    if (!b.rowOpen)
        return;
    for (unsigned dir = 0; dir < 2; ++dir) {
        for (std::uint32_t i = b.q[dir].head; i != NIL;
             i = _pool[i].bankNext) {
            const ReqNode &n = _pool[i];
            if (n.req.coord.row == b.openRow)
                ++b.hitCount[dir][opKindIdx(n.req.op)];
        }
    }
}

// ---------------------------------------------------------------------
// Read id -> node index (open addressing, linear probing).
// ---------------------------------------------------------------------

std::uint64_t
DramChannel::hashId(std::uint64_t id)
{
    id *= 0x9e3779b97f4a7c15ull;
    return id ^ (id >> 32);
}

void
DramChannel::indexInsert(std::uint64_t id, std::uint32_t node)
{
    std::uint32_t s =
        static_cast<std::uint32_t>(hashId(id)) & _indexMask;
    while (_readIndex[s].node != NIL)
        s = (s + 1) & _indexMask;
    _readIndex[s].id = id;
    _readIndex[s].node = node;
}

std::uint32_t
DramChannel::indexFind(std::uint64_t id) const
{
    std::uint32_t s =
        static_cast<std::uint32_t>(hashId(id)) & _indexMask;
    while (_readIndex[s].node != NIL) {
        if (_readIndex[s].id == id)
            return _readIndex[s].node;
        s = (s + 1) & _indexMask;
    }
    return NIL;
}

void
DramChannel::indexErase(std::uint64_t id)
{
    std::uint32_t s =
        static_cast<std::uint32_t>(hashId(id)) & _indexMask;
    for (;;) {
        if (_readIndex[s].node == NIL)
            return;
        if (_readIndex[s].id == id)
            break;
        s = (s + 1) & _indexMask;
    }
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones.
    std::uint32_t hole = s;
    std::uint32_t j = s;
    for (;;) {
        j = (j + 1) & _indexMask;
        if (_readIndex[j].node == NIL)
            break;
        const std::uint32_t home =
            static_cast<std::uint32_t>(hashId(_readIndex[j].id)) &
            _indexMask;
        if (((j - home) & _indexMask) >= ((j - hole) & _indexMask)) {
            _readIndex[hole] = _readIndex[j];
            hole = j;
        }
    }
    _readIndex[hole].node = NIL;
}

// ---------------------------------------------------------------------
// Orphaned tag callbacks: a probed request can leave the queue (issue
// or probe-miss-clean retire) while its probe HM event — and, after
// issue, the MAIN HM event — are still in flight. The callback parks
// here and each delivery routes to it by id, preserving the old
// copied-std::function semantics with a move-only callback.
// ---------------------------------------------------------------------

void
DramChannel::orphanAdd(std::uint64_t id, ChanTagCb cb,
                       std::uint8_t refs)
{
    for (auto &o : _orphans) {
        if (!o.active) {
            o.id = id;
            o.cb = std::move(cb);
            o.refs = refs;
            o.active = true;
            return;
        }
    }
    OrphanCb o;
    o.id = id;
    o.cb = std::move(cb);
    o.refs = refs;
    o.active = true;
    _orphans.push_back(std::move(o));
}

void
DramChannel::orphanDeliver(std::uint64_t id, Tick t,
                           const TagResult &tr)
{
    // Index-based: the callback may add new orphans (vector growth)
    // while it runs; slot i itself is stable until refs hits zero.
    for (std::size_t i = 0; i < _orphans.size(); ++i) {
        if (!_orphans[i].active || _orphans[i].id != id)
            continue;
        if (_orphans[i].cb) {
            ChanTagCb cb = std::move(_orphans[i].cb);
            cb(t, tr);
            _orphans[i].cb = std::move(cb);
        }
        if (--_orphans[i].refs == 0) {
            _orphans[i].cb.reset();
            _orphans[i].active = false;
        }
        return;
    }
}

void
DramChannel::deliverProbe(std::uint64_t id, Tick t, const TagResult &tr)
{
    const std::uint32_t idx = indexFind(id);
    if (idx == NIL) {
        orphanDeliver(id, t, tr);
        return;
    }
    ReqNode &n = _pool[idx];
    n.probePending = false;
    if (!n.req.onTagResult)
        return;
    // Move the callback out for the call: the consumer may retire the
    // request (removeRead) from inside it, freeing the node.
    ChanTagCb cb = std::move(n.req.onTagResult);
    cb(t, tr);
    const std::uint32_t again = indexFind(id);
    if (again != NIL)
        _pool[again].req.onTagResult = std::move(cb);
}

// ---------------------------------------------------------------------
// Queue admission.
// ---------------------------------------------------------------------

void
DramChannel::enqueue(ChanReq req)
{
    req.enqueued = curTick();
    req.coord = _map.decode(req.addr);
    const unsigned dir = dirOf(req.op);
    if (dir == DirWrite) {
        panic_if(_qCount[DirWrite] >= _cfg.writeQCap,
                 "%s: write queue overflow", name().c_str());
    } else {
        panic_if(_qCount[DirRead] >= _cfg.readQCap,
                 "%s: read queue overflow", name().c_str());
    }
    const std::uint32_t idx = allocNode();
    ReqNode &n = _pool[idx];
    n.req = std::move(req);
    n.seq = _nextArrival++;
    n.probePending = false;
    qLink(dir, idx);
    BankState &b = _banks[n.req.coord.bank];
    bankLink(b, dir, idx);
    ++_qCount[dir];
    if (dir == DirRead) {
        indexInsert(n.req.id, idx);
        if (wantsProbe(n.req))
            probeLink(idx);
    }
    if (!skipEnqueueKick(idx))
        kick();
}

bool
DramChannel::skipEnqueueKick(std::uint32_t idx)
{
    // While settled, every other queued request has its class tick at
    // or after the pending kick, so the new request is the only work
    // kick() could find now. It would issue nothing if this request
    // cannot issue, the drain mode does not flip and no probe is
    // possible; its wake could then only move in to this request's
    // class (or probe) tick.
    const Tick now = curTick();
    if (!_settled || _nextKick <= now || nextDrainMode() != _drainingWrites)
        return false;
    const ReqNode &n = _pool[idx];
    const unsigned dir = dirOf(n.req.op);
    Tick wake = maxTick;
    if (dir == DirWrite || !_drainingWrites) {
        wake = earliestIssue(n.req);
        if (wake <= now)
            return false;
    }
    unsigned conflicts = 0;
    if (!probeBlocked(now, conflicts))
        return false;
    noteProbeConflicts(conflicts);
    if (dir == DirRead && wantsProbe(n.req))
        wake = std::min(wake, probeWake(_banks[n.req.coord.bank].tagNextAct));
    if (wake < _nextKick)
        scheduleKick(wake);
    return true;
}

bool
DramChannel::removeRead(std::uint64_t id)
{
    const std::uint32_t idx = indexFind(id);
    if (idx == NIL)
        return false;
    ReqNode &n = _pool[idx];
    emit(*this, ReadRetiredEv{
        .queueDelayNs = ticksToNs(curTick() - n.req.enqueued)});
    BankState &b = _banks[n.req.coord.bank];
    if (wantsProbe(n.req))
        probeUnlink(idx);
    if (n.probePending) {
        // The probe HM event is still in flight and must deliver its
        // result exactly as the old copied-callback semantics did.
        orphanAdd(n.req.id, std::move(n.req.onTagResult), 1);
    }
    qUnlink(DirRead, idx);
    bankUnlink(b, DirRead, idx);
    --_qCount[DirRead];
    indexErase(id);
    freeNode(idx);
    return true;
}

// ---------------------------------------------------------------------
// Timing primitives (identical to the reference scheduler).
// ---------------------------------------------------------------------

Tick
DramChannel::dqEarliest(bool is_write) const
{
    Tick turn = 0;
    if (_dqEverUsed && _dqLastWrite != is_write)
        turn = is_write ? _t.tRTW : _t.tWTR;
    return _dqFreeAt + turn;
}

Tick
DramChannel::reserveDq(bool is_write, Tick start, Tick dur)
{
    const Tick earliest = dqEarliest(is_write);
    if (start < earliest)
        start = earliest;
    if (_dqEverUsed && _dqLastWrite != is_write)
        ++turnarounds;
    _dqFreeAt = start + dur;
    _dqLastWrite = is_write;
    _dqEverUsed = true;
    return start;
}

Tick
DramChannel::fawConstraint() const
{
    return _acts < 4 ? 0 : _actRing[_actHead] + _t.tXAW;
}

void
DramChannel::recordAct(Tick t)
{
    _lastAct = t;
    _actRing[_actHead] = t;
    _actHead = (_actHead + 1) & 3;
    if (_acts < 4)
        ++_acts;
}

bool
DramChannel::rowHit(const ChanReq &req) const
{
    const BankState &b = _banks[req.coord.bank];
    return b.rowOpen && b.openRow == req.coord.row;
}

// ---------------------------------------------------------------------
// Class-based FR-FCFS selection and wake-up.
//
// Every constraint on a request's issue tick is a function of global
// state plus the request's (bank, op kind, row-hit) class, so all
// requests of one class in one bank share one classIssue() value, and
// a bank FIFO is global arrival order restricted to that bank. The
// per-bank counts opCount/hitCount say which classes are present, so
// the wake-up is a min over present classes and selection walks a
// bank only up to the first member of a class that is ready — exactly
// the reference oldest-first full scan.
// ---------------------------------------------------------------------

void
DramChannel::updateGates()
{
    const Tick no_act = std::max(_caFreeAt, _refreshUntil);
    // Row hits need no ACT, so tRRD/tFAW constrain every other class.
    Tick act = no_act;
    if (_acts > 0)
        act = std::max(act, _lastAct + _t.tRRD);
    act = std::max(act, fawConstraint());
    const Tick hm = _cfg.hmAtColumn ? 0
                                    : subClamp(_hmFreeAt, _t.hmLatency());

    for (unsigned dir = 0; dir < 2; ++dir) {
        const bool is_write = dir == DirWrite;
        const Tick dq = dqEarliest(is_write);
        ClassGates &g = _gates[dir];
        if (_cfg.pagePolicy == PagePolicy::Open) {
            // Command-sequence start to first data beat.
            const Tick col = is_write ? _t.tCWL : _t.tCL;
            g.rowHit = std::max(no_act, subClamp(dq, col));
            g.kind[0] = std::max(act, subClamp(dq, col + _t.tRCD));
            g.rowConflict =
                std::max(act, subClamp(dq, col + _t.tRCD + _t.tRP));
        } else {
            g.kind[0] = std::max(
                act, subClamp(dq, is_write ? _t.tRCD_WR + _t.tCWL
                                           : _t.tRCD + _t.tCL));
            g.rowHit = g.rowConflict = maxTick;  // no open rows
        }
        g.kind[1] = std::max(
            {act, hm,
             subClamp(dq, is_write ? _t.tCWL : _t.tRCD + _t.tCL)});
    }
}

Tick
DramChannel::classIssue(unsigned dir, const BankState &b, unsigned kind,
                        bool row_hit) const
{
    const ClassGates &g = _gates[dir];
    // ActRd/ActWr always activate (tag and data mats together), so
    // the open-page row-hit shortcut never applies to them.
    if (kind == 1)
        return std::max({g.kind[1], b.nextAct, b.tagNextAct});
    if (_cfg.pagePolicy == PagePolicy::Open) {
        if (row_hit)
            return std::max(g.rowHit, b.nextAct);
        if (b.rowOpen)  // respect tRAS/tWR before the PRE
            return std::max({g.rowConflict, b.nextAct, b.nextPre});
    }
    return std::max(g.kind[0], b.nextAct);
}

Tick
DramChannel::earliestIssue(const ChanReq &req) const
{
    return classIssue(dirOf(req.op), _banks[req.coord.bank],
                      opKindIdx(req.op),
                      _cfg.pagePolicy == PagePolicy::Open && rowHit(req));
}

std::uint32_t
DramChannel::firstReadyInBank(const BankState &b, unsigned dir,
                              Tick now, bool row_hits_only,
                              std::uint64_t seq_bound) const
{
    const bool open = _cfg.pagePolicy == PagePolicy::Open;
    // Bit kind * 2 + row_hit is set for each present class ready now.
    unsigned ready = 0;
    for (unsigned kind = 0; kind < 2; ++kind) {
        const unsigned hits = open ? b.hitCount[dir][kind] : 0u;
        if (hits && classIssue(dir, b, kind, true) <= now)
            ready |= 2u << (kind * 2);
        if (!row_hits_only && b.opCount[dir][kind] > hits &&
            classIssue(dir, b, kind, false) <= now) {
            ready |= 1u << (kind * 2);
        }
    }
    if (ready == 0)
        return NIL;
    for (std::uint32_t i = b.q[dir].head; i != NIL;
         i = _pool[i].bankNext) {
        ++hostScanSteps;
        const ReqNode &n = _pool[i];
        if (n.seq >= seq_bound)
            return NIL;  // an older candidate from another bank wins
        const unsigned cls = opKindIdx(n.req.op) * 2 +
                             ((open && rowHit(n.req)) ? 1u : 0u);
        if ((ready >> cls) & 1u)
            return i;
    }
    return NIL;
}

std::uint32_t
DramChannel::selectReady(unsigned dir, Tick now) const
{
    if (_qCount[dir] == 0)
        return NIL;
    const ClassGates &g = _gates[dir];
    std::uint32_t best = NIL;
    std::uint64_t best_seq = ~std::uint64_t{0};
    if (_cfg.pagePolicy == PagePolicy::Open) {
        // FR-FCFS pass 1: the oldest issuable row hit. Banks with no
        // queued row hit are skipped without touching their queues.
        forQueuedBanks(dir == DirRead, dir == DirWrite,
                       [&](const BankState &b) {
            if ((b.hitCount[dir][0] | b.hitCount[dir][1]) == 0 ||
                b.nextAct > now) {
                return;
            }
            const std::uint32_t c =
                firstReadyInBank(b, dir, now, true, best_seq);
            if (c != NIL) {
                best = c;
                best_seq = _pool[c].seq;
            }
        });
        if (best != NIL)
            return best;
    }
    // Pass 2: the oldest issuable request of any kind. Everything
    // still issuable here needs an ACT (close page always; open page
    // because pass 1 returned no ready row hit), so the tRRD/tFAW
    // activation gates apply to every remaining candidate.
    if (std::min({g.kind[0], g.kind[1], g.rowConflict}) > now)
        return NIL;
    forQueuedBanks(dir == DirRead, dir == DirWrite,
                   [&](const BankState &b) {
        if (b.nextAct > now)
            return;
        const std::uint32_t c =
            firstReadyInBank(b, dir, now, false, best_seq);
        if (c != NIL) {
            best = c;
            best_seq = _pool[c].seq;
        }
    });
    return best;
}

namespace
{

/** Per-class minima of the bank-dependent terms of classIssue(). */
struct BankTermMin
{
    Tick closedMiss = maxTick; ///< plain op, row miss, bank closed
    Tick rowHit = maxTick;     ///< plain op, row hit (open page)
    Tick rowConflict = maxTick; ///< plain op, another row open
    Tick act = maxTick;        ///< ActRd/ActWr
};

} // namespace

Tick
DramChannel::earliestWake() const
{
    // classIssue() is max(class gate, bank terms), so the min over
    // banks of each class is max(gate, min over banks of the bank
    // terms): one pass over the queued banks collects those minima,
    // and each gate is applied once.
    const bool open = _cfg.pagePolicy == PagePolicy::Open;
    const bool reads = !_drainingWrites;
    BankTermMin m[2];
    Tick probe_tag = maxTick;
    auto add = [open](BankTermMin &mm, const BankState &b, unsigned dir) {
        const unsigned hits = open ? b.hitCount[dir][0] : 0u;
        if (b.opCount[dir][1] != 0)
            mm.act = std::min(mm.act, std::max(b.nextAct, b.tagNextAct));
        if (hits != 0)
            mm.rowHit = std::min(mm.rowHit, b.nextAct);
        if (b.opCount[dir][0] > hits) {
            if (b.rowOpen)
                mm.rowConflict = std::min(mm.rowConflict,
                                          std::max(b.nextAct, b.nextPre));
            else
                mm.closedMiss = std::min(mm.closedMiss, b.nextAct);
        }
    };
    forQueuedBanks(reads, true, [&](const BankState &b) {
        add(m[DirWrite], b, DirWrite);
        if (reads) {
            add(m[DirRead], b, DirRead);
            if (b.probeEligible != 0)
                probe_tag = std::min(probe_tag, b.tagNextAct);
        }
    });

    Tick wake = maxTick;
    for (unsigned dir : {DirRead, DirWrite}) {
        if (_qCount[dir] == 0 || (dir == DirRead && !reads))
            continue;
        const ClassGates &g = _gates[dir];
        wake = std::min({wake, std::max(g.kind[0], m[dir].closedMiss),
                         std::max(g.rowHit, m[dir].rowHit),
                         std::max(g.rowConflict, m[dir].rowConflict),
                         std::max(g.kind[1], m[dir].act)});
    }
    return std::min(wake, probeWake(probe_tag));
}

// ---------------------------------------------------------------------
// Issue paths (timing identical to the reference scheduler).
// ---------------------------------------------------------------------

void
DramChannel::dequeueAndIssue(std::uint32_t idx)
{
    ReqNode &n = _pool[idx];
    const unsigned dir = dirOf(n.req.op);
    BankState &b = _banks[n.req.coord.bank];
    if (dir == DirRead) {
        indexErase(n.req.id);
        if (wantsProbe(n.req))
            probeUnlink(idx);
    }
    qUnlink(dir, idx);
    bankUnlink(b, dir, idx);
    --_qCount[dir];
    const bool probe_pending = n.probePending;
    ChanReq r = std::move(n.req);
    freeNode(idx);
    issue(std::move(r), probe_pending);
}

void
DramChannel::issue(ChanReq &&req, bool probe_pending)
{
    switch (req.op) {
      case ChanOp::Read:
        issueConventional(req, false);
        break;
      case ChanOp::Write:
        issueConventional(req, true);
        break;
      case ChanOp::ActRd:
        issueActRd(req, probe_pending);
        break;
      case ChanOp::ActWr:
        issueActWr(req);
        break;
    }
}

void
DramChannel::issueConventional(ChanReq &req, bool is_write)
{
    const Tick now = curTick();
    const unsigned bytes =
        static_cast<unsigned>(lineBytes * _t.burstScale + 0.5);
    BankState &b = _banks[req.coord.bank];
    // Row-hit status must be read before the bank state mutates below.
    const bool was_row_hit =
        _cfg.pagePolicy == PagePolicy::Open && rowHit(req);

    _caFreeAt = now + _t.clkPeriod;

    Tick data_start;
    if (_cfg.pagePolicy == PagePolicy::Open) {
        // Open-page: skip the ACT on a row hit; PRE+ACT on a
        // conflict; plain ACT on a closed bank.
        Tick col_at = now;
        if (rowHit(req)) {
            ++rowHits;
        } else {
            Tick act_at = now;
            if (b.rowOpen) {
                act_at = now + _t.tRP;  // precharge first
                ++rowConflicts;
            }
            recordAct(act_at);
            ++dataBankActs;
            b.rowOpen = true;
            b.openRow = req.coord.row;
            rebuildHitCounts(b);
            b.nextPre = act_at + _t.tRAS;
            col_at = act_at + (is_write ? _t.tRCD_WR : _t.tRCD);
        }
        b.nextAct = col_at + _t.tCCD_L;
        data_start = reserveDq(
            is_write, col_at + (is_write ? _t.tCWL : _t.tCL),
            _t.dataBurst());
        if (is_write) {
            b.nextPre = std::max(b.nextPre,
                                 data_start + _t.dataBurst() + _t.tWR);
        }
    } else {
        recordAct(now);
        ++dataBankActs;
        if (is_write) {
            b.nextAct = now + _t.writeBankBusy();
            data_start = now + _t.tRCD_WR + _t.tCWL;
        } else {
            b.nextAct = now + _t.readBankBusy();
            data_start = now + _t.tRCD + _t.tCL;
        }
        data_start = reserveDq(is_write, data_start, _t.dataBurst());
    }

    const Tick done = data_start + _t.dataBurst();
    const auto bank16 = static_cast<std::uint16_t>(req.coord.bank);
    if (is_write) {
        emit(*this, WriteIssuedEv{
            .tick = now, .addr = req.addr, .bank = bank16,
            .aux = done - now,
            .extra = (was_row_hit ? 1u : 0u) | req.ctrlExtra,
            .bytes = bytes,
            .burstTicks = static_cast<double>(_t.dataBurst())});
    } else {
        emit(*this, ReadIssuedEv{
            .tick = now, .addr = req.addr, .bank = bank16,
            .aux = done - now,
            .extra = (was_row_hit ? 1u : 0u) | req.ctrlExtra,
            .bytes = bytes,
            .queueDelayNs = ticksToNs(now - req.enqueued),
            .burstTicks = static_cast<double>(_t.dataBurst())});
    }
    if (req.onDataDone) {
        _eq.schedule(done, [cb = std::move(req.onDataDone),
                            done]() mutable { cb(done); });
    }
}

void
DramChannel::issueActRd(ChanReq &req, bool probe_pending)
{
    panic_if(!peekTags, "%s: ActRd without a tag backend",
             name().c_str());
    const Tick now = curTick();
    const unsigned bytes =
        static_cast<unsigned>(lineBytes * _t.burstScale + 0.5);
    BankState &b = _banks[req.coord.bank];

    _caFreeAt = now + _t.clkPeriod;
    recordAct(now);
    b.nextAct = now + _t.readBankBusy();
    b.tagNextAct = now + _t.tRC_TAG;

    TagResult tr = peekTags(req.addr);
    // Data streams to the controller on a hit or a miss to a dirty
    // line (the victim must be written back); a miss to a clean or
    // invalid line suppresses the column operation entirely.
    const bool transfer =
        tr.hit || (!tr.hit && tr.valid && tr.dirty) ||
        !_cfg.conditionalColumn;

    const Tick data_start = reserveDq(false, now + _t.tRCD + _t.tCL,
                                      _t.dataBurst());
    const Tick data_done = data_start + _t.dataBurst();

    Tick hm_tick;
    if (_cfg.hmAtColumn) {
        // NDC: the status is determined during the column operation,
        // so the controller learns it only when the data slot ends.
        hm_tick = data_done;
    } else {
        hm_tick = now + _t.hmLatency();
        _hmFreeAt = hm_tick + hmBusOccupancy;
    }

    const auto bank16 = static_cast<std::uint16_t>(req.coord.bank);
    const std::uint32_t tag_bits =
        packTagBits(tr.hit, tr.valid, tr.dirty, false);
    emit(*this, ActRdIssuedEv{
        .tick = now, .addr = req.addr, .bank = bank16,
        .aux = data_done - now,
        .extra = tag_bits | (transfer ? 16u : 0u),
        .bytes = bytes,
        .burstTicks = static_cast<double>(_t.dataBurst()),
        .transfer = transfer,
        .queueDelayNs = ticksToNs(now - req.enqueued)});
    emit(*this, HmResultEv{
        .tick = hm_tick, .addr = req.addr, .bank = bank16,
        .aux = hm_tick - now, .extra = tag_bits});

    if (transfer) {
        if (req.onDataDone) {
            _eq.schedule(data_done,
                         [cb = std::move(req.onDataDone),
                          data_done]() mutable { cb(data_done); });
        }
    } else {
        // Read-miss-clean: the reserved DQ slot goes unused; TDRAM
        // donates it to flush-buffer unloading (§III-D2 (ii)).
        if (_cfg.hasFlushBuffer && _cfg.opportunisticDrain &&
            !_flush.empty()) {
            const Addr victim = _flush.pop();
            _flush.beginDrain();
            emit(*this, FlushDrainEv{
                .tick = data_done, .addr = victim,
                .bank = static_cast<std::uint16_t>(
                    _map.decode(victim).bank),
                .aux = _flush.size(),
                .extra =
                    static_cast<std::uint32_t>(DrainCause::MissClean),
                .burstTicks = static_cast<double>(_t.dataBurst())});
            _eq.schedule(data_done, [this, victim, data_done] {
                _flush.completeDrain();
                if (onFlushArrive)
                    onFlushArrive(victim, data_done);
            });
        } else {
            emit(*this, DqIdleEv{
                .burstTicks = static_cast<double>(_t.dataBurst())});
        }
    }

    if (req.onTagResult) {
        if (probe_pending) {
            // The probe HM result for this request is still in
            // flight; park the callback where both deliveries (the
            // probe's and this MAIN result's) can reach it.
            const std::uint64_t id = req.id;
            orphanAdd(id, std::move(req.onTagResult), 2);
            _eq.schedule(hm_tick, [this, id, tr, hm_tick] {
                orphanDeliver(id, hm_tick, tr);
            });
        } else {
            _eq.schedule(hm_tick,
                         [cb = std::move(req.onTagResult), tr,
                          hm_tick]() mutable { cb(hm_tick, tr); });
        }
    }
}

void
DramChannel::issueActWr(ChanReq &req)
{
    panic_if(!peekTags, "%s: ActWr without a tag backend",
             name().c_str());
    const Tick now = curTick();
    const unsigned bytes =
        static_cast<unsigned>(lineBytes * _t.burstScale + 0.5);
    BankState &b = _banks[req.coord.bank];

    _caFreeAt = now + _t.clkPeriod;
    recordAct(now);
    b.tagNextAct = now + _t.tRC_TAG;

    TagResult tr = peekTags(req.addr);
    const bool miss_dirty = !tr.hit && tr.valid && tr.dirty;

    // Write-miss-dirty performs an internal read of the victim into
    // the flush buffer before the internal write (Figure 6); the
    // extra core occupancy is internal and never reaches the DQ bus.
    Tick bank_busy = _t.writeBankBusy();
    if (miss_dirty && _cfg.hasFlushBuffer)
        bank_busy += _t.tRL_core + _t.tRTW_int;
    b.nextAct = now + bank_busy;

    const Tick data_start =
        reserveDq(true, now + _t.tCWL, _t.dataBurst());
    const Tick data_done = data_start + _t.dataBurst();

    Tick hm_tick;
    if (_cfg.hmAtColumn) {
        hm_tick = data_done;
    } else {
        hm_tick = now + _t.hmLatency();
        _hmFreeAt = hm_tick + hmBusOccupancy;
    }

    const auto bank16 = static_cast<std::uint16_t>(req.coord.bank);
    const std::uint32_t tag_bits =
        packTagBits(tr.hit, tr.valid, tr.dirty, false);
    emit(*this, ActWrIssuedEv{
        .tick = now, .addr = req.addr, .bank = bank16,
        .aux = data_done - now, .extra = tag_bits,
        .bytes = bytes,
        .burstTicks = static_cast<double>(_t.dataBurst())});
    emit(*this, HmResultEv{
        .tick = hm_tick, .addr = req.addr, .bank = bank16,
        .aux = hm_tick - now, .extra = tag_bits});

    if (miss_dirty && _cfg.hasFlushBuffer) {
        // The victim lands in the flush buffer once the internal read
        // completes. If the buffer is full this is a TDRAM stall: the
        // controller must force a drain (§III-D2 (iii)).
        const Tick push_at = now + _t.tRCD + _t.tRL_core;
        const Addr victim = tr.victimAddr;
        _eq.schedule(push_at, [this, victim] { flushPushRetry(victim); });
    }

    if (req.onTagResult) {
        _eq.schedule(hm_tick,
                     [cb = std::move(req.onTagResult), tr,
                      hm_tick]() mutable { cb(hm_tick, tr); });
    }
    if (req.onDataDone) {
        _eq.schedule(data_done,
                     [cb = std::move(req.onDataDone),
                      data_done]() mutable { cb(data_done); });
    }
}

void
DramChannel::flushPushRetry(Addr victim)
{
    if (_flush.push(victim)) {
        emit(*this, FlushPushEv{
            .tick = curTick(), .addr = victim,
            .bank =
                static_cast<std::uint16_t>(_map.decode(victim).bank),
            .aux = _flush.size(), .extra = 0});
        kick();
        return;
    }
    // Buffer (including in-flight drains) is full: force an explicit
    // drain and retry once capacity frees up.
    forceDrain();
    const Tick retry =
        std::max(curTick() + _t.dataBurst(), _flushDrainUntil);
    _eq.schedule(retry, [this, victim] { flushPushRetry(victim); });
}

void
DramChannel::noteRemap(Tick when, Addr page, Addr victim,
                       std::uint32_t extra)
{
    emit(*this, RemapEv{.tick = when, .addr = page,
                        .bank = traceBankNone, .aux = victim,
                        .extra = extra});
}

void
DramChannel::forceDrain()
{
    if (_flush.empty())
        return;
    _settled = false;  // moves the DQ bus state
    // Entries drain back-to-back as a group to amortize the DQ
    // read-direction turnaround (paper §III-D2 (iii); NDC's RES).
    Tick start = std::max(curTick(), dqEarliest(false));
    if (_dqEverUsed && _dqLastWrite)
        ++turnarounds;
    while (!_flush.empty()) {
        const Addr victim = _flush.pop();
        _flush.beginDrain();
        const Tick done = start + _t.tBURST;
        emit(*this, FlushDrainEv{
            .tick = done, .addr = victim,
            .bank =
                static_cast<std::uint16_t>(_map.decode(victim).bank),
            .aux = _flush.size(),
            .extra = static_cast<std::uint32_t>(DrainCause::Forced),
            .burstTicks = static_cast<double>(_t.tBURST)});
        _eq.schedule(done, [this, victim, done] {
            _flush.completeDrain();
            if (onFlushArrive)
                onFlushArrive(victim, done);
        });
        start = done;
    }
    _dqFreeAt = start;
    _dqLastWrite = false;
    _dqEverUsed = true;
    _flushDrainUntil = start;
}

// ---------------------------------------------------------------------
// Early tag probing.
// ---------------------------------------------------------------------

bool
DramChannel::tryProbe()
{
    const Tick now = curTick();
    unsigned conflicts = 0;
    if (probeBlocked(now, conflicts)) {
        noteProbeConflicts(conflicts);
        return false;
    }

    // Among probe-eligible requests pick the *youngest* (paper
    // §III-E2) to minimize average queueing delay. Every younger one
    // found with its tag bank busy counts as a conflict.
    conflicts = 0;
    for (std::uint32_t i = _probeQ.tail; i != NIL;
         i = _pool[i].probePrev) {
        ++hostScanSteps;
        ReqNode &n = _pool[i];
        BankState &b = _banks[n.req.coord.bank];
        if (b.tagNextAct > now) {
            ++conflicts;
            continue;
        }
        noteProbeConflicts(conflicts);
        probeUnlink(i);
        n.req.probed = true;
        n.probePending = true;
        _caFreeAt = now + _t.clkPeriod;
        b.tagNextAct = now + _t.tRC_TAG;
        TagResult tr = peekTags(n.req.addr);
        tr.viaProbe = true;
        const Tick hm_lat = _t.hmLatency();
        const Tick hm_tick = now + hm_lat;
        _hmFreeAt = hm_tick + hmBusOccupancy;
        const auto bank16 = static_cast<std::uint16_t>(n.req.coord.bank);
        const std::uint32_t tag_bits =
            packTagBits(tr.hit, tr.valid, tr.dirty, true);
        emit(*this, ProbeIssuedEv{
            .tick = now, .addr = n.req.addr, .bank = bank16,
            .aux = hm_lat, .extra = tag_bits});
        emit(*this, HmResultEv{
            .tick = hm_tick, .addr = n.req.addr, .bank = bank16,
            .aux = hm_lat, .extra = tag_bits});
        const std::uint64_t id = n.req.id;
        _eq.schedule(hm_tick, [this, id, tr, hm_tick] {
            deliverProbe(id, hm_tick, tr);
        });
        return true;
    }
    panic("%s: probe list out of step with probeEligible",
          name().c_str());
}

Tick
DramChannel::probeGate() const
{
    return std::max({_caFreeAt, _refreshUntil,
                     subClamp(_hmFreeAt, _t.hmLatency())});
}

Tick
DramChannel::probeWake(Tick tag_free) const
{
    // As in the reference scheduler, write drain never wakes to probe.
    if (!_cfg.enableProbe || _drainingWrites || tag_free == maxTick)
        return maxTick;
    return std::max(probeGate(), tag_free);
}

bool
DramChannel::probeBlocked(Tick now, unsigned &conflicts) const
{
    conflicts = 0;
    if (!_cfg.enableProbe || _qCount[DirRead] == 0 || probeGate() > now)
        return true;
    bool tag_bank_free = false;
    forQueuedBanks(true, false, [&](const BankState &b) {
        if (b.tagNextAct <= now)
            tag_bank_free = tag_bank_free || b.probeEligible > 0;
        else
            conflicts += b.probeEligible;
    });
    return !tag_bank_free;
}

void
DramChannel::noteProbeConflicts(unsigned conflicts)
{
    if (conflicts > 0)
        emit(*this, ProbeConflictEv{.count = conflicts});
}

// ---------------------------------------------------------------------
// Refresh and the scheduler loop.
// ---------------------------------------------------------------------

void
DramChannel::startRefresh()
{
    const Tick now = curTick();
    _settled = false;
    _refreshUntil = now + _t.tRFC;
    emit(*this, RefreshEv{
        .tick = now, .addr = 0, .bank = traceBankNone,
        .aux = _t.tRFC, .extra = 0});
    for (auto &b : _banks) {
        b.nextAct = std::max(b.nextAct, _refreshUntil);
        // Tag mats refresh in parallel with data mats (§III-C2).
        b.tagNextAct = std::max(b.tagNextAct, _refreshUntil);
        // Refresh closes every open row: every queued request is a
        // row miss until the next ACT.
        b.rowOpen = false;
        b.hitCount[0][0] = b.hitCount[0][1] = 0;
        b.hitCount[1][0] = b.hitCount[1][1] = 0;
    }

    // TDRAM unloads the flush buffer while the DQ bus idles during
    // refresh (§III-D2 (i)).
    if (_cfg.hasFlushBuffer && _cfg.opportunisticDrain &&
        !_flush.empty()) {
        Tick start = std::max(now, _dqFreeAt);
        while (!_flush.empty() &&
               start + _t.tBURST <= _refreshUntil) {
            const Addr victim = _flush.pop();
            _flush.beginDrain();
            const Tick done = start + _t.tBURST;
            emit(*this, FlushDrainEv{
                .tick = done, .addr = victim,
                .bank = static_cast<std::uint16_t>(
                    _map.decode(victim).bank),
                .aux = _flush.size(),
                .extra = static_cast<std::uint32_t>(DrainCause::Refresh),
                .burstTicks = static_cast<double>(_t.tBURST)});
            _eq.schedule(done, [this, victim, done] {
                _flush.completeDrain();
                if (onFlushArrive)
                    onFlushArrive(victim, done);
            });
            start = done;
        }
        _dqFreeAt = std::max(_dqFreeAt, start);
        _dqLastWrite = false;
        _dqEverUsed = true;
    }

    _eq.schedule(now + _t.tREFI, [this] { startRefresh(); });
    scheduleKick(_refreshUntil);
}

void
DramChannel::scheduleKick(Tick when)
{
    const Tick now = curTick();
    if (when <= now)
        when = now;
    if (_nextKick != 0 && _nextKick <= when && _nextKick > now)
        return;
    _nextKick = when;
    _eq.schedule(when, [this, when] {
        if (_nextKick == when) {
            _nextKick = 0;
        } else if (_settled && _nextKick > curTick()) {
            // Superseded by an earlier kick, and nothing has changed
            // since: every request waits for the pending kick, so
            // kick() would at most count probe conflicts.
            unsigned conflicts = 0;
            if (probeBlocked(curTick(), conflicts)) {
                noteProbeConflicts(conflicts);
                return;
            }
        }
        kick();
    });
}

void
DramChannel::kick()
{
    ++hostKicks;
    if (!_settled)
        updateGates();  // timing state moved since the last kick
    _settled = false;
    const Tick now = curTick();

    _drainingWrites = nextDrainMode();

    // Issue the oldest ready request from the preferred queue; when
    // no read can issue right now, an issuable write may go instead
    // (and vice versa in drain mode: writes strictly first). The CA
    // bus and the refresh window gate every issue alike.
    while (std::max(_caFreeAt, _refreshUntil) <= now) {
        std::uint32_t pick;
        if (_drainingWrites) {
            pick = selectReady(DirWrite, now);
        } else {
            pick = selectReady(DirRead, now);
            if (pick == NIL)
                pick = selectReady(DirWrite, now);
        }
        if (pick == NIL)
            break;
        dequeueAndIssue(pick);
        _drainingWrites = nextDrainMode();
        updateGates();
    }

    // Early tag probing uses otherwise-idle CA / tag-bank / HM slots.
    while (tryProbe())
        updateGates();

    // Compute the next wake-up from the queues the policy will
    // actually serve at that time. The class minima are exact, so the
    // next kick lands on the same tick the reference scheduler's full
    // rescans would pick.
    const Tick wake = earliestWake();
    if (wake != maxTick)
        scheduleKick(std::max(wake, now + 1));
    // Nothing served is ready now, so the kick just scheduled is no
    // later than any queued request's issue tick.
    _settled = wake > now;
}

void
DramChannel::regStats(StatGroup &g) const
{
    g.addHistogram("read_queue_delay_ns", &readQueueDelay,
                   "read-buffer queueing delay (Fig 2/10)");
    g.addScalar("issued_reads", &issuedReads);
    g.addScalar("issued_writes", &issuedWrites);
    g.addScalar("issued_actrd", &issuedActRd);
    g.addScalar("issued_actwr", &issuedActWr);
    g.addScalar("probes_issued", &probesIssued);
    g.addScalar("probe_bank_conflicts", &probeBankConflicts);
    g.addScalar("refreshes", &refreshes);
    g.addScalar("bytes_to_ctrl", &bytesToCtrl);
    g.addScalar("bytes_from_ctrl", &bytesFromCtrl);
    g.addScalar("dq_busy_ticks", &dqBusyTicks);
    g.addScalar("dq_reserved_idle_ticks", &dqReservedIdleTicks);
    g.addScalar("turnarounds", &turnarounds);
    g.addScalar("data_bank_acts", &dataBankActs);
    g.addScalar("tag_bank_acts", &tagBankActs);
    g.addScalar("row_hits", &rowHits);
    g.addScalar("row_conflicts", &rowConflicts);
    g.addHistogram("flush_occupancy", &_flush.occupancy,
                   "flush-buffer occupancy at push (§V-E)");
    g.addScalar("flush_stalls", &_flush.stalls);
    g.addScalar("flush_max_occupancy", &_flush.maxOccupancy);
    g.addScalar("flush_drained_miss_clean", &_flush.drainedOnMissClean);
    g.addScalar("flush_drained_refresh", &_flush.drainedOnRefresh);
    g.addScalar("flush_drained_forced", &_flush.drainedForced);
    g.addScalar("flush_superseded", &_flush.superseded);
}

} // namespace tsim
