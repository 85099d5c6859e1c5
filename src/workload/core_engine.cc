#include "workload/core_engine.hh"

#include <algorithm>

namespace tsim
{

constexpr unsigned l1Ways = 8;
constexpr Tick l1Latency = nsToTicks(1);
constexpr unsigned llcWays = 16;
constexpr Tick llcLatency = nsToTicks(4);
constexpr Tick retryInterval = nsToTicks(4);  ///< backpressure retry period

CoreEngine::CoreEngine(
    EventQueue &eq, std::string name, const CoreConfig &cfg,
    std::vector<std::unique_ptr<AddressGenerator>> gens,
    DramCacheCtrl &dcache, std::uint64_t seed)
    : RequestEngine(eq, std::move(name)), _cfg(cfg), _dcache(dcache),
      _llc("llc", cfg.llcBytes, llcWays),
      _rng(seed)
{
    fatal_if(gens.size() != cfg.cores,
             "need one generator per core (%u cores, %zu gens)",
             cfg.cores, gens.size());
    _cores.resize(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        _l1s.push_back(std::make_unique<SramCache>(
            "l1." + std::to_string(c), cfg.l1Bytes, l1Ways));
        _cores[c].gen = std::move(gens[c]);
    }
}

CoreEngine::StallNode *
CoreEngine::allocStall()
{
    if (!_stallFree) {
        constexpr std::size_t chunkNodes = 64;
        // tdram-lint:allow(hot-alloc): amortized stalled-list chunk
        // growth — one allocation per 64 nodes, then recycled.
        auto chunk = std::make_unique<StallNode[]>(chunkNodes);
        for (std::size_t i = 0; i < chunkNodes; ++i) {
            chunk[i].next = _stallFree;
            _stallFree = &chunk[i];
        }
        _stallChunks.push_back(std::move(chunk));
    }
    StallNode *n = _stallFree;
    _stallFree = n->next;
    n->next = nullptr;
    return n;
}

void
CoreEngine::pushStalled(Core &core, const MemPacket &pkt)
{
    StallNode *n = allocStall();
    n->pkt = pkt;
    if (core.stalledTail)
        core.stalledTail->next = n;
    else
        core.stalledHead = n;
    core.stalledTail = n;
}

void
CoreEngine::popStalled(Core &core)
{
    StallNode *n = core.stalledHead;
    core.stalledHead = n->next;
    if (!core.stalledHead)
        core.stalledTail = nullptr;
    n->next = _stallFree;
    _stallFree = n;
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
        scheduleAdvance(c, now + retryInterval);
        return;
    }

    while (core.issued < _cfg.opsPerCore) {
        if (core.readyAt > now) {
            scheduleAdvance(c, core.readyAt);
            return;
        }
        if (core.outstanding >= _cfg.mlp)
            return;  // resumed by readReturned()

        const MemOp op = core.gen->next(_rng);
        ++core.issued;
        core.readyAt += _cfg.thinkTime + l1Latency;

        const Addr line = lineAlign(op.addr);
        SramCache &l1 = *_l1s[c];
        const auto l1res = l1.access(line, op.isStore);
        if (l1res.hit) {
            ++core.retired;
            ++opsRetired;
            continue;
        }

        // A dirty L1 victim writes back into the LLC (full line, no
        // fetch needed); the LLC may in turn evict a dirty line to
        // the DRAM cache.
        if (l1res.writeback) {
            const auto wb = _llc.access(l1res.writebackAddr, true);
            if (wb.writeback) {
                MemPacket p;
                p.id = _nextPktId++;
                p.addr = wb.writebackAddr;
                p.cmd = MemCmd::Write;
                p.coreId = static_cast<int>(c);
                pushStalled(core, p);
            }
        }

        core.readyAt += llcLatency;
        // Demand fetch through the LLC. Stores dirty the L1 only;
        // dirtiness reaches the LLC via L1 writebacks.
        const auto llcres = _llc.access(line, false);
        if (llcres.writeback) {
            MemPacket p;
            p.id = _nextPktId++;
            p.addr = llcres.writebackAddr;
            p.cmd = MemCmd::Write;
            p.coreId = static_cast<int>(c);
            pushStalled(core, p);
        }
        if (llcres.hit) {
            if (!drainStalled(c)) {
                scheduleAdvance(c, now + retryInterval);
                return;
            }
            ++core.retired;
            ++opsRetired;
            continue;
        }

        // LLC miss: a DRAM-cache read demand. Use a synthetic PC so
        // MAP-I sees per-stream behaviour.
        MemPacket rd;
        rd.id = _nextPktId++;
        rd.addr = line;
        rd.cmd = MemCmd::Read;
        rd.coreId = static_cast<int>(c);
        rd.pc = (static_cast<Addr>(c) << 32) | (core.issued % 64) * 4;
        pushStalled(core, rd);

        if (!drainStalled(c)) {
            scheduleAdvance(c, now + retryInterval);
            return;
        }
    }
    maybeFinish(c);
}

bool
CoreEngine::drainStalled(unsigned c)
{
    auto &core = _cores[c];
    while (core.hasStalled()) {
        MemPacket &pkt = core.stalledHead->pkt;
        if (!issueDemand(c, pkt)) {
            ++backpressureStalls;
            return false;
        }
        popStalled(core);
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
    if (core.issued < _cfg.opsPerCore || core.hasStalled()) {
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
        core.outstanding > 0 || core.hasStalled()) {
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
        // Each op is drawn one iteration early, so its DRAM-cache tag
        // load (a host-cache miss on most lines) overlaps the draw of
        // the op after it. The draws keep their order.
        MemOp ahead{};
        if (ops_per_core > 0)
            ahead = core.gen->next(_rng);
        for (std::uint64_t i = 0; i < ops_per_core; ++i) {
            const MemOp op = ahead;
            const Addr line = lineAlign(op.addr);
            _dcache.tags().prefetch(line);
            if (i + 1 < ops_per_core)
                ahead = core.gen->next(_rng);
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
    for (auto &l1 : _l1s)
        l1->resetStats();
    _llc.resetStats();
}

void
CoreEngine::dumpDebug(std::FILE *f) const
{
    for (unsigned c = 0; c < _cfg.cores; ++c) {
        const Core &core = _cores[c];
        std::size_t depth = 0;
        for (const StallNode *n = core.stalledHead; n; n = n->next)
            ++depth;
        std::fprintf(f,
                     "core %u: issued=%llu retired=%llu outst=%u "
                     "stalled=%zu readyAt=%llu sched=%d fin=%d\n",
                     c, (unsigned long long)core.issued,
                     (unsigned long long)core.retired,
                     core.outstanding, depth,
                     (unsigned long long)core.readyAt,
                     core.issueScheduled, core.finished);
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

} // namespace tsim
