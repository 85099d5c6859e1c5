#include "workload/core_engine.hh"

#include <algorithm>

namespace tsim
{

constexpr unsigned l1Ways = 8;
constexpr Tick l1Latency = nsToTicks(1);
constexpr unsigned llcWays = 16;
constexpr Tick llcLatency = nsToTicks(4);

CoreEngine::CoreEngine(
    EventQueue &eq, std::string name, const CoreConfig &cfg,
    std::vector<std::unique_ptr<AddressGenerator>> gens,
    DramCacheCtrl &dcache, std::uint64_t seed)
    : RequestEngine(eq, std::move(name), dcache), _cfg(cfg),
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

template <class Demand>
CoreEngine::SramHit
CoreEngine::sramStep(SramCache &l1, Addr line, bool is_store,
                     Demand &&demand)
{
    const auto l1res = l1.access(line, is_store);
    if (l1res.hit)
        return SramHit::L1;
    // A dirty L1 victim writes back into the LLC (full line, no
    // fetch needed); the LLC may in turn evict a dirty line to the
    // DRAM cache.
    if (l1res.writeback) {
        const auto wb = _llc.access(l1res.writebackAddr, true);
        if (wb.writeback)
            demand(wb.writebackAddr, true);
    }
    // Demand fetch through the LLC. Stores dirty the L1 only;
    // dirtiness reaches the LLC via L1 writebacks.
    const auto llcres = _llc.access(line, false);
    if (llcres.writeback)
        demand(llcres.writebackAddr, true);
    if (llcres.hit)
        return SramHit::Llc;
    demand(line, false);
    return SramHit::None;
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

        // Park the op's demands; a read carries a synthetic PC so
        // MAP-I sees per-stream behaviour.
        const SramHit hit = sramStep(
            *_l1s[c], lineAlign(op.addr), op.isStore,
            [&](Addr addr, bool is_write) {
                panic_if(core.stalledEnd == maxDemandsPerOp,
                         "core %u parks more than %u demands", c,
                         maxDemandsPerOp);
                MemPacket &p = core.stalled[core.stalledEnd++];
                p = MemPacket{};
                p.id = _nextPktId++;
                p.addr = addr;
                p.coreId = static_cast<int>(c);
                if (is_write) {
                    p.cmd = MemCmd::Write;
                } else {
                    p.cmd = MemCmd::Read;
                    p.pc = (static_cast<Addr>(c) << 32) |
                           (core.issued % 64) * 4;
                }
            });
        if (hit != SramHit::L1) {
            core.readyAt += llcLatency;
            if (!drainStalled(c)) {
                scheduleAdvance(c, now + retryInterval);
                return;
            }
            if (hit == SramHit::None)
                continue;  // retired by readReturned()
        }
        ++core.retired;
        ++opsRetired;
    }
    maybeFinish(c);
}

bool
CoreEngine::drainStalled(unsigned c)
{
    auto &core = _cores[c];
    for (; core.hasStalled(); ++core.stalledHead) {
        if (!issueDemand(core.stalled[core.stalledHead], core.outstanding,
                         [this, c](MemPacket &done) {
                             readReturned(c, done);
                         })) {
            return false;
        }
    }
    core.stalledHead = core.stalledEnd = 0;
    return true;
}

void
CoreEngine::readReturned(unsigned c, const MemPacket &pkt)
{
    auto &core = _cores[c];
    readDone(core.outstanding, pkt);
    ++core.retired;
    ++opsRetired;
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
            sramStep(l1, line, op.isStore, [this](Addr addr, bool is_write) {
                _dcache.warmAccess(addr, is_write);
            });
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
        std::fprintf(f,
                     "core %u: issued=%llu retired=%llu outst=%u "
                     "stalled=%u readyAt=%llu sched=%d fin=%d\n",
                     c, (unsigned long long)core.issued,
                     (unsigned long long)core.retired,
                     core.outstanding, core.stalledEnd - core.stalledHead,
                     (unsigned long long)core.readyAt,
                     core.issueScheduled, core.finished);
    }
}

void
CoreEngine::regStats(StatGroup &g) const
{
    g.addScalar("ops_retired", &opsRetired);
    regDemandStats(g);
    _llc.regStats(g);
}

} // namespace tsim
