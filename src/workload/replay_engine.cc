#include "workload/replay_engine.hh"

#include <algorithm>

namespace tsim
{

const char *
replayModeName(ReplayMode m)
{
    return m == ReplayMode::Timed ? "timed" : "afap";
}

bool
parseReplayMode(const std::string &s, ReplayMode &out)
{
    if (s == "timed") {
        out = ReplayMode::Timed;
        return true;
    }
    if (s == "afap") {
        out = ReplayMode::Afap;
        return true;
    }
    return false;
}

TraceReplayEngine::TraceReplayEngine(EventQueue &eq, std::string name,
                                     const ReplayConfig &cfg,
                                     DramCacheCtrl &dcache)
    : RequestEngine(eq, std::move(name), dcache), _cfg(cfg)
{
    fatal_if(!_reader.open(_cfg.path), "replay: %s",
             _reader.error().c_str());
    fatal_if(_reader.info().records == 0,
             "replay: '%s' holds no records", _cfg.path.c_str());
}

void
TraceReplayEngine::start()
{
    fetchNext();
    panic_if(!_haveCur, "replay stream emptied before start");
    schedulePump(_cfg.mode == ReplayMode::Timed ? _curTick : curTick());
}

void
TraceReplayEngine::fetchNext()
{
    ReplayRecord r;
    if (!_reader.next(r)) {
        fatal_if(!_reader.ok(), "replay: %s", _reader.error().c_str());
        _haveCur = false;
        _exhausted = true;
        return;
    }
    _haveCur = true;
    _cur = r;
    _curLine = lineAlign(r.addr);
    _curLastLine = lineAlign(r.addr + (r.size ? r.size - 1 : 0));
    _curTick += r.delta;  // recorded absolute time (running sum)
}

bool
TraceReplayEngine::issueLine()
{
    MemPacket pkt;
    pkt.id = _nextPktId++;
    pkt.addr = _curLine;
    pkt.cmd = _cur.isWrite ? MemCmd::Write : MemCmd::Read;
    pkt.coreId = 0;
    if (!issueDemand(pkt, _outstanding, [this](MemPacket &done) {
            readReturned(done);
        })) {
        return false;
    }
    _finishTick = std::max(_finishTick, curTick());
    if (_curLine == _curLastLine) {
        ++recordsIssued;
        fetchNext();
    } else {
        _curLine += lineBytes;
    }
    return true;
}

void
TraceReplayEngine::pump()
{
    const bool timed = _cfg.mode == ReplayMode::Timed;
    while (_haveCur) {
        if (timed && _curTick > curTick()) {
            schedulePump(_curTick);
            return;
        }
        if (!_cur.isWrite && _cfg.mlp > 0 &&
            _outstanding >= _cfg.mlp) {
            _waitingMlp = true;  // readReturned() resumes the pump
            return;
        }
        if (!issueLine()) {
            schedulePump(curTick() + retryInterval);
            return;
        }
    }
}

void
TraceReplayEngine::schedulePump(Tick when)
{
    if (_pumpScheduled)
        return;
    _pumpScheduled = true;
    _eq.schedule(std::max(when, curTick()), [this] {
        _pumpScheduled = false;
        pump();
    });
}

void
TraceReplayEngine::readReturned(const MemPacket &pkt)
{
    readDone(_outstanding, pkt);
    _finishTick = std::max(_finishTick, curTick());
    if (_waitingMlp) {
        _waitingMlp = false;
        pump();
    }
}

void
TraceReplayEngine::warmup(std::uint64_t budget)
{
    if (budget == 0)
        return;
    TdtzReader warm;
    fatal_if(!warm.open(_cfg.path), "replay warmup: %s",
             warm.error().c_str());
    ReplayRecord r;
    for (std::uint64_t i = 0; i < budget && warm.next(r); ++i) {
        const Addr last = lineAlign(r.addr + (r.size ? r.size - 1 : 0));
        for (Addr line = lineAlign(r.addr); line <= last;
             line += lineBytes) {
            _dcache.warmAccess(line, r.isWrite);
        }
    }
    fatal_if(!warm.ok(), "replay warmup: %s", warm.error().c_str());
}

void
TraceReplayEngine::regStats(StatGroup &g) const
{
    g.addScalar("records_issued", &recordsIssued);
    regDemandStats(g);
}

void
TraceReplayEngine::dumpDebug(std::FILE *f) const
{
    std::fprintf(f,
                 "replay %s (%s): pos=%llu/%llu outst=%u mlpWait=%d "
                 "pumpSched=%d haveCur=%d curTick=%llu\n",
                 _cfg.path.c_str(), replayModeName(_cfg.mode),
                 (unsigned long long)_reader.position(),
                 (unsigned long long)_reader.info().records,
                 _outstanding, _waitingMlp, _pumpScheduled, _haveCur,
                 (unsigned long long)_curTick);
}

} // namespace tsim
