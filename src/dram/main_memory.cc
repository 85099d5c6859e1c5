#include "dram/main_memory.hh"

namespace tsim
{

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
MainMemory::read(Addr addr, MmReadCb on_done)
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
                      cb = std::move(on_done)](Tick t) mutable {
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

} // namespace tsim
