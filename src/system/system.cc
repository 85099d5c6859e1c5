#include "system/system.hh"

#include <cmath>
#include <sstream>

#include "stats/stats.hh"

namespace tsim
{

namespace
{

std::uint64_t
pow2Ceil(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

System::System(const SystemConfig &cfg, const WorkloadProfile &workload)
    : _cfg(cfg), _workload(workload)
{
    // Size main memory to cover the physical footprint: the synthetic
    // profiles declare theirs; a replayed trace carries its bound in
    // the .tdtz footer (no decoding needed to read it).
    std::uint64_t space;
    if (!cfg.replay.path.empty()) {
        TdtzReader probe;
        fatal_if(!probe.open(cfg.replay.path), "replay: %s",
                 probe.error().c_str());
        space = probe.info().maxLineAddr;
    } else {
        space = physicalSpaceBytes(workload, cfg.dcacheCapacity);
    }
    MainMemoryConfig mm_cfg;
    mm_cfg.channels = cfg.mmChannels;
    mm_cfg.capacityBytes =
        cfg.mmCapacity ? cfg.mmCapacity
                       : std::max<std::uint64_t>(pow2Ceil(space),
                                                 1 << 26);

    DramCacheConfig dc_cfg;
    dc_cfg.capacityBytes = cfg.dcacheCapacity;
    dc_cfg.ways = cfg.dcacheWays;
    dc_cfg.channels = cfg.dcacheChannels;
    dc_cfg.banks = cfg.dcacheBanks;
    dc_cfg.flushEntries = cfg.flushEntries;
    dc_cfg.predictor = cfg.predictor;
    dc_cfg.prefetchDegree = cfg.prefetchDegree;
    dc_cfg.tdramConditionalColumn = cfg.tdramConditionalColumn;
    dc_cfg.pagePolicy = cfg.dcachePagePolicy;

    _mm = std::make_unique<MainMemory>(_eq, "mm", mm_cfg);
    _dcache = makeDramCache(_eq, cfg.design, dc_cfg, *_mm);

    if (!cfg.replay.path.empty()) {
        _engine = std::make_unique<TraceReplayEngine>(
            _eq, "engine", cfg.replay, *_dcache);
    } else {
        std::vector<std::unique_ptr<AddressGenerator>> gens;
        for (unsigned c = 0; c < cfg.cores.cores; ++c) {
            gens.push_back(makeGenerator(workload, c, cfg.cores.cores,
                                         cfg.dcacheCapacity));
        }
        _engine = std::make_unique<CoreEngine>(
            _eq, "engine", cfg.cores, std::move(gens), *_dcache,
            cfg.seed);
    }

    if (!cfg.tracePath.empty()) {
        // Buffer layout: dcache channels, then mm channels, then one
        // controller-level buffer for demand start/done events.
        const unsigned dc = _dcache->numChannels();
        const unsigned mm = _mm->numChannels();
        _tracer = std::make_unique<Tracer>(cfg.tracePath, dc + mm + 1);
        for (unsigned c = 0; c < dc; ++c)
            _dcache->channel(c).traceBuf = &_tracer->buffer(c);
        for (unsigned c = 0; c < mm; ++c)
            _mm->channel(c).traceBuf = &_tracer->buffer(dc + c);
        _dcache->traceBuf = &_tracer->buffer(dc + mm);
    }

    if (cfg.checkProtocol) {
        // Checker channel ids mirror the tracer buffer layout: dcache
        // channels, then mm channels, then the demand-only buffer, so
        // inline and offline audits of one run agree index-for-index.
        const unsigned dc = _dcache->numChannels();
        const unsigned mm = _mm->numChannels();
        _checker = std::make_unique<ProtocolChecker>();
        for (unsigned c = 0; c < dc; ++c) {
            DramChannel &chan = _dcache->channel(c);
            chan.checker = _checker.get();
            chan.checkChannel = _checker->addChannel(
                checkerConfigOf(chan.config()));
        }
        for (unsigned c = 0; c < mm; ++c) {
            DramChannel &chan = _mm->channel(c);
            chan.checker = _checker.get();
            chan.checkChannel = _checker->addChannel(
                checkerConfigOf(chan.config()));
        }
        CheckerConfig demand_cfg;
        demand_cfg.demandOnly = true;
        _dcache->checker = _checker.get();
        _dcache->checkChannel = _checker->addChannel(demand_cfg);
    }
}

SimReport
System::run()
{
    const HostTimer timer;
    std::uint64_t events = 0;
    _engine->warmup(_cfg.warmupOpsPerCore);
    _engine->start();
    // Keep stepping past done() until fire-and-forget writes still in
    // flight have responded (and design-internal maintenance like
    // page-fill groups has drained), so the checker sees every demand
    // paired and no operation is cut off mid-flight.
    while (!_engine->done() || _dcache->inFlightDemands() > 0 ||
           !_dcache->quiescent()) {
        if (!_eq.step())
            panic("event queue drained before the workload finished");
        ++events;
        if (_eq.curTick() > _cfg.maxRuntime) {
            _dcache->dumpDebug(stderr);
            _engine->dumpDebug(stderr);
            panic("run exceeded maxRuntime (%0.1f ms simulated) on "
                  "%s/%s",
                  ticksToNs(_cfg.maxRuntime) * 1e-6,
                  designName(_cfg.design), _workload.name.c_str());
        }
    }
    return collectReport(events, timer.seconds());
}

SimReport
System::collectReport(std::uint64_t events, double host_seconds)
{
    SimReport r;
    r.workload = _workload.name;
    r.design = designName(_cfg.design);
    r.highMiss = _workload.highMiss;
    r.runtimeTicks = _engine->finishTick();
    r.demandReads =
        static_cast<std::uint64_t>(_dcache->demandReads.value());
    r.demandWrites =
        static_cast<std::uint64_t>(_dcache->demandWrites.value());
    r.missRatio = _dcache->missRatio();

    const double demands =
        static_cast<double>(r.demandReads + r.demandWrites);
    for (unsigned i = 0;
         i < static_cast<unsigned>(AccessOutcome::NumOutcomes); ++i) {
        r.outcomeFrac[i] =
            demands > 0 ? _dcache->outcomes[i].value() / demands : 0;
    }

    r.tagCheckNs = _dcache->meanTagCheckLatencyNs();
    r.readQueueDelayNs = _dcache->meanReadQueueDelayNs();
    {
        double sum = 0;
        std::uint64_t count = 0;
        for (unsigned c = 0; c < _mm->numChannels(); ++c) {
            sum += _mm->channel(c).readQueueDelay.sum();
            count += _mm->channel(c).readQueueDelay.count();
        }
        r.mmReadQueueDelayNs =
            count ? sum / static_cast<double>(count) : 0.0;
    }
    r.demandReadLatencyNs = _engine->meanDemandReadLatencyNs();
    r.bloat = _dcache->bloatFactor();
    r.unusefulFrac = _dcache->unusefulFraction();

    r.cacheBytes = _dcache->bytesDemandServing.value() +
                   _dcache->bytesMaintenance.value() +
                   _dcache->bytesDiscarded.value();
    r.mmBytes = static_cast<double>(_mm->bytesMoved());
    r.energy = computeEnergy(*_dcache, *_mm, r.runtimeTicks);

    for (unsigned c = 0; c < _dcache->numChannels(); ++c) {
        const auto &fb = _dcache->channel(c).flushBuffer();
        r.flushStalls += static_cast<std::uint64_t>(fb.stalls.value());
        r.flushMaxOcc = std::max(r.flushMaxOcc, fb.maxOccupancy.value());
        r.flushAvgOcc += fb.occupancy.mean();
        r.probes += static_cast<std::uint64_t>(
            _dcache->channel(c).probesIssued.value());
    }
    r.flushAvgOcc /= _dcache->numChannels();
    r.predictorPresent = _dcache->hasPredictor();
    r.predictorAccuracy =
        r.predictorPresent ? _dcache->predictorAccuracy() : 0.0;
    r.backpressureStalls = _engine->backpressureStallCount();
    if (!_cfg.replay.path.empty()) {
        r.replaySource = _cfg.replay.path;
        r.replayMode = replayModeName(_cfg.replay.mode);
        const auto *replay =
            dynamic_cast<const TraceReplayEngine *>(_engine.get());
        if (replay)
            r.replayRecords = replay->traceInfo().records;
    }
    r.hostPerf.events = events;
    r.hostPerf.simTicks = r.runtimeTicks;
    r.hostPerf.hostSeconds = host_seconds;
    r.hostPerf.runs = 1;
    auto add_channel = [&r](const DramChannel &ch) {
        r.hostPerf.chanKicks += ch.hostKicks;
        r.hostPerf.chanScans += ch.hostScanSteps;
        r.hostPerf.chanCmds += static_cast<std::uint64_t>(
            ch.issuedReads.value() + ch.issuedWrites.value() +
            ch.issuedActRd.value() + ch.issuedActWr.value());
    };
    for (unsigned c = 0; c < _dcache->numChannels(); ++c)
        add_channel(_dcache->channel(c));
    for (unsigned c = 0; c < _mm->numChannels(); ++c)
        add_channel(_mm->channel(c));
    if (_tracer)
        _tracer->flushAll();
    if (_checker) {
        _checker->finish();
        r.checkEvents = _checker->eventsChecked();
        r.checkViolations = _checker->violationCount();
    }
    if (r.checkViolations > 0) {
        std::fprintf(stderr,
                     "[check] %s/%s: %llu protocol violation(s) "
                     "in %llu events\n",
                     r.design.c_str(), r.workload.c_str(),
                     static_cast<unsigned long long>(
                         r.checkViolations),
                     static_cast<unsigned long long>(r.checkEvents));
        for (const CheckViolation &v : _checker->violations()) {
            std::fprintf(stderr, "[check]   %s\n",
                         ProtocolChecker::formatViolation(v).c_str());
        }
    }
    return r;
}

void
System::dumpStats(std::ostream &os) const
{
    StatGroup g("system");
    _dcache->regStats(g);
    _mm->regStats(g);
    _engine->regStats(g);
    g.dump(os);
}

SimReport
runOne(const SystemConfig &cfg, const WorkloadProfile &wl)
{
    System sys(cfg, wl);
    return sys.run();
}

std::string
reportJson(const SimReport &r)
{
    // Workload/design names come from the static profile and design
    // tables and contain no characters needing JSON escaping.
    std::ostringstream os;
    os << "{";
    os << "\"workload\": \"" << r.workload << "\"";
    os << ", \"design\": \"" << r.design << "\"";
    os << ", \"runtime_ns\": " << r.runtimeNs();
    os << ", \"demand_reads\": " << r.demandReads;
    os << ", \"demand_writes\": " << r.demandWrites;
    os << ", \"miss_ratio\": " << r.missRatio;
    os << ", \"tag_check_ns\": " << r.tagCheckNs;
    os << ", \"read_latency_ns\": " << r.demandReadLatencyNs;
    os << ", \"bloat\": " << r.bloat;
    os << ", \"cache_bytes\": " << r.cacheBytes;
    os << ", \"mm_bytes\": " << r.mmBytes;
    os << ", \"flush_stalls\": " << r.flushStalls;
    os << ", \"probes\": " << r.probes;
    os << ", \"predictor_accuracy\": ";
    if (r.predictorPresent)
        os << r.predictorAccuracy;
    else
        os << "null";
    os << ", \"backpressure_stalls\": " << r.backpressureStalls;
    os << ", \"check_events\": " << r.checkEvents;
    os << ", \"check_violations\": " << r.checkViolations;
    os << "}";
    return os.str();
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

} // namespace tsim
