#include "system/system.hh"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "dcache/banshee.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace tsim
{

namespace
{

/** Simulated-time safety net; a run past this is a bug. */
constexpr Tick maxRuntime = nsToTicks(2.0e9);

std::uint64_t
pow2Ceil(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Fail the run unless every address below @p end fits @p tags: a tag
 * cut to TagArray::tagBits would alias a lower line silently.
 */
void
checkTagLimit(const TagArray &tags, const char *store, std::uint64_t end)
{
    fatal_if(end > tags.addrLimit(),
             "the address space ends at %#llx, beyond the %s tag "
             "store's limit %#llx (%u-bit tags)",
             (unsigned long long)end, store,
             (unsigned long long)tags.addrLimit(), TagArray::tagBits);
}

} // namespace

System::System(const SystemConfig &cfg, const WorkloadProfile &workload)
    : _cfg(cfg), _workload(workload)
{
    requireValid(cfg);

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
        space = physicalSpaceBytes(workload, cfg.dcache.capacityBytes);
    }
    MainMemoryConfig mm_cfg;
    mm_cfg.channels = cfg.mmChannels;
    mm_cfg.capacityBytes =
        std::max<std::uint64_t>(pow2Ceil(space), 1 << 26);

    _mm = std::make_unique<MainMemory>(_eq, "mm", mm_cfg);
    _dcache = makeDramCache(_eq, cfg.design, cfg.dcache, *_mm);
    // The prefetcher reaches prefetchDegree lines past the space.
    // Banshee's page fills need no margin: every limit is page-aligned.
    std::uint64_t dcache_end;
    if (__builtin_add_overflow(
            space, std::uint64_t{cfg.dcache.prefetchDegree} * lineBytes,
            &dcache_end))
        dcache_end = ~std::uint64_t{0};
    checkTagLimit(_dcache->tags(), "DRAM cache", dcache_end);

    if (!cfg.replay.path.empty()) {
        _engine = std::make_unique<TraceReplayEngine>(
            _eq, "engine", cfg.replay, *_dcache);
    } else {
        std::vector<std::unique_ptr<AddressGenerator>> gens;
        for (unsigned c = 0; c < cfg.cores.cores; ++c) {
            gens.push_back(makeGenerator(workload, c, cfg.cores.cores,
                                         cfg.dcache.capacityBytes));
        }
        auto core = std::make_unique<CoreEngine>(
            _eq, "engine", cfg.cores, std::move(gens), *_dcache,
            cfg.seed);
        checkTagLimit(core->llc().tags(), "LLC", space);
        for (unsigned c = 0; c < cfg.cores.cores; ++c)
            checkTagLimit(core->l1(c).tags(), "L1", space);
        _engine = std::move(core);
    }

    // Tracer buffers and checker channels share one layout: dcache
    // channels, then mm channels, then one controller-level buffer
    // for demand start/done events.
    const unsigned dc = _dcache->numChannels();
    const unsigned mm = _mm->numChannels();
    if (!cfg.tracePath.empty()) {
        _tracer = std::make_unique<Tracer>(
            cfg.tracePath, dc + mm + 1, Tracer::defaultRingCapacity,
            traceManifest(cfg));
        for (unsigned c = 0; c < dc; ++c)
            _dcache->channel(c).traceBuf = &_tracer->buffer(c);
        for (unsigned c = 0; c < mm; ++c)
            _mm->channel(c).traceBuf = &_tracer->buffer(dc + c);
        _dcache->traceBuf = &_tracer->buffer(dc + mm);
    }

    if (cfg.checkProtocol) {
        _checker = makeChecker(cfg);
        for (unsigned c = 0; c < dc; ++c) {
            _dcache->channel(c).checker = _checker.get();
            _dcache->channel(c).checkChannel = c;
        }
        for (unsigned c = 0; c < mm; ++c) {
            _mm->channel(c).checker = _checker.get();
            _mm->channel(c).checkChannel = dc + c;
        }
        _dcache->checker = _checker.get();
        _dcache->checkChannel = dc + mm;
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
        if (_eq.curTick() > maxRuntime) {
            _dcache->dumpDebug(stderr);
            _engine->dumpDebug(stderr);
            panic("run exceeded maxRuntime (%0.1f ms simulated) on "
                  "%s/%s",
                  ticksToNs(maxRuntime) * 1e-6,
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

std::unique_ptr<ProtocolChecker>
makeChecker(const SystemConfig &cfg)
{
    auto chk = std::make_unique<ProtocolChecker>();
    const ChannelConfig dc = dcacheChannelConfig(cfg.design, cfg.dcache);
    for (unsigned c = 0; c < cfg.dcache.channels; ++c)
        chk->addChannel(dc);
    // System changes only the channel count and capacity of the
    // default main memory, and neither enters a channel's config.
    const ChannelConfig mm = mmChannelConfig(MainMemoryConfig{});
    for (unsigned c = 0; c < cfg.mmChannels; ++c)
        chk->addChannel(mm);
    chk->addDemandChannel();
    return chk;
}

namespace
{

/** The values a field accepts: at least lo, and powers of two if pow2. */
struct Range
{
    std::uint64_t lo = 0;
    bool pow2 = false;
};

constexpr Range any{};
constexpr Range positive{1};
constexpr Range powerOfTwo{1, true};
constexpr Range wholeLines{lineBytes, true};  ///< a power of two >= a line

/**
 * The field list: call @p f(key, member, range) on every field of
 * SystemConfig that shapes a run, keyed by its member path.
 */
template <class Config, class F>
void
forEachField(Config &c, F &&f)
{
    f("design", c.design, any);
    f("mmChannels", c.mmChannels, powerOfTwo);
    auto &d = c.dcache;
    f("dcache.capacityBytes", d.capacityBytes, powerOfTwo);
    f("dcache.ways", d.ways, positive);
    f("dcache.channels", d.channels, powerOfTwo);
    f("dcache.banks", d.banks, powerOfTwo);
    f("dcache.rowBytes", d.rowBytes, wholeLines);
    f("dcache.readQCap", d.readQCap, positive);
    f("dcache.writeQCap", d.writeQCap, positive);
    f("dcache.conflictBufEntries", d.conflictBufEntries, positive);
    f("dcache.flushEntries", d.flushEntries, any);
    f("dcache.pagePolicy", d.pagePolicy, any);
    f("dcache.predictor", d.predictor, any);
    f("dcache.prefetchDegree", d.prefetchDegree, any);
    f("dcache.ctrlLatency", d.ctrlLatency, any);
    f("dcache.refreshEnabled", d.refreshEnabled, any);
    f("dcache.pageBytes", d.pageBytes, wholeLines);
    f("dcache.tdramConditionalColumn", d.tdramConditionalColumn, any);
    auto &k = c.cores;
    f("cores.cores", k.cores, positive);
    f("cores.mlp", k.mlp, any);
    f("cores.thinkTime", k.thinkTime, any);
    f("cores.opsPerCore", k.opsPerCore, any);
    f("cores.l1Bytes", k.l1Bytes, any);
    f("cores.llcBytes", k.llcBytes, any);
    f("warmupOpsPerCore", c.warmupOpsPerCore, any);
    f("seed", c.seed, any);
    f("replay.mode", c.replay.mode, any);
    f("replay.mlp", c.replay.mlp, any);
}

/** "<key> is <v>: <why>" if range @p r refuses @p v, else empty. */
template <class T>
std::string
fieldFault(const std::string &key, const T &v, const Range &r)
{
    const auto n = static_cast<unsigned long long>(v);
    if (n < r.lo)
        return logFormat("%s is %llu: below %llu", key.c_str(), n,
                         (unsigned long long)r.lo);
    if (r.pow2 && !AddressMap::isPow2(n))
        return logFormat("%s is %llu: not a power of two", key.c_str(), n);
    return "";
}

/** The manifest spelling of @p v: a count, or the name of an enum. */
template <class T>
std::string
manifestValue(const T &v)
{
    if constexpr (std::is_same_v<T, Design>)
        return designName(v);
    else if constexpr (std::is_same_v<T, PagePolicy>)
        return v == PagePolicy::Open ? "open" : "close";
    else if constexpr (std::is_same_v<T, ReplayMode>)
        return replayModeName(v);
    else
        return std::to_string(v);
}

/** Parse @p text, as manifestValue() spells it, into @p v. */
template <class T>
bool
parseManifestValue(const std::string &text, T &v)
{
    if constexpr (std::is_same_v<T, Design>) {
        return findDesign(text, v);
    } else if constexpr (std::is_same_v<T, PagePolicy>) {
        v = text == "open" ? PagePolicy::Open : PagePolicy::Close;
        return text == manifestValue(v);
    } else if constexpr (std::is_same_v<T, ReplayMode>) {
        return parseReplayMode(text, v);
    } else {
        std::uint64_t n = 0;
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, n);
        v = static_cast<T>(n);
        return ec == std::errc() && ptr == end &&
               n <= std::numeric_limits<T>::max();
    }
}

} // namespace

std::vector<std::string>
validate(const SystemConfig &cfg)
{
    std::vector<std::string> problems;
    forEachField(cfg, [&problems](const char *key, const auto &v,
                                  const Range &r) {
        if (std::string fault = fieldFault(key, v, r); !fault.empty())
            problems.push_back(std::move(fault));
    });
    const bool fields_ok = problems.empty();
    // The sets rule, unless capacity or ways is out of range already.
    const DramCacheConfig &d = cfg.dcache;
    if (AddressMap::isPow2(d.capacityBytes) && d.ways > 0 &&
        !TagArray::validGeometry(d.capacityBytes, d.ways)) {
        problems.push_back(logFormat(
            "dcache.capacityBytes is %llu: not a power-of-two number of "
            "dcache.ways=%u-way sets",
            (unsigned long long)d.capacityBytes, d.ways));
    }
    // The device rules that span fields, once every field is in range.
    if (fields_ok && !AddressMap::validGeometry(d.capacityBytes, d.channels,
                                                d.banks, d.rowBytes)) {
        problems.push_back(logFormat(
            "dcache.channels is %u: with dcache.banks=%u and "
            "dcache.rowBytes=%llu, dcache.capacityBytes=%llu leaves no "
            "row per bank",
            d.channels, d.banks, (unsigned long long)d.rowBytes,
            (unsigned long long)d.capacityBytes));
    }
    const bool banshee = fields_ok && cfg.design == Design::Banshee;
    if (banshee &&
        !BansheeCtrl::pageSplitsOverChannels(d.pageBytes, d.channels)) {
        problems.push_back(logFormat(
            "dcache.channels is %u: Banshee's dcache.pageBytes=%llu "
            "does not split into whole lines over them",
            d.channels, (unsigned long long)d.pageBytes));
    }
    if (banshee &&
        !RemapTable::validGeometry(d.capacityBytes, d.pageBytes, d.ways)) {
        problems.push_back(logFormat(
            "dcache.pageBytes is %llu: Banshee's dcache.capacityBytes=%llu "
            "is not a power-of-two number of dcache.ways=%u-way sets of "
            "pages",
            (unsigned long long)d.pageBytes,
            (unsigned long long)d.capacityBytes, d.ways));
    }
    // A zero-entry flush buffer stalls every victim.
    if (d.flushEntries == 0 &&
        dcacheChannelConfig(cfg.design, d).hasFlushBuffer) {
        problems.push_back(logFormat(
            "dcache.flushEntries is 0, but %s's device has a flush buffer",
            designName(cfg.design)));
    }
    // No ops ends at once with an all-zero report; no MLP never issues
    // and runs into maxRuntime. A replayed trace needs neither.
    if (cfg.replay.path.empty() && cfg.cores.opsPerCore == 0)
        problems.push_back("cores.opsPerCore is 0: a synthetic run needs "
                           "at least one op per core");
    if (cfg.replay.path.empty() && cfg.cores.mlp == 0)
        problems.push_back(
            "cores.mlp is 0: no core could issue a DRAM-cache read");
    return problems;
}

void
requireValid(const SystemConfig &cfg)
{
    const std::vector<std::string> problems = validate(cfg);
    for (const std::string &p : problems)
        std::fprintf(stderr, "invalid config: %s\n", p.c_str());
    if (!problems.empty())
        std::exit(1);
}

std::string
traceManifest(const SystemConfig &cfg)
{
    std::string text;
    forEachField(cfg, [&text](const char *key, const auto &v,
                              const Range &) {
        text += std::string(key) + "=" + manifestValue(v) + "\n";
    });
    return text;
}

bool
parseTraceManifest(const std::string &manifest, SystemConfig &cfg,
                   std::string &error)
{
    // The lines come in the field list's order, one per field.
    std::istringstream in(manifest);
    std::string line;
    error = manifest.empty() ? "the trace has no manifest" : "";
    forEachField(cfg, [&](const std::string &key, auto &v, const Range &r) {
        if (!error.empty())
            return;
        if (!std::getline(in, line))
            error = "manifest ends before key '" + key + "'";
        else if (line.compare(0, key.size() + 1, key + "=") != 0)
            error = "unexpected manifest line '" + line + "' (want key '" +
                    key + "')";
        else if (!parseManifestValue(line.substr(key.size() + 1), v))
            error = "manifest value out of range: " + line;
        else
            error = fieldFault(key, v, r);
    });
    if (error.empty() && std::getline(in, line))
        error = "unexpected manifest line '" + line + "' after the last key";
    return error.empty();
}

CheckReport
checkTrace(const TraceFile &trace)
{
    CheckReport rep;
    SystemConfig cfg;
    if (!parseTraceManifest(trace.manifest, cfg, rep.error))
        return rep;
    rep.design = cfg.design;
    const std::unique_ptr<ProtocolChecker> chk = makeChecker(cfg);
    if (trace.header.channels != chk->numChannels()) {
        rep.error = logFormat(
            "trace has %u channels but its manifest describes %u "
            "(%u dcache + %u mm + 1 demand)",
            trace.header.channels, chk->numChannels(),
            cfg.dcache.channels, cfg.mmChannels);
        return rep;
    }

    // loadTrace() returns records sorted by the global emission seq,
    // which is exactly the order the inline checker saw them in.
    for (const TraceRecord &r : trace.records)
        chk->onRecord(r);
    chk->finish();

    rep.ok = chk->ok();
    rep.events = chk->eventsChecked();
    rep.violationCount = chk->violationCount();
    rep.violations = chk->violations();
    return rep;
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
