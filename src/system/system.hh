/**
 * @file
 * Full-system assembly: cores + SRAM hierarchy + DRAM-cache design
 * + DDR5 main memory (paper Fig 8, Table III), plus the run harness
 * and the per-run report used by every benchmark.
 */

#ifndef TSIM_SYSTEM_SYSTEM_HH
#define TSIM_SYSTEM_SYSTEM_HH

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/check.hh"
#include "dcache/dram_cache.hh"
#include "dram/main_memory.hh"
#include "energy/energy.hh"
#include "sim/event_queue.hh"
#include "stats/host_perf.hh"
#include "workload/core_engine.hh"
#include "workload/profiles.hh"
#include "workload/replay_engine.hh"

namespace tsim
{

/**
 * Everything needed to build and run one simulation. The field list in
 * system.cc keys each value but the paths and checkProtocol, with its
 * range; validate() and the trace manifest read it.
 */
struct SystemConfig
{
    Design design = Design::Tdram;
    DramCacheConfig dcache{};

    /** DDR5 channels; main memory is sized to fit the footprint. */
    unsigned mmChannels = 2;

    CoreConfig cores{};
    std::uint64_t warmupOpsPerCore = 200000;
    std::uint64_t seed = 1;

    /**
     * Trace-replay front end (DESIGN.md §14): when replay.path is
     * non-empty the System drives the DRAM cache with the recorded
     * .tdtz request stream instead of the synthetic CoreEngine, main
     * memory is sized from the trace's footprint bound, and
     * warmupOpsPerCore becomes a record budget for functional
     * warm-up. The workload profile still names the run.
     */
    ReplayConfig replay{};

    /**
     * Event-trace output (.tdt); empty disables tracing. Per-run
     * paths keep parallel sweeps from clobbering each other's files.
     */
    std::string tracePath;

    /**
     * Run the inline protocol checker (src/check) on every channel
     * plus the demand front-end.
     */
    bool checkProtocol = false;

    bool operator==(const SystemConfig &) const = default;
};

/** Results of one run (the raw material of every figure/table). */
struct SimReport
{
    std::string workload;
    std::string design;
    bool highMiss = false;

    Tick runtimeTicks = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t demandWrites = 0;
    double missRatio = 0;
    std::array<double,
               static_cast<std::size_t>(AccessOutcome::NumOutcomes)>
        outcomeFrac{};

    double tagCheckNs = 0;        ///< Fig 9
    double readQueueDelayNs = 0;  ///< Fig 2 / Fig 10
    double mmReadQueueDelayNs = 0; ///< Fig 2's no-DRAM-cache bar
    double demandReadLatencyNs = 0;
    double bloat = 0;             ///< Table IV
    double unusefulFrac = 0;      ///< Fig 3

    double cacheBytes = 0;
    double mmBytes = 0;
    EnergyBreakdown energy{};     ///< Fig 13

    std::uint64_t flushStalls = 0;  ///< §V-E
    double flushMaxOcc = 0;
    double flushAvgOcc = 0;
    std::uint64_t probes = 0;
    /**
     * Hit/miss-predictor accuracy. Only meaningful when
     * predictorPresent: controllers without a predictor report the
     * metric as *absent* (reportJson renders null), never as a
     * misleading 0.0. The double stays 0 in that case so fixed-width
     * CSV/key consumers keep their layout.
     */
    double predictorAccuracy = 0;
    bool predictorPresent = false;
    std::uint64_t backpressureStalls = 0;

    /**
     * Replay provenance: the .tdtz source, pacing mode, and record
     * count when the run was trace-driven; empty/zero for synthetic
     * runs. Carried so archived reports say what produced them.
     */
    std::string replaySource;
    std::string replayMode;
    std::uint64_t replayRecords = 0;

    /**
     * Host-side throughput of the run (events executed, wall time).
     * Not deterministic across hosts or runs — excluded from any
     * byte-identical output comparison.
     */
    HostPerf hostPerf{};

    /**
     * Inline protocol-checker results (checkProtocol runs only).
     * checkEvents is 0 when the checker was off.
     */
    std::uint64_t checkEvents = 0;
    std::uint64_t checkViolations = 0;

    double runtimeNs() const { return ticksToNs(runtimeTicks); }
};

/** One simulated machine bound to one workload. */
class System
{
  public:
    System(const SystemConfig &cfg, const WorkloadProfile &workload);

    /** Warm up, run to completion, and collect the report. */
    SimReport run();

    DramCacheCtrl &dcache() { return *_dcache; }
    MainMemory &mainMemory() { return *_mm; }
    RequestEngine &engine() { return *_engine; }

    /** The synthetic front end, or null for trace-driven runs. */
    CoreEngine *
    coreEngine()
    {
        return dynamic_cast<CoreEngine *>(_engine.get());
    }

    /** The replay front end, or null for synthetic runs. */
    TraceReplayEngine *
    replayEngine()
    {
        return dynamic_cast<TraceReplayEngine *>(_engine.get());
    }

    const SystemConfig &config() const { return _cfg; }
    ProtocolChecker *checker() { return _checker.get(); }

    /** Dump all registered stats (debugging / examples). */
    void dumpStats(std::ostream &os) const;

  private:
    /** Assemble the report after the event loop finished. */
    SimReport collectReport(std::uint64_t events, double host_seconds);

    SystemConfig _cfg;
    WorkloadProfile _workload;
    EventQueue _eq;
    std::unique_ptr<MainMemory> _mm;
    std::unique_ptr<DramCacheCtrl> _dcache;
    std::unique_ptr<RequestEngine> _engine;
    std::unique_ptr<Tracer> _tracer;
    std::unique_ptr<ProtocolChecker> _checker;
};

/**
 * The protocol checker for a run of @p cfg, laid out like the event
 * tracer's buffers: one channel per DRAM-cache channel
 * (dcacheChannelConfig), then one per main-memory channel, then the
 * controller's demand-only buffer. System wires it inline and
 * checkTrace audits a recorded trace with it, so both modes audit one
 * run against identical rules.
 */
std::unique_ptr<ProtocolChecker> makeChecker(const SystemConfig &cfg);

/**
 * Every reason @p cfg cannot run, each naming its key: a field out of
 * its range, or a broken cross-field rule. Empty if it can run.
 */
std::vector<std::string> validate(const SystemConfig &cfg);

/** Print validate(@p cfg)'s problems to stderr and exit 1, if any. */
void requireValid(const SystemConfig &cfg);

/**
 * Parse @p text, spelled as in the trace manifest, into @p cfg's field
 * @p key, a count times @p scale. Returns "" once set, else a refusal
 * naming @p name: "<name> wants an unsigned integer, got '<text>'" for
 * a count, an enum's spellings for an enum. Ranges are validate()'s.
 */
std::string setField(SystemConfig &cfg, const std::string &key,
                     const std::string &text, const std::string &name,
                     std::uint64_t scale = 1);

/**
 * A command-line option of both drivers, `--<name>`, that sets the
 * field @p key; a value option's name is also a `tdram_cli sweep`
 * parameter (DESIGN.md §10).
 */
struct ConfigOption
{
    const char *name;
    const char *key;
    const char *value = nullptr; ///< usage text of the value, if any
    const char *fixed = nullptr; ///< a valueless flag's field text
    std::uint64_t scale = 1;     ///< the value counts units this large
};

/** Every option, in usage order; ranges stay the field list's. */
inline constexpr ConfigOption configOptions[] = {
    {"ops", "cores.opsPerCore", "N"},
    {"warmup", "warmupOpsPerCore", "N"},
    {"seed", "seed", "N"},
    {"capacity", "dcache.capacityBytes", "MiB", nullptr, 1 << 20},
    {"ways", "dcache.ways", "N"},
    {"flush", "dcache.flushEntries", "N"},
    {"channels", "dcache.channels", "N"},
    {"mlp", "cores.mlp", "N"},
    {"prefetch", "dcache.prefetchDegree", "N"},
    {"replay-mlp", "replay.mlp", "N"},
    {"replay-mode", "replay.mode", "timed|afap"},
    {"open-page", "dcache.pagePolicy", nullptr, "open"},
    {"predictor", "dcache.predictor", nullptr, "1"},
};

/** The option called @p name (no dashes), or null. */
const ConfigOption *findConfigOption(const std::string &name);

/** The option table as usage lines, each indented two spaces. */
std::string configOptionsUsage();

/** The drivers' base config: the defaults with their run budget. */
SystemConfig driverConfig();

/**
 * If argv[@p i] is `--<name>` of a table option, set its field in
 * @p cfg from argv[i + 1] (stepping @p i) or its fixed text, and
 * return the option; else null. A bad or missing value prints
 * setField's refusal and exits 1.
 */
const ConfigOption *takeConfigOption(int argc, char **argv, int &i,
                                     SystemConfig &cfg);

/**
 * The .tdt manifest of @p cfg (DESIGN.md §10): a `key=value` line per
 * field of the field list, so a trace records its whole run.
 */
std::string traceManifest(const SystemConfig &cfg);

/**
 * Read @p manifest's fields back into @p cfg. False, with @p error
 * set, on an empty manifest, a line that is not the next field's
 * `key=`, a missing or extra line, or a value out of its field's range.
 */
bool parseTraceManifest(const std::string &manifest, SystemConfig &cfg,
                        std::string &error);

/** Result of one offline audit. */
struct CheckReport
{
    bool ok = false;           ///< audit ran and found zero violations
    std::string error;         ///< non-empty: audit could not run
    Design design = Design::Tdram;  ///< as the manifest names it
    std::uint64_t events = 0;
    std::uint64_t violationCount = 0;
    std::vector<CheckViolation> violations;  ///< stored subset
};

/**
 * Offline audit (DESIGN.md §11): replay @p trace's records through
 * the checker makeChecker builds from its manifest.
 */
CheckReport checkTrace(const TraceFile &trace);

/** Convenience: build + run one configuration. */
SimReport runOne(const SystemConfig &cfg, const WorkloadProfile &wl);

/**
 * One-object JSON rendering of the report's deterministic metrics
 * (hostPerf excluded). Metrics a design cannot measure are null, not
 * zero — predictor_accuracy in particular is null unless the
 * controller actually ran a predictor.
 */
std::string reportJson(const SimReport &r);

/** Geometric mean helper for the paper's summary numbers. */
double geomean(const std::vector<double> &xs);

} // namespace tsim

#endif // TSIM_SYSTEM_SYSTEM_HH
