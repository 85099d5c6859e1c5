/**
 * @file
 * tdram_repro — the paper's evaluation (Figs 1-13, Table IV, §V-D..F
 * and the ablations) from one shared, deduplicated result set.
 *
 *   tdram_repro [figure ...] [--full] [--ops N] [--warmup N]
 *               [--seed N] [--jobs N] [--trace PREFIX]
 *               [--replay FILE.tdtz]
 *
 * Every figure declares the (SystemConfig, workload) runs it needs
 * (plan) and prints its table from the shared results (print). The
 * driver drops duplicate runs, runs the rest once on the SweepRunner
 * pool, and prints the named figures in the order given — all of
 * them, in paper order, when none is named. With more than one
 * figure, each table is preceded by a "==> name <==" line; a single
 * figure prints its table alone. Output is byte-identical for any
 * --jobs; the host-throughput summary goes to stderr.
 *
 * --full runs all 28 workloads (and 40000 ops/core unless --ops is
 * given) instead of the 8-workload quick set; --trace writes one .tdt
 * per run, named by SweepRunner's applyTracePrefix.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "dram/channel.hh"
#include "sim/logging.hh"
#include "sim/sweep_runner.hh"
#include "tdram/overhead.hh"

namespace
{

using namespace tsim;

/** Parsed command-line options. */
struct Options
{
    bool full = false;            ///< all 28 workloads vs quick set
    SystemConfig base;            ///< every run's config but its design
    unsigned jobs = 0;            ///< workers; 0 = hardware_concurrency
    std::string tracePrefix;      ///< .tdt per run when non-empty
};

/**
 * One simulation's results: the report, plus the controller counters
 * that §V-D, §V-E and the page-policy ablation read from the System
 * after run() and that SimReport does not carry.
 */
struct Run
{
    SimReport report;
    double predictorWrongFetch = 0;
    double prefetchIssued = 0;
    double prefetchUseful = 0;
    double drainedOnMissClean = 0;  ///< summed over channels
    double drainedOnRefresh = 0;
    double drainedForced = 0;
    double rowHits = 0;
    double rowConflicts = 0;
    double dataBankActs = 0;
};

Run
simulate(const SweepJob &job)
{
    System sys(job.cfg, job.workload);
    Run r;
    r.report = sys.run();
    const DramCacheCtrl &dc = sys.dcache();
    r.predictorWrongFetch = dc.predictorWrongFetch.value();
    r.prefetchIssued = dc.prefetchIssued.value();
    r.prefetchUseful = dc.prefetchUseful.value();
    for (unsigned c = 0; c < dc.numChannels(); ++c) {
        const DramChannel &ch = dc.channel(c);
        r.drainedOnMissClean += ch.flushBuffer().drainedOnMissClean.value();
        r.drainedOnRefresh += ch.flushBuffer().drainedOnRefresh.value();
        r.drainedForced += ch.flushBuffer().drainedForced.value();
        r.rowHits += ch.rowHits.value();
        r.rowConflicts += ch.rowConflicts.value();
        r.dataBankActs += ch.dataBankActs.value();
    }
    return r;
}

/**
 * The shared result set. Figures declare runs with need() before
 * runAll() and read them back with get() after; a run is identified
 * by its SystemConfig and workload name, so every figure that needs
 * the same pair shares one simulation.
 */
class RunSet
{
  public:
    explicit RunSet(const Options &o)
        : _opts(o),
          _workloads(o.full ? allWorkloads() : representativeWorkloads())
    {}

    const std::vector<WorkloadProfile> &workloads() const
    {
        return _workloads;
    }

    /** The default configuration of design @p d under the options. */
    SystemConfig
    config(Design d) const
    {
        SystemConfig cfg = _opts.base;
        cfg.design = d;
        return cfg;
    }

    /** config(d) with one DRAM-cache field set to @p value: a
     *  variant run. */
    template <class T>
    SystemConfig
    with(Design d, T DramCacheConfig::*field,
         std::type_identity_t<T> value) const
    {
        SystemConfig cfg = config(d);
        cfg.dcache.*field = value;
        return cfg;
    }

    void
    need(const SystemConfig &cfg, const WorkloadProfile &wl)
    {
        if (find(cfg, wl) == _jobs.size())
            _jobs.push_back({cfg, wl});
    }

    /** @p cfg on every workload. */
    void
    need(const SystemConfig &cfg)
    {
        for (const auto &wl : _workloads)
            need(cfg, wl);
    }

    /** Validate, then run, every declared job; host summary to stderr. */
    void
    runAll()
    {
        std::vector<SweepJob> jobs = _jobs;
        for (const SweepJob &job : jobs)
            requireValid(job.cfg);
        applyTracePrefix(jobs, _opts.tracePrefix);
        _runs.resize(jobs.size());
        SweepRunner(_opts.jobs).forEach(jobs.size(), [&](std::size_t i) {
            _runs[i] = simulate(jobs[i]);
        });

        HostPerf perf;
        for (const Run &r : _runs)
            perf.merge(r.report.hostPerf);
        if (perf.runs == 0)
            return;
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        std::fprintf(stderr,
                     "[host] %llu runs, %llu events, %.2fs host time, "
                     "%.2fM events/s, %.1f sim-us per host-s, "
                     "%llu chan kicks (%.1f scan steps each, "
                     "%.2f kicks/cmd)\n",
                     (unsigned long long)perf.runs,
                     (unsigned long long)perf.events, perf.hostSeconds,
                     perf.eventsPerSec() / 1e6,
                     perf.simNsPerHostSec() / 1e3,
                     (unsigned long long)perf.chanKicks,
                     ratio(perf.chanScans, perf.chanKicks),
                     ratio(perf.chanKicks, perf.chanCmds));
    }

    const Run &
    get(const SystemConfig &cfg, const WorkloadProfile &wl) const
    {
        const std::size_t i = find(cfg, wl);
        panic_if(i >= _runs.size(), "run of %s/%s was not planned",
                 designName(cfg.design), wl.name.c_str());
        return _runs[i];
    }

    const SimReport &
    get(Design d, const WorkloadProfile &wl) const
    {
        return get(config(d), wl).report;
    }

  private:
    std::size_t
    find(const SystemConfig &cfg, const WorkloadProfile &wl) const
    {
        std::size_t i = 0;
        while (i < _jobs.size() &&
               !(_jobs[i].cfg == cfg && _jobs[i].workload.name == wl.name))
            ++i;
        return i;
    }

    Options _opts;
    std::vector<WorkloadProfile> _workloads;
    std::vector<SweepJob> _jobs;
    std::vector<Run> _runs;
};

/** Geomean of per-workload ratios base/x (speedups). */
double
geomeanRatio(const std::vector<double> &base, const std::vector<double> &x)
{
    std::vector<double> r;
    for (std::size_t i = 0; i < base.size(); ++i)
        r.push_back(base[i] / x[i]);
    return geomean(r);
}

// ---------------------------------------------------------------------
// Figure 1: breakdown of DRAM-cache hit and miss ratios per workload,
// split into the Table II access classes, with the low/high miss-ratio
// grouping the rest of the paper uses. The breakdown is a property of
// the workload's interaction with the cache organization (not of the
// tag-check protocol), so one design suffices; TDRAM is used, as
// hit/miss classes are identical across designs (asserted by
// tests/integration_test.cpp).

void
fig01(const RunSet &rs)
{
    std::printf("Figure 1: DRAM-cache access breakdown (%% of demands)\n");
    std::printf("%-9s %5s | %6s %6s %6s %6s | %6s %6s %6s %6s | %6s %s\n",
                "workload", "grp", "rdHit", "rdMsI", "rdMsC", "rdMsD",
                "wrHit", "wrMsI", "wrMsC", "wrMsD", "missR", "");

    auto pct = [](double f) { return f * 100.0; };
    for (const auto &wl : rs.workloads()) {
        const SimReport &r = rs.get(Design::Tdram, wl);
        auto f = [&](AccessOutcome o) {
            return r.outcomeFrac[static_cast<unsigned>(o)];
        };
        const double rd_hit = f(AccessOutcome::ReadHitClean) +
                              f(AccessOutcome::ReadHitDirty);
        const double wr_hit = f(AccessOutcome::WriteHitClean) +
                              f(AccessOutcome::WriteHitDirty);
        std::printf(
            "%-9s %5s | %6.1f %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f "
            "%6.1f | %6.1f %s\n",
            wl.name.c_str(), wl.highMiss ? "high" : "low", pct(rd_hit),
            pct(f(AccessOutcome::ReadMissInvalid)),
            pct(f(AccessOutcome::ReadMissClean)),
            pct(f(AccessOutcome::ReadMissDirty)), pct(wr_hit),
            pct(f(AccessOutcome::WriteMissInvalid)),
            pct(f(AccessOutcome::WriteMissClean)),
            pct(f(AccessOutcome::WriteMissDirty)), pct(r.missRatio),
            (wl.highMiss ? r.missRatio > 0.5 : r.missRatio < 0.3)
                ? ""
                : "<-- outside its paper group");
    }
    std::printf("\npaper: low group < 30%% miss, high group > 50%%; no "
                "workloads in between.\n");
}

// ---------------------------------------------------------------------
// Figure 2 (motivation): average queueing delay of DRAM reads in
// existing DRAM caches (CascadeLake, Alloy, BEAR) compared to a system
// with main memory only. Every demand in these designs — including
// writes — funnels a read through the DRAM-cache read buffer,
// inflating the delay beyond the no-cache system's.

void
fig02(const RunSet &rs)
{
    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear};

    std::printf("Figure 2: avg queueing delay of DRAM reads (ns)\n");
    std::printf("%-9s %10s %10s %10s %10s\n", "workload", "NoCache",
                "CascLake", "Alloy", "BEAR");
    std::vector<double> nc, cl, al, be;
    for (const auto &wl : rs.workloads()) {
        const double no_cache = rs.get(Design::NoCache, wl).mmReadQueueDelayNs;
        double v[3];
        for (int i = 0; i < 3; ++i)
            v[i] = rs.get(designs[i], wl).readQueueDelayNs;
        std::printf("%-9s %10.2f %10.2f %10.2f %10.2f\n",
                    wl.name.c_str(), no_cache, v[0], v[1], v[2]);
        nc.push_back(no_cache);
        cl.push_back(v[0]);
        al.push_back(v[1]);
        be.push_back(v[2]);
    }
    std::printf("%-9s %10.2f %10.2f %10.2f %10.2f   (geomean)\n", "",
                geomean(nc), geomean(cl), geomean(al), geomean(be));
    std::printf("\npaper: DRAM-cache bars are higher than the "
                "main-memory-only system's.\n");
}

// ---------------------------------------------------------------------
// Figure 3 (motivation): DRAM-cache bandwidth broken into useful and
// unuseful data movement. Unuseful = tag-read data the controller
// discards after the compare (read/write miss-cleans; write-hits except
// under BEAR) plus the TAD padding of 80 B bursts.

void
fig03(const RunSet &rs)
{
    std::printf(
        "Figure 3: unuseful fraction of DRAM-cache traffic (%%)\n");
    std::printf("%-9s %10s %10s %10s %10s\n", "workload", "CascLake",
                "Alloy", "BEAR", "TDRAM");
    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear, Design::Tdram};
    std::vector<std::vector<double>> cols(4);
    for (const auto &wl : rs.workloads()) {
        std::printf("%-9s", wl.name.c_str());
        for (int i = 0; i < 4; ++i) {
            const double u = rs.get(designs[i], wl).unusefulFrac * 100.0;
            cols[static_cast<size_t>(i)].push_back(u + 1e-9);
            std::printf(" %10.1f", u);
        }
        std::printf("\n");
    }
    std::printf("%-9s", "(geomean)");
    for (auto &c : cols)
        std::printf(" %10.1f", geomean(c));
    std::printf("\n\npaper: significant waste for ft/is/mg/ua; Alloy "
                "and BEAR's 80 B bursts add waste; TDRAM's conditional "
                "response eliminates it.\n");
}

// ---------------------------------------------------------------------
// Figure 4A / §III-C5: TDRAM's hardware cost — the signal-count table
// and the die-area estimate, computed from the overhead model rather
// than hard-coded, so the derivation is auditable.

void
fig04(const RunSet &)
{
    const InterfaceSignals hbm = hbm3Signals();
    const InterfaceSignals td = tdramSignals();

    std::printf("Figure 4A: interface signal counts\n");
    std::printf("%-22s %10s %10s\n", "", "HBM3", "TDRAM");
    std::printf("%-22s %10u %10u\n", "channels", hbm.channels,
                td.channels);
    std::printf("%-22s %10u %10u\n", "DQ / channel", hbm.dqPerChannel,
                td.dqPerChannel);
    std::printf("%-22s %10u %10u\n", "CA / channel", hbm.caPerChannel,
                td.caPerChannel);
    std::printf("%-22s %10u %10u\n", "HM / channel", hbm.hmPerChannel,
                td.hmPerChannel);
    std::printf("%-22s %10u %10u\n", "aux / channel",
                hbm.auxPerChannel, td.auxPerChannel);
    std::printf("%-22s %10u %10u\n", "global", hbm.globalSignals,
                td.globalSignals);
    std::printf("%-22s %10u %10u\n", "total", hbm.total(), td.total());
    std::printf("\nextra signals: %u (paper: 192; fits the 320 spare "
                "bump sites)\n",
                tdramExtraSignals());
    std::printf("signal increase: %.1f%% (paper: 9.7%%)\n",
                tdramSignalIncrease() * 100.0);

    const AreaModel area;
    std::printf("\nSec III-C5: die-area estimate\n");
    std::printf("  tag-mat overhead        %5.1f%%\n",
                area.tagMatOverhead * 100.0);
    std::printf("  x even-bank fraction    %5.1f%%\n",
                area.evenBankFraction * 100.0);
    std::printf("  x bank area fraction    %5.1f%%\n",
                area.bankAreaFraction * 100.0);
    std::printf("  + routing               %5.2f%%\n",
                area.routingOverhead * 100.0);
    std::printf("  = die-area impact       %5.2f%%  (paper: 8.24%%)\n",
                area.dieAreaImpact() * 100.0);

    std::printf("\ntag storage: 64 GiB cache -> %llu GiB tags; 1 PB "
                "space -> %u tag bits\n",
                TagStorage::tagBytes(64ULL << 30) >> 30,
                TagStorage::tagBits(64ULL << 30, 1ULL << 50));
}

// ---------------------------------------------------------------------
// Figures 5-7: TDRAM's transaction timing diagrams, regenerated from
// the channel model itself rather than drawn. Each scenario drives one
// (or a pipeline of) commands through an idle TDRAM channel and prints
// the observable events with their tick offsets, which should match
// the paper's annotated waveforms:
//
//   Fig 5 (read):  ActRd@0, HM result @15 ns, data burst ends @32 ns
//                  (identical for read-hit and read-miss-dirty;
//                  read-miss-clean moves no data).
//   Fig 6 (write): ActWr@0, write data ends @9 ns, HM @15 ns,
//                  (miss-dirty: victim enters the flush buffer after
//                  the internal read, ~@14 ns).
//   Fig 7 (probe): with the data bus saturated by MAIN commands,
//                  PROBE slots return results for queued reads long
//                  before their MAIN slot could issue.

struct Timeline
{
    std::vector<std::pair<Tick, std::string>> events;

    void
    mark(Tick t, std::string what)
    {
        events.emplace_back(t, std::move(what));
    }

    void
    print(const char *title)
    {
        std::printf("\n%s\n", title);
        std::sort(events.begin(), events.end());
        for (auto &[t, what] : events)
            std::printf("  %7.2f ns  %s\n", ticksToNs(t), what.c_str());
        events.clear();
    }
};

struct Rig
{
    Rig() : map(1ULL << 24, 1, 16, 1024), chan(eq, "ch", cfg(), map)
    {
        chan.peekTags = [this](Addr a) { return tags[lineAlign(a)]; };
        chan.onFlushArrive = [this](Addr a, Tick t) {
            tl.mark(t, "flush-buffer entry 0x" + hex(a) +
                           " arrives at controller");
        };
    }

    /** One TDRAM channel, without refresh to keep the waveform short. */
    static ChannelConfig
    cfg()
    {
        ChannelConfig c =
            dcacheChannelConfig(Design::Tdram, DramCacheConfig{});
        c.refreshEnabled = false;
        return c;
    }

    static std::string
    hex(Addr a)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llx", (unsigned long long)a);
        return buf;
    }

    void
    setTag(Addr a, bool hit, bool valid, bool dirty, Addr victim)
    {
        TagResult r;
        r.hit = hit;
        r.valid = valid;
        r.dirty = dirty;
        r.victimAddr = victim;
        tags[lineAlign(a)] = r;
    }

    void
    submit(Addr a, ChanOp op, const std::string &label)
    {
        ChanReq r;
        r.id = nextId++;
        r.addr = a;
        r.op = op;
        tl.mark(eq.curTick(), label + " enqueued");
        r.onTagResult = [this, label](Tick t, const TagResult &tr) {
            std::string what = label;
            what += tr.viaProbe ? ": PROBE result on HM bus ("
                                : ": HM result (";
            what += tr.hit ? "hit" : (tr.valid ? "miss" : "invalid");
            if (tr.valid && tr.dirty)
                what += ", dirty";
            what += ")";
            tl.mark(t, what);
        };
        r.onDataDone = [this, label](Tick t) {
            tl.mark(t, label + ": data burst complete on DQ");
        };
        chan.enqueue(std::move(r));
    }

    EventQueue eq;
    AddressMap map;
    DramChannel chan;
    std::map<Addr, TagResult> tags;
    Timeline tl;
    std::uint64_t nextId = 1;
};

void
fig05_07(const RunSet &)
{
    std::printf("Figures 5-7: timing transactions regenerated from "
                "the channel model (Table III parameters)\n");

    {
        Rig rig;
        rig.setTag(0x0, true, true, false, 0x0);
        rig.submit(0x0, ChanOp::ActRd, "ActRd (read hit)");
        rig.eq.run();
        rig.tl.print("Fig 5a: read hit — HM precedes the data burst");
    }
    {
        Rig rig;
        rig.setTag(0x40, false, true, false, 0x111140);
        rig.submit(0x40, ChanOp::ActRd, "ActRd (read miss clean)");
        rig.eq.run();
        rig.tl.print("Fig 5b: read miss clean — conditional response "
                     "suppresses the transfer");
    }
    {
        Rig rig;
        rig.setTag(0x80, false, true, true, 0x111180);
        rig.submit(0x80, ChanOp::ActRd, "ActRd (read miss dirty)");
        rig.eq.run();
        rig.tl.print("Fig 5c: read miss dirty — victim streams with "
                     "hit timing");
    }
    {
        Rig rig;
        rig.setTag(0xc0, true, true, false, 0xc0);
        rig.submit(0xc0, ChanOp::ActWr, "ActWr (write hit)");
        rig.eq.run();
        rig.tl.print("Fig 6a: write hit — single command, no "
                     "turnaround");
    }
    {
        Rig rig;
        rig.setTag(0x100, false, true, true, 0x111100);
        rig.submit(0x100, ChanOp::ActWr, "ActWr (write miss dirty)");
        rig.eq.run();
        rig.tl.print("Fig 6b: write miss dirty — victim moves to the "
                     "flush buffer internally");
        std::printf("  (flush buffer now holds %u entries; drains "
                    "opportunistically)\n",
                    rig.chan.flushSize());
    }
    {
        Rig rig;
        // Saturate one bank with back-to-back reads so later queued
        // reads become probe targets (Fig 7's PROBE slots).
        for (unsigned n = 0; n < 4; ++n) {
            const Addr a = (0x200 + 16 * n) * lineBytes;
            rig.setTag(a, n % 2 == 0, true, false, a ^ (1ULL << 20));
            rig.submit(a, ChanOp::ActRd,
                       "ActRd #" + std::to_string(n) +
                           (n % 2 == 0 ? " (hit)" : " (miss clean)"));
        }
        rig.eq.run();
        rig.tl.print("Fig 7: pipelined reads — probe results arrive "
                     "in otherwise-unused HM slots");
        std::printf("  probes issued: %.0f\n",
                    rig.chan.probesIssued.value());
    }
}

// ---------------------------------------------------------------------
// Figure 9: average tag-check latency per design (queue occupancy +
// tag access + compare + result transfer, measured at the controller).
// Paper: TDRAM is 2.6x / 2.65x / 2x / 1.82x faster than CascadeLake /
// Alloy / BEAR / NDC.

void
fig09(const RunSet &rs)
{
    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear, Design::Ndc, Design::Tdram};

    std::printf("Figure 9: tag check latency (ns), lower is better\n");
    std::printf("%-9s %10s %10s %10s %10s %10s\n", "workload",
                "CascLake", "Alloy", "BEAR", "NDC", "TDRAM");
    std::vector<double> lat[5];
    for (const auto &wl : rs.workloads()) {
        std::printf("%-9s", wl.name.c_str());
        for (int i = 0; i < 5; ++i) {
            const double v = rs.get(designs[i], wl).tagCheckNs;
            lat[i].push_back(v);
            std::printf(" %10.2f", v);
        }
        std::printf("\n");
    }
    std::printf("\nTDRAM speedup of tag check (geomean):\n");
    const char *names[] = {"CascadeLake", "Alloy", "BEAR", "NDC"};
    const double paper[] = {2.6, 2.65, 2.0, 1.82};
    for (int i = 0; i < 4; ++i) {
        std::printf("  vs %-12s %5.2fx   (paper: %.2fx)\n", names[i],
                    geomeanRatio(lat[i], lat[4]), paper[i]);
    }
}

// ---------------------------------------------------------------------
// Figure 10: average queueing delay in the DRAM-cache read buffer per
// design. TDRAM's early tag probing retires miss-cleans from the queue
// as soon as the HM result arrives, so its delay is the shortest.

void
fig10(const RunSet &rs)
{
    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear, Design::Ndc, Design::Tdram};

    std::printf(
        "Figure 10: read-buffer queueing delay (ns), lower is "
        "better\n");
    std::printf("%-9s %10s %10s %10s %10s %10s\n", "workload",
                "CascLake", "Alloy", "BEAR", "NDC", "TDRAM");
    std::vector<double> delay[5];
    for (const auto &wl : rs.workloads()) {
        std::printf("%-9s", wl.name.c_str());
        for (int i = 0; i < 5; ++i) {
            const double v = rs.get(designs[i], wl).readQueueDelayNs;
            delay[i].push_back(v + 1e-9);
            std::printf(" %10.2f", v);
        }
        std::printf("\n");
    }
    std::printf("%-9s", "(geomean)");
    for (auto &d : delay)
        std::printf(" %10.2f", geomean(d));
    std::printf("\n\npaper: TDRAM's queueing delay is shorter than "
                "every prior design's.\n");
}

// ---------------------------------------------------------------------
// Figure 11: system speedup normalized to CascadeLake. Paper geomeans:
// TDRAM 1.20x vs CascadeLake, 1.23x vs Alloy, 1.13x vs BEAR, 1.08x vs
// NDC; Ideal is the upper bound TDRAM approaches.

void
fig11(const RunSet &rs)
{
    const Design designs[] = {Design::Alloy,   Design::Bear,
                              Design::Ndc,     Design::TicToc,
                              Design::Banshee, Design::Tdram,
                              Design::Ideal};

    std::printf(
        "Figure 11: speedup normalized to CascadeLake, higher is "
        "better\n");
    std::printf("%-9s %9s %9s %9s %9s %9s %9s %9s\n", "workload",
                "Alloy", "BEAR", "NDC", "TicToc", "Banshee", "TDRAM",
                "Ideal");
    std::vector<double> cl_rt;
    std::vector<double> rt[7];
    for (const auto &wl : rs.workloads()) {
        const double base = static_cast<double>(
            rs.get(Design::CascadeLake, wl).runtimeTicks);
        cl_rt.push_back(base);
        std::printf("%-9s", wl.name.c_str());
        for (int i = 0; i < 7; ++i) {
            const double t =
                static_cast<double>(rs.get(designs[i], wl).runtimeTicks);
            rt[i].push_back(t);
            std::printf(" %9.3f", base / t);
        }
        std::printf("\n");
    }
    std::printf("%-9s", "(geomean)");
    for (auto &t : rt)
        std::printf(" %9.3f", geomeanRatio(cl_rt, t));
    std::printf("\n\nTDRAM speedup over each design (geomean):\n");
    // TicToc and Banshee postdate the paper's Figure 11; no paper
    // geomean exists for them.
    const char *names[] = {"Alloy", "BEAR", "NDC", "TicToc", "Banshee"};
    const double paper[] = {1.23, 1.13, 1.08, 0.0, 0.0};
    for (int i = 0; i < 5; ++i) {
        if (paper[i] > 0) {
            std::printf("  vs %-7s %5.3fx   (paper: %.2fx)\n", names[i],
                        geomeanRatio(rt[i], rt[5]), paper[i]);
        } else {
            std::printf("  vs %-7s %5.3fx\n", names[i],
                        geomeanRatio(rt[i], rt[5]));
        }
    }
    std::printf("  vs %-7s %5.3fx   (paper: 1.20x)\n", "CascLk",
                geomeanRatio(cl_rt, rt[5]));
}

// ---------------------------------------------------------------------
// Figure 12: speedup normalized to a system with main memory only.
// Paper geomeans: CascadeLake 0.92x (8% slowdown), Alloy 0.90x, BEAR
// 0.98x, NDC 1.03x, TDRAM 1.11x — i.e., existing DRAM caches can
// *hurt*, TDRAM helps.

void
fig12(const RunSet &rs)
{
    const Design designs[] = {Design::CascadeLake, Design::Alloy,
                              Design::Bear,        Design::Ndc,
                              Design::TicToc,      Design::Banshee,
                              Design::Tdram};

    std::printf("Figure 12: speedup vs no-DRAM-cache, higher is better\n");
    std::printf("%-9s %6s | %9s %9s %9s %9s %9s %9s %9s\n", "workload",
                "grp", "CascLake", "Alloy", "BEAR", "NDC", "TicToc",
                "Banshee", "TDRAM");
    std::vector<double> base_rt;
    std::vector<double> rt[7];
    for (const auto &wl : rs.workloads()) {
        const double base = static_cast<double>(
            rs.get(Design::NoCache, wl).runtimeTicks);
        base_rt.push_back(base);
        std::printf("%-9s %6s |", wl.name.c_str(),
                    wl.highMiss ? "high" : "low");
        for (int i = 0; i < 7; ++i) {
            const double t =
                static_cast<double>(rs.get(designs[i], wl).runtimeTicks);
            rt[i].push_back(t);
            std::printf(" %9.3f", base / t);
        }
        std::printf("\n");
    }
    std::printf("%-16s |", "(geomean)");
    for (auto &t : rt)
        std::printf(" %9.3f", geomeanRatio(base_rt, t));
    std::printf("\n\npaper geomeans (CascLake/Alloy/BEAR/NDC/TDRAM): "
                "0.92, 0.90, 0.98, 1.03, 1.11 — low-miss workloads "
                "gain, high-miss workloads can lose. TicToc and "
                "Banshee postdate the paper's figure.\n");
}

// ---------------------------------------------------------------------
// Table IV: bandwidth bloat factor (total DRAM-cache bytes moved /
// demand-serving bytes), geomean over the low- and high-miss-ratio
// workload groups, plus TDRAM's reduction w.r.t. each design. Paper
// values: CascadeLake 1.35/2.75, Alloy 1.68/3.43, BEAR 1.41/2.40,
// NDC = TDRAM 1.13/2.06. TicToc and Banshee postdate the paper's
// table; their rows print without a paper reference.

void
table4(const RunSet &rs)
{
    constexpr int kDesigns = 7;
    constexpr int kTdram = kDesigns - 1;
    const Design designs[kDesigns] = {
        Design::CascadeLake, Design::Alloy,   Design::Bear, Design::Ndc,
        Design::TicToc,      Design::Banshee, Design::Tdram};
    const char *names[kDesigns] = {"Cascade Lake", "Alloy",   "BEAR",
                                   "NDC",          "TicToc",  "Banshee",
                                   "TDRAM"};
    // 0 marks designs absent from the paper's Table IV.
    const double paper_low[kDesigns] = {1.35, 1.68, 1.41, 1.13,
                                        0.0,  0.0,  1.13};
    const double paper_high[kDesigns] = {2.75, 3.43, 2.40, 2.06,
                                         0.0,  0.0,  2.06};

    std::vector<double> low[kDesigns], high[kDesigns];
    for (const auto &wl : rs.workloads()) {
        for (int i = 0; i < kDesigns; ++i) {
            const double b = rs.get(designs[i], wl).bloat;
            (wl.highMiss ? high[i] : low[i]).push_back(b);
        }
    }

    std::printf("Table IV: bandwidth bloat factor (geomean)\n");
    std::printf("%-14s %10s %10s %12s %12s\n", "design", "low-miss",
                "high-miss", "paper(low)", "paper(high)");
    double g_low[kDesigns], g_high[kDesigns];
    for (int i = 0; i < kDesigns; ++i) {
        g_low[i] = geomean(low[i]);
        g_high[i] = geomean(high[i]);
        if (paper_low[i] > 0) {
            std::printf("%-14s %10.2f %10.2f %12.2f %12.2f\n", names[i],
                        g_low[i], g_high[i], paper_low[i],
                        paper_high[i]);
        } else {
            std::printf("%-14s %10.2f %10.2f %12s %12s\n", names[i],
                        g_low[i], g_high[i], "-", "-");
        }
    }

    std::printf("\nTDRAM reductions:\n");
    std::printf("%-18s %10s %10s\n", "w.r.t.", "low-miss", "high-miss");
    for (int i = 0; i < kTdram; ++i) {
        std::printf("%-18s %9.1f%% %9.1f%%\n", names[i],
                    (1.0 - g_low[kTdram] / g_low[i]) * 100.0,
                    (1.0 - g_high[kTdram] / g_high[i]) * 100.0);
    }
    std::printf("\npaper reductions: CL 16.3/25.1%%, Alloy "
                "32.7/39.9%%, BEAR 14.2/19.9%%, NDC 0/0%%.\n");
}

// ---------------------------------------------------------------------
// Figure 13: relative energy (power x runtime) normalized to
// CascadeLake. Paper: TDRAM saves 21% vs CascadeLake and 12% vs BEAR
// (geomean); Alloy is much worse than CascadeLake; NDC is the same as
// TDRAM (both move the same bytes).

void
fig13(const RunSet &rs)
{
    const Design designs[] = {Design::Alloy, Design::Bear, Design::Ndc,
                              Design::Tdram};

    std::printf(
        "Figure 13: energy normalized to CascadeLake, lower is "
        "better\n");
    std::printf("%-9s %9s %9s %9s %9s\n", "workload", "Alloy", "BEAR",
                "NDC", "TDRAM");
    std::vector<double> cl_e;
    std::vector<double> e[4];
    for (const auto &wl : rs.workloads()) {
        const double base = rs.get(Design::CascadeLake, wl).energy.totalJ();
        cl_e.push_back(base);
        std::printf("%-9s", wl.name.c_str());
        for (int i = 0; i < 4; ++i) {
            const double v = rs.get(designs[i], wl).energy.totalJ();
            e[i].push_back(v);
            std::printf(" %9.3f", v / base);
        }
        std::printf("\n");
    }
    std::printf("%-9s", "(geomean)");
    for (auto &v : e)
        std::printf(" %9.3f", geomeanRatio(v, cl_e));
    std::printf("\n\nTDRAM energy saving (geomean): %.1f%% vs "
                "CascadeLake (paper 21%%), %.1f%% vs BEAR (paper "
                "12%%)\n",
                (1.0 - geomeanRatio(e[3], cl_e)) * 100.0,
                (1.0 - geomeanRatio(e[3], e[1])) * 100.0);
}

// ---------------------------------------------------------------------
// §V-D: performance impact of a MAP-I hit/miss predictor on a
// CascadeLake-style cache. Paper: predictors add only ~1.03-1.04x
// because they cannot skip the tag read for writes (dirty safety) and
// wrong predictions waste backing-store bandwidth, while TDRAM gets
// deterministic early misses from tag probing. The second half is the
// next-line prefetcher (degree 2) on TDRAM: incremental gains at
// best, with visible bandwidth interference from useless prefetches.

void
planSecVD(RunSet &rs)
{
    rs.need(rs.with(Design::CascadeLake, &DramCacheConfig::predictor, true));
    rs.need(rs.with(Design::Tdram, &DramCacheConfig::prefetchDegree, 2));
}

void
secVD(const RunSet &rs)
{
    const SystemConfig pred_cfg =
        rs.with(Design::CascadeLake, &DramCacheConfig::predictor, true);
    const SystemConfig pf_cfg =
        rs.with(Design::Tdram, &DramCacheConfig::prefetchDegree, 2);

    std::printf("SecV-D: MAP-I predictor impact on CascadeLake\n");
    std::printf("%-9s %12s %12s %9s %9s %10s\n", "workload", "base_us",
                "pred_us", "speedup", "accuracy", "wasted_rd");
    std::vector<double> base_rt, pred_rt;
    for (const auto &wl : rs.workloads()) {
        const SimReport &base = rs.get(Design::CascadeLake, wl);
        const Run &pred = rs.get(pred_cfg, wl);
        base_rt.push_back(static_cast<double>(base.runtimeTicks));
        pred_rt.push_back(static_cast<double>(pred.report.runtimeTicks));
        std::printf("%-9s %12.1f %12.1f %9.3f %9.2f %10.0f\n",
                    wl.name.c_str(), base.runtimeNs() / 1e3,
                    pred.report.runtimeNs() / 1e3,
                    static_cast<double>(base.runtimeTicks) /
                        static_cast<double>(pred.report.runtimeTicks),
                    pred.report.predictorAccuracy,
                    pred.predictorWrongFetch);
    }
    std::printf("\npredictor speedup geomean: %.3fx   (paper: "
                "1.03-1.04x)\n",
                geomeanRatio(base_rt, pred_rt));

    std::printf("\nNext-line prefetcher on TDRAM (degree 2):\n");
    std::printf("%-9s %12s %12s %9s %10s %10s\n", "workload", "base_us",
                "pref_us", "speedup", "issued", "useful");
    std::vector<double> b2, p2;
    for (const auto &wl : rs.workloads()) {
        const SimReport &base = rs.get(Design::Tdram, wl);
        const Run &pf = rs.get(pf_cfg, wl);
        b2.push_back(static_cast<double>(base.runtimeTicks));
        p2.push_back(static_cast<double>(pf.report.runtimeTicks));
        std::printf("%-9s %12.1f %12.1f %9.3f %10.0f %10.0f\n",
                    wl.name.c_str(), base.runtimeNs() / 1e3,
                    pf.report.runtimeNs() / 1e3,
                    static_cast<double>(base.runtimeTicks) /
                        static_cast<double>(pf.report.runtimeTicks),
                    pf.prefetchIssued, pf.prefetchUseful);
    }
    std::printf("\nprefetcher speedup geomean: %.3fx   (paper: "
                "\"incremental\" gains; interference limits it)\n",
                geomeanRatio(b2, p2));
}

// ---------------------------------------------------------------------
// §V-E: flush-buffer size sensitivity (8/16/32/64 entries). Paper: the
// buffer essentially never fills (a handful of stalls at size 8 on lu),
// average occupancy ~5 and maximum ~12 across the study; 16 entries
// suffice. Most unloading happens in read-miss-clean DQ slots, with
// refresh windows covering write-heavy phases.

constexpr unsigned kFlushEntries[] = {8, 16, 32, 64};

/** Buffer pressure needs dirty traffic. */
bool
hasFlushPressure(const WorkloadProfile &wl)
{
    return wl.highMiss || wl.storeFraction >= 0.3;
}

void
planSecVE(RunSet &rs)
{
    for (const auto &wl : rs.workloads())
        if (hasFlushPressure(wl))
            for (unsigned entries : kFlushEntries)
                rs.need(rs.with(Design::Tdram,
                                &DramCacheConfig::flushEntries, entries),
                        wl);
}

void
secVE(const RunSet &rs)
{
    std::printf("SecV-E: TDRAM flush-buffer sensitivity\n");
    std::printf("%-9s %7s | %8s %8s %8s | %10s %10s %10s\n", "workload",
                "entries", "stalls", "maxOcc", "avgOcc", "drainMisC",
                "drainRefr", "drainForc");
    for (const auto &wl : rs.workloads()) {
        if (!hasFlushPressure(wl))
            continue;
        for (unsigned entries : kFlushEntries) {
            const Run &run = rs.get(
                rs.with(Design::Tdram, &DramCacheConfig::flushEntries,
                        entries),
                wl);
            const SimReport &r = run.report;
            std::printf(
                "%-9s %7u | %8llu %8.0f %8.2f | %10.0f %10.0f %10.0f\n",
                wl.name.c_str(), entries,
                (unsigned long long)r.flushStalls, r.flushMaxOcc,
                r.flushAvgOcc, run.drainedOnMissClean,
                run.drainedOnRefresh, run.drainedForced);
        }
    }
    std::printf("\npaper: avg occupancy ~5, max ~12; 16 entries "
                "prevent all stalls; most unloading uses "
                "read-miss-clean slots.\n");
}

// ---------------------------------------------------------------------
// §V-F: set-associative TDRAM. Paper: the HPC workloads have negligible
// conflict misses, so direct-mapped and 2/4/8/16-way caches achieve
// similar speedups (over main memory only).

constexpr unsigned kWays[] = {1, 2, 4, 8, 16};

void
planSecVF(RunSet &rs)
{
    for (unsigned ways : kWays)
        rs.need(rs.with(Design::Tdram, &DramCacheConfig::ways, ways));
}

void
secVF(const RunSet &rs)
{
    std::printf("SecV-F: set-associative TDRAM, speedup vs "
                "no-DRAM-cache\n");
    std::printf("%-9s %9s %9s %9s %9s %9s | %8s\n", "workload", "1-way",
                "2-way", "4-way", "8-way", "16-way", "missR(1w)");
    std::vector<double> per_way[5], base_rt;
    for (const auto &wl : rs.workloads()) {
        const double base = static_cast<double>(
            rs.get(Design::NoCache, wl).runtimeTicks);
        base_rt.push_back(base);
        std::printf("%-9s", wl.name.c_str());
        double miss1 = 0;
        for (int i = 0; i < 5; ++i) {
            const SimReport &r =
                rs.get(rs.with(Design::Tdram, &DramCacheConfig::ways,
                               kWays[i]),
                       wl)
                    .report;
            per_way[i].push_back(static_cast<double>(r.runtimeTicks));
            if (i == 0)
                miss1 = r.missRatio;
            std::printf(" %9.3f",
                        base / static_cast<double>(r.runtimeTicks));
        }
        std::printf(" | %8.3f\n", miss1);
    }
    std::printf("%-9s", "(geomean)");
    for (auto &w : per_way)
        std::printf(" %9.3f", geomeanRatio(base_rt, w));
    std::printf("\n\npaper: all associativities perform similarly — "
                "conflict misses are negligible in these workloads.\n");
}

// ---------------------------------------------------------------------
// Ablation (§III-E, §VI): TDRAM with early tag probing disabled.
// Paper: TDRAM-without-probing behaves like NDC in both tag-check
// latency and overall performance, and probing improves tag-check
// latency by up to 70% on large high-miss workloads.

void
ablationProbing(const RunSet &rs)
{
    std::printf("Probing ablation: tag check (ns) and runtime (us)\n");
    std::printf("%-9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "workload",
                "TDRAM", "noProbe", "NDC", "TDRAM", "noProbe", "NDC",
                "probes");
    std::vector<double> td_tc, np_tc, td_rt, np_rt;
    for (const auto &wl : rs.workloads()) {
        const auto &td = rs.get(Design::Tdram, wl);
        const auto &np = rs.get(Design::TdramNoProbe, wl);
        const auto &ndc = rs.get(Design::Ndc, wl);
        td_tc.push_back(td.tagCheckNs);
        np_tc.push_back(np.tagCheckNs);
        td_rt.push_back(static_cast<double>(td.runtimeTicks));
        np_rt.push_back(static_cast<double>(np.runtimeTicks));
        std::printf(
            "%-9s | %9.2f %9.2f %9.2f | %9.1f %9.1f %9.1f | %9llu\n",
            wl.name.c_str(), td.tagCheckNs, np.tagCheckNs,
            ndc.tagCheckNs, td.runtimeNs() / 1e3, np.runtimeNs() / 1e3,
            ndc.runtimeNs() / 1e3, (unsigned long long)td.probes);
    }
    std::printf("\nprobing improves tag check by %.1f%% (geomean); "
                "runtime by %.3fx\n",
                (1.0 - geomeanRatio(td_tc, np_tc)) * 100.0,
                geomeanRatio(np_rt, td_rt));
    std::printf("paper: up to 70%% tag-check improvement on large "
                "high-miss workloads; TDRAM-noprobe ~= NDC.\n");
}

// ---------------------------------------------------------------------
// Ablation: TDRAM's conditional data response (§III-C3). With the
// column-gating disabled, read-miss-cleans stream (discarded) data
// like NDC-without-its-optimization would — isolating how much of
// TDRAM's bandwidth/energy saving comes from this one mechanism.

void
planAblationConditional(RunSet &rs)
{
    rs.need(rs.with(Design::Tdram,
                    &DramCacheConfig::tdramConditionalColumn, false));
}

void
ablationConditional(const RunSet &rs)
{
    const SystemConfig off_cfg = rs.with(
        Design::Tdram, &DramCacheConfig::tdramConditionalColumn, false);

    std::printf("Conditional-column ablation (TDRAM)\n");
    std::printf("%-9s | %8s %8s | %9s %9s | %9s\n", "workload", "bloat",
                "bloatNC", "energy_uJ", "energyNC", "rt_ratio");
    std::vector<double> e_on, e_off;
    for (const auto &wl : rs.workloads()) {
        const SimReport &on = rs.get(Design::Tdram, wl);
        const SimReport &off = rs.get(off_cfg, wl).report;
        e_on.push_back(on.energy.totalJ());
        e_off.push_back(off.energy.totalJ());
        std::printf("%-9s | %8.2f %8.2f | %9.1f %9.1f | %9.3f\n",
                    wl.name.c_str(), on.bloat, off.bloat,
                    on.energy.totalJ() * 1e6, off.energy.totalJ() * 1e6,
                    static_cast<double>(off.runtimeTicks) /
                        static_cast<double>(on.runtimeTicks));
    }
    std::printf("\nconditional response saves %.1f%% energy "
                "(geomean); the paper credits it for skipping the "
                "column op and transfer on every miss-clean.\n",
                (1.0 - geomeanRatio(e_on, e_off)) * 100.0);
}

// ---------------------------------------------------------------------
// Ablation: row-buffer policy for the conventional DRAM-cache devices.
// Table III fixes close-page; this table shows why — after LLC
// filtering, the DRAM-cache demand stream has little row locality, so
// open-page adds precharge penalties on conflicts without earning
// enough row hits. (TDRAM's ActRd/ActWr are combined close-page
// commands by construction.)

void
planAblationPagePolicy(RunSet &rs)
{
    rs.need(rs.with(Design::CascadeLake, &DramCacheConfig::pagePolicy,
                    PagePolicy::Open));
}

void
ablationPagePolicy(const RunSet &rs)
{
    const SystemConfig open_cfg = rs.with(
        Design::CascadeLake, &DramCacheConfig::pagePolicy, PagePolicy::Open);

    std::printf("Page-policy ablation (CascadeLake device)\n");
    std::printf("%-9s | %10s %10s %9s | %9s %9s\n", "workload",
                "close_us", "open_us", "ratio", "rowHit%", "conf%");
    std::vector<double> close_rt, open_rt;
    for (const auto &wl : rs.workloads()) {
        const SimReport &close = rs.get(Design::CascadeLake, wl);
        const Run &open = rs.get(open_cfg, wl);
        const double accesses = open.rowHits + open.dataBankActs;
        close_rt.push_back(static_cast<double>(close.runtimeTicks));
        open_rt.push_back(static_cast<double>(open.report.runtimeTicks));
        std::printf("%-9s | %10.1f %10.1f %9.3f | %9.1f %9.1f\n",
                    wl.name.c_str(), close.runtimeNs() / 1e3,
                    open.report.runtimeNs() / 1e3,
                    static_cast<double>(open.report.runtimeTicks) /
                        static_cast<double>(close.runtimeTicks),
                    accesses > 0 ? open.rowHits / accesses * 100.0 : 0.0,
                    accesses > 0 ? open.rowConflicts / accesses * 100.0
                                 : 0.0);
    }
    std::printf("\nopen-page / close-page runtime (geomean): %.3f — "
                "values near or above 1 justify Table III's "
                "close-page choice for cache traffic.\n",
                geomeanRatio(open_rt, close_rt));
}

// ---------------------------------------------------------------------

/**
 * One table of the evaluation: the runs it needs — its designs'
 * default configurations on every workload, plus any variant runs
 * planVariants declares — and its printer.
 */
struct Figure
{
    const char *name;
    std::vector<Design> designs;
    void (*planVariants)(RunSet &);
    void (*print)(const RunSet &);
};

/** Every figure, in paper order. */
const Figure kFigures[] = {
    {"fig01", {Design::Tdram}, nullptr, fig01},
    {"fig02",
     {Design::NoCache, Design::CascadeLake, Design::Alloy, Design::Bear},
     nullptr, fig02},
    {"fig03",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Tdram},
     nullptr, fig03},
    {"fig04", {}, nullptr, fig04},
    {"fig05_07", {}, nullptr, fig05_07},
    {"fig09",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
      Design::Tdram},
     nullptr, fig09},
    {"fig10",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
      Design::Tdram},
     nullptr, fig10},
    {"fig11",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
      Design::TicToc, Design::Banshee, Design::Tdram, Design::Ideal},
     nullptr, fig11},
    {"fig12",
     {Design::NoCache, Design::CascadeLake, Design::Alloy, Design::Bear,
      Design::Ndc, Design::TicToc, Design::Banshee, Design::Tdram},
     nullptr, fig12},
    {"table4",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
      Design::TicToc, Design::Banshee, Design::Tdram},
     nullptr, table4},
    {"fig13",
     {Design::CascadeLake, Design::Alloy, Design::Bear, Design::Ndc,
      Design::Tdram},
     nullptr, fig13},
    {"secVD", {Design::CascadeLake, Design::Tdram}, planSecVD, secVD},
    {"secVE", {}, planSecVE, secVE},
    {"secVF", {Design::NoCache}, planSecVF, secVF},
    {"ablation_probing", {Design::Tdram, Design::TdramNoProbe, Design::Ndc},
     nullptr, ablationProbing},
    {"ablation_conditional", {Design::Tdram}, planAblationConditional,
     ablationConditional},
    {"ablation_page_policy", {Design::CascadeLake}, planAblationPagePolicy,
     ablationPagePolicy},
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [figure ...] [--full] [--ops N] "
                 "[--warmup N] [--seed N] [--jobs N] [--trace PREFIX] "
                 "[--replay FILE.tdtz]\n",
                 argv0);
    std::exit(1);
}

const Figure *
findFigure(const char *name)
{
    for (const Figure &f : kFigures)
        if (std::strcmp(f.name, name) == 0)
            return &f;
    std::fprintf(stderr, "unknown figure '%s'; one of:", name);
    for (const Figure &f : kFigures)
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.base.cores.opsPerCore = 8000;
    o.base.warmupOpsPerCore = 150000;
    bool opsGiven = false;
    std::vector<const Figure *> figures;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(a, "--full") == 0) {
            o.full = true;
        } else if (std::strcmp(a, "--ops") == 0 && has_value) {
            o.base.cores.opsPerCore = parseCount(a, argv[++i]);
            opsGiven = true;
        } else if (std::strcmp(a, "--warmup") == 0 && has_value) {
            o.base.warmupOpsPerCore = parseCount(a, argv[++i]);
        } else if (std::strcmp(a, "--seed") == 0 && has_value) {
            o.base.seed = parseCount(a, argv[++i]);
        } else if (std::strcmp(a, "--jobs") == 0 && has_value) {
            o.jobs = static_cast<unsigned>(parseCount(a, argv[++i], UINT_MAX));
        } else if (std::strcmp(a, "--trace") == 0 && has_value) {
            o.tracePrefix = argv[++i];
        } else if (std::strcmp(a, "--replay") == 0 && has_value) {
            o.base.replay.path = argv[++i];
        } else if (a[0] == '-') {
            usage(argv[0]);
        } else {
            figures.push_back(findFigure(a));
        }
    }
    if (o.full && !opsGiven)
        o.base.cores.opsPerCore = 40000;
    if (figures.empty())
        for (const Figure &f : kFigures)
            figures.push_back(&f);

    RunSet rs(o);
    for (const Figure *f : figures) {
        for (Design d : f->designs)
            rs.need(rs.config(d));
        if (f->planVariants)
            f->planVariants(rs);
    }
    rs.runAll();
    for (const Figure *f : figures) {
        if (figures.size() > 1)
            std::printf("==> %s <==\n", f->name);
        f->print(rs);
    }
    return 0;
}
