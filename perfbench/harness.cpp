/**
 * @file
 * Harness of the repository benchmark. perfbench/run.py builds it,
 * starts it once per phase and turns what it prints into metrics.
 * Each command prints one JSON object on stdout:
 *
 *   tdram_perfbench provenance
 *   tdram_perfbench capture --seed N --out FILE.tdtz
 *   tdram_perfbench check   --workload W --seed N [--replay F]
 *   tdram_perfbench measure --workload W --seed N --seconds S
 *                           [--replay F] [--spans FILE]
 *
 * Every run uses the default single-queue engine (threads = 0);
 * fig11_grid runs on min(4, nproc) sweep workers, the others on one
 * thread. Spans are timed here, around calls into the layers' public
 * functions: the System constructor, RequestEngine::warmup,
 * System::run, TdtzWriter and TdtzReader. Nothing inside the
 * simulator is instrumented.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "sim/sweep_runner.hh"
#include "stats/stats.hh"
#include "system/system.hh"
#include "trace/tdtz.hh"
#include "trace/trace.hh"

#ifndef TDRAM_BENCH_BUILD_TYPE
#define TDRAM_BENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace tsim;

// Run sizes. fig11_grid uses the figure harnesses' defaults
// (bench/bench_common.hh); mgd_tdram is long enough that warm-up is a
// few percent of the run; the is.D capture yields about 240k records.
constexpr std::uint64_t gridOpsPerCore = 8000;
constexpr std::uint64_t warmupOpsPerCore = 150000;
constexpr std::uint64_t mgdOpsPerCore = 100000;
constexpr std::uint64_t captureOpsPerCore = 20000;

/** Timed encode and decode passes over one capture. */
constexpr unsigned codecPasses = 3;

/** Fewest System constructions in one set-up batch. */
constexpr std::size_t minSetupSamples = 16;

/** Most sweep workers of fig11_grid. */
constexpr unsigned maxGridWorkers = 4;

constexpr std::uint64_t fnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t fnvPrime = 1099511628211ULL;

struct Options
{
    std::string command;
    std::string workload;
    std::string replay;  ///< .tdtz that isd_replay_afap replays
    std::string spans;   ///< span output; empty: tracing off
    std::string out;     ///< capture output
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(
        stderr,
        "tdram_perfbench: %s\n"
        "usage: tdram_perfbench provenance\n"
        "       tdram_perfbench capture --seed N --out FILE.tdtz\n"
        "       tdram_perfbench check --workload W --seed N "
        "[--replay FILE]\n"
        "       tdram_perfbench measure --workload W --seed N "
        "--seconds S [--replay FILE] [--spans FILE]\n",
        why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s < '0' || *s > '9' || *end != '\0' || errno != 0)
        usage(flag + " wants a non-negative integer, got '" + s + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Options o;
    o.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " wants a value");
        const char *value = argv[i + 1];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--replay")
            o.replay = value;
        else if (flag == "--spans")
            o.spans = value;
        else if (flag == "--out")
            o.out = value;
        else if (flag == "--seed")
            o.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            o.seconds = parseCount(flag, value);
        else
            usage("unknown option " + flag);
    }
    return o;
}

/** Seconds since construction: the time base of every span. */
class Stopwatch
{
  public:
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start =
        std::chrono::steady_clock::now();
};

std::string
formatReal(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Assembles one JSON object; keys need no escaping. */
class Json
{
  public:
    Json &
    str(const char *key, const std::string &value)
    {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }

    Json &real(const char *key, double v) { return raw(key, formatReal(v)); }

    Json &
    count(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    Json &
    raw(const char *key, const std::string &value)
    {
        _body += (_body.empty() ? "\"" : ", \"") + std::string(key) +
                 "\": " + value;
        return *this;
    }

    std::string text() const { return "{" + _body + "}"; }

  private:
    std::string _body;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        s += (i ? ", " : "") + items[i];
    return s + "]";
}

std::string
jsonArray(const std::vector<double> &xs)
{
    std::vector<std::string> items;
    for (double x : xs)
        items.push_back(formatReal(x));
    return jsonArray(items);
}

/** One simulation of a workload. */
struct Job
{
    std::string name;  ///< "<design>/<profile>"
    SystemConfig cfg;
    WorkloadProfile workload;
};

Job
makeJob(Design design, const std::string &profile, std::uint64_t ops,
        std::uint64_t warmup, std::uint64_t seed)
{
    Job job{std::string(designName(design)) + "/" + profile, {},
            findWorkload(profile)};
    job.cfg.design = design;
    job.cfg.cores.opsPerCore = ops;
    job.cfg.warmupOpsPerCore = warmup;
    job.cfg.seed = seed;
    return job;
}

std::vector<Job>
workloadJobs(const Options &o)
{
    std::vector<Job> jobs;
    if (o.workload == "fig11_grid") {
        // bench/fig11_speedup_vs_cl's grid, in its job order.
        for (Design d : {Design::CascadeLake, Design::Alloy, Design::Bear,
                         Design::Ndc, Design::TicToc, Design::Banshee,
                         Design::Tdram, Design::Ideal}) {
            for (const WorkloadProfile &wl : representativeWorkloads())
                jobs.push_back(makeJob(d, wl.name, gridOpsPerCore,
                                       warmupOpsPerCore, o.seed));
        }
    } else if (o.workload == "mgd_tdram") {
        jobs.push_back(makeJob(Design::Tdram, "mg.D", mgdOpsPerCore,
                               warmupOpsPerCore, o.seed));
    } else if (o.workload == "isd_replay_afap") {
        if (o.replay.empty())
            usage("isd_replay_afap needs --replay FILE.tdtz");
        // Replays the captured stream as fast as the controller
        // accepts it, with cold caches (no warm-up).
        Job job = makeJob(Design::Tdram, "is.D", 0, 0, o.seed);
        job.cfg.replay.path = o.replay;
        job.cfg.replay.mode = ReplayMode::Afap;
        jobs.push_back(std::move(job));
    } else {
        usage("unknown workload '" + o.workload + "'");
    }
    return jobs;
}

/** What one simulation run produced, as the benchmark sees it. */
struct JobRecord
{
    /** Stopwatch stamps; the inner four are taken only when traced. */
    double start = 0;
    double setupEnd = 0;
    double warmupEnd = 0;
    double loopEnd = 0;
    double collectEnd = 0;
    double end = 0;

    std::uint64_t hash = 0;  ///< FNV-1a of reportJson, checker fields 0
    double simNs = 0;
    std::uint64_t demands = 0;
    std::uint64_t events = 0;
    std::uint64_t warmupOps = 0;
    std::uint64_t opsRetired = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t kicks = 0;
    std::uint64_t scanSteps = 0;
    std::uint64_t cmds = 0;
    std::uint64_t turnarounds = 0;
    std::uint64_t probes = 0;
    std::uint64_t probeBankConflicts = 0;
    std::uint64_t flushStalls = 0;
    std::uint64_t backpressureStalls = 0;
    double readQDelayNs = 0;
    double missRatio = 0;
    double bloat = 0;
    double tagCheckNs = 0;
    std::uint64_t checkEvents = 0;
    std::uint64_t checkViolations = 0;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = fnvOffset;
    for (unsigned char c : s)
        h = (h ^ c) * fnvPrime;
    return h;
}

std::uint64_t
countOf(const Scalar &s)
{
    return static_cast<std::uint64_t>(s.value());
}

/** Fill @p rec with one run's simulated results and host counters. */
void
collect(JobRecord &rec, System &sys, const SimReport &r)
{
    // Hash without the checker verdict, so that the check pass and
    // the timed runs of one configuration must agree.
    SimReport hashed = r;
    hashed.checkEvents = 0;
    hashed.checkViolations = 0;
    rec.hash = fnv1a(reportJson(hashed));
    rec.simNs = r.runtimeNs();
    rec.demands = r.demandReads + r.demandWrites;
    rec.events = r.hostPerf.events;
    rec.kicks = r.hostPerf.chanKicks;
    rec.scanSteps = r.hostPerf.chanScans;
    rec.probes = r.probes;
    rec.flushStalls = r.flushStalls;
    rec.backpressureStalls = r.backpressureStalls;
    rec.readQDelayNs = r.readQueueDelayNs;
    rec.missRatio = r.missRatio;
    rec.bloat = r.bloat;
    rec.tagCheckNs = r.tagCheckNs;
    rec.checkEvents = r.checkEvents;
    rec.checkViolations = r.checkViolations;

    auto add_channel = [&rec](const DramChannel &ch) {
        rec.cmds += countOf(ch.issuedReads) + countOf(ch.issuedWrites) +
                    countOf(ch.issuedActRd) + countOf(ch.issuedActWr);
        rec.turnarounds += countOf(ch.turnarounds);
    };
    DramCacheCtrl &dc = sys.dcache();
    for (unsigned c = 0; c < dc.numChannels(); ++c) {
        add_channel(dc.channel(c));
        rec.probeBankConflicts +=
            countOf(dc.channel(c).probeBankConflicts);
    }
    MainMemory &mm = sys.mainMemory();
    for (unsigned c = 0; c < mm.numChannels(); ++c)
        add_channel(mm.channel(c));

    if (CoreEngine *core = sys.coreEngine()) {
        rec.opsRetired = countOf(core->opsRetired);
        for (unsigned c = 0; c < sys.config().cores.cores; ++c)
            rec.l1Hits += countOf(core->l1(c).hits);
        rec.llcMisses = countOf(core->llc().misses);
    } else if (TraceReplayEngine *replay = sys.replayEngine()) {
        rec.opsRetired = countOf(replay->recordsIssued);
    }
}

JobRecord
runJob(const Job &job, const Stopwatch &clock, bool traced)
{
    JobRecord rec;
    auto stamp = [&](double &t) {
        if (traced)
            t = clock.now();
    };
    // Warm up from outside, so that one span covers exactly the
    // functional warm-up; System::run then warms for 0 ops, a no-op.
    SystemConfig cfg = job.cfg;
    const std::uint64_t warmup = cfg.warmupOpsPerCore;
    cfg.warmupOpsPerCore = 0;

    rec.start = clock.now();
    auto sys = std::make_unique<System>(cfg, job.workload);
    stamp(rec.setupEnd);
    sys->engine().warmup(warmup);
    stamp(rec.warmupEnd);
    const SimReport report = sys->run();
    stamp(rec.loopEnd);
    collect(rec, *sys, report);
    rec.warmupOps =
        sys->coreEngine() ? warmup * cfg.cores.cores : warmup;
    stamp(rec.collectEnd);
    sys.reset();
    rec.end = clock.now();
    return rec;
}

std::string
jobJson(const std::string &name, const JobRecord &r)
{
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(r.hash));
    return Json()
        .str("name", name)
        .real("start_s", r.start)
        .real("end_s", r.end)
        .str("hash", hash)
        .real("sim_ns", r.simNs)
        .count("demands", r.demands)
        .count("events", r.events)
        .count("warmup_ops", r.warmupOps)
        .count("ops_retired", r.opsRetired)
        .count("l1_hits", r.l1Hits)
        .count("llc_misses", r.llcMisses)
        .count("kicks", r.kicks)
        .count("scan_steps", r.scanSteps)
        .count("cmds", r.cmds)
        .count("turnarounds", r.turnarounds)
        .count("probes", r.probes)
        .count("probe_bank_conflicts", r.probeBankConflicts)
        .count("flush_stalls", r.flushStalls)
        .count("backpressure_stalls", r.backpressureStalls)
        .real("read_q_delay_ns", r.readQDelayNs)
        .real("miss_ratio", r.missRatio)
        .real("bloat", r.bloat)
        .real("tag_check_ns", r.tagCheckNs)
        .count("check_events", r.checkEvents)
        .count("check_violations", r.checkViolations)
        .text();
}

/** Spans kept in memory during a traced run and written at its end. */
class SpanLog
{
  public:
    /** Record one span; its id is the parent of the spans it caused. */
    long long
    add(const char *name, long long sim, long long parent, double start,
        double end)
    {
        _spans.push_back({name, sim, parent, start, end});
        return static_cast<long long>(_spans.size()) - 1;
    }

    /** One run: its span, and one child per layer boundary. */
    void
    addJob(const JobRecord &r, long long sim, long long parent)
    {
        const long long job = add("sim.job", sim, parent, r.start, r.end);
        add("system.setup", sim, job, r.start, r.setupEnd);
        add("workload.warmup", sim, job, r.setupEnd, r.warmupEnd);
        add("sim.loop", sim, job, r.warmupEnd, r.loopEnd);
        add("bench.collect", sim, job, r.loopEnd, r.collectEnd);
        add("system.teardown", sim, job, r.collectEnd, r.end);
    }

    bool
    write(const std::string &path) const
    {
        std::vector<std::string> items;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            items.push_back(Json()
                                .count("id", i)
                                .str("name", s.name)
                                .raw("sim", std::to_string(s.sim))
                                .raw("parent", std::to_string(s.parent))
                                .real("start_s", s.start)
                                .real("end_s", s.end)
                                .text());
        }
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::string text = jsonArray(items) + "\n";
        const bool written =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        return std::fclose(f) == 0 && written;
    }

  private:
    struct Span
    {
        const char *name;
        long long sim;     ///< simulation id; -1 outside a run
        long long parent;  ///< -1 for a root
        double start;
        double end;
    };

    std::vector<Span> _spans;
};

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/** CPUs this process may run on, as nproc counts them. */
unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Sweep workers: min(4, nproc) for the grid, one thread otherwise. */
unsigned
workersFor(const Options &o)
{
    return o.workload == "fig11_grid"
               ? std::min(maxGridWorkers, availableCpus())
               : 1;
}

/** One execution of every job of the workload. */
struct Repetition
{
    double start = 0;
    double end = 0;
    std::vector<JobRecord> jobs;
};

int
measure(const Options &o)
{
    const std::vector<Job> jobs = workloadJobs(o);
    const bool traced = !o.spans.empty();
    const Stopwatch clock;
    SpanLog spans;

    // A closed batch: each run starts when a worker is free. Repeat
    // while the next repetition is expected to end within --seconds.
    // Ahead of each repetition, a set-up batch constructs Systems one
    // at a time with nothing else running, every configuration of the
    // workload at least once; batches spread over the run let setup_s
    // skip a batch that a busy host slowed down.
    const SweepRunner runner(workersFor(o));
    std::vector<std::vector<double>> setup_batches;
    std::vector<Repetition> reps;
    const double measure_start = clock.now();
    double last = 0;
    while (reps.empty() || clock.now() - measure_start + last <=
                               static_cast<double>(o.seconds)) {
        const double batch_start = clock.now();
        std::vector<double> setup_s;
        std::vector<std::pair<double, double>> setup_spans;
        const std::size_t setups = std::max(jobs.size(), minSetupSamples);
        for (std::size_t i = 0; i < setups; ++i) {
            const Job &job = jobs[i % jobs.size()];
            const double t0 = clock.now();
            auto sys = std::make_unique<System>(job.cfg, job.workload);
            const double t1 = clock.now();
            sys.reset();
            setup_s.push_back(t1 - t0);
            setup_spans.emplace_back(t0, t1);
        }
        setup_batches.push_back(std::move(setup_s));
        if (traced) {
            const long long root =
                spans.add("bench.setup", -1, -1, batch_start, clock.now());
            for (const auto &[t0, t1] : setup_spans)
                spans.add("system.setup", -1, root, t0, t1);
        }

        Repetition rep;
        rep.jobs.resize(jobs.size());
        rep.start = clock.now();
        runner.forEach(jobs.size(), [&](std::size_t i) {
            rep.jobs[i] = runJob(jobs[i], clock, traced);
        });
        rep.end = clock.now();
        last = rep.end - batch_start;
        reps.push_back(std::move(rep));
    }

    std::vector<std::string> batch_items;
    for (const std::vector<double> &batch : setup_batches)
        batch_items.push_back(jsonArray(batch));
    std::vector<std::string> rep_items;
    for (std::size_t r = 0; r < reps.size(); ++r) {
        std::vector<std::string> job_items;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            job_items.push_back(jobJson(jobs[i].name, reps[r].jobs[i]));
        rep_items.push_back(Json()
                                .real("start_s", reps[r].start)
                                .real("wall_s", reps[r].end - reps[r].start)
                                .raw("jobs", jsonArray(job_items))
                                .text());
        if (traced) {
            const long long root = spans.add("bench.rep", -1, -1,
                                             reps[r].start, reps[r].end);
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                spans.addJob(reps[r].jobs[i],
                             static_cast<long long>(r * jobs.size() + i),
                             root);
            }
        }
    }
    if (traced && !spans.write(o.spans)) {
        std::fprintf(stderr, "tdram_perfbench: cannot write %s\n",
                     o.spans.c_str());
        return 1;
    }
    std::printf("%s\n", Json()
                            .str("command", "measure")
                            .str("workload", o.workload)
                            .count("seed", o.seed)
                            .count("workers", runner.jobs())
                            .flag("traced", traced)
                            .raw("setup_s", jsonArray(batch_items))
                            .raw("reps", jsonArray(rep_items))
                            .count("peak_rss_kb", peakRssKb())
                            .text()
                            .c_str());
    return 0;
}

int
check(const Options &o)
{
    std::vector<Job> jobs = workloadJobs(o);
    for (Job &job : jobs)
        job.cfg.checkProtocol = true;
    const Stopwatch clock;
    std::vector<JobRecord> recs(jobs.size());
    SweepRunner(workersFor(o))
        .forEach(jobs.size(), [&](std::size_t i) {
            recs[i] = runJob(jobs[i], clock, false);
        });
    std::vector<std::string> items;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        items.push_back(jobJson(jobs[i].name, recs[i]));
    std::printf("%s\n", Json()
                            .str("command", "check")
                            .raw("jobs", jsonArray(items))
                            .text()
                            .c_str());
    return 0;
}

/** Order-sensitive FNV-1a step over one replay record. */
std::uint64_t
mixRecord(std::uint64_t h, const ReplayRecord &r)
{
    const std::uint64_t fields[] = {r.addr, r.size, r.isWrite ? 1u : 0u,
                                    r.delta};
    for (std::uint64_t v : fields)
        h = (h ^ v) * fnvPrime;
    return h;
}

int
capture(const Options &o)
{
    if (o.out.empty())
        usage("capture needs --out FILE.tdtz");
    if (!traceCompiledIn()) {
        std::fprintf(stderr, "tdram_perfbench: capture needs the event "
                             "tracer (TDRAM_TRACE=1)\n");
        return 1;
    }
    // A seeded synthetic is.D run with the event tracer on; its demand
    // stream becomes the container that isd_replay_afap replays.
    SystemConfig cfg;
    cfg.design = Design::Tdram;
    cfg.cores.opsPerCore = captureOpsPerCore;
    cfg.warmupOpsPerCore = warmupOpsPerCore;
    cfg.seed = o.seed;
    cfg.tracePath = o.out + ".tdt";
    const SimReport synth = runOne(cfg, findWorkload("is.D"));
    std::vector<ReplayRecord> recs;
    {
        const TraceLoadResult loaded = loadTrace(cfg.tracePath);
        std::filesystem::remove(cfg.tracePath);
        if (!loaded.ok) {
            std::fprintf(stderr, "tdram_perfbench: %s\n",
                         loaded.error.c_str());
            return 1;
        }
        recs = projectDemands(loaded.trace);
    }
    if (recs.size() != synth.demandReads + synth.demandWrites) {
        std::fprintf(stderr,
                     "tdram_perfbench: projected %zu records from %llu "
                     "demands\n",
                     recs.size(),
                     static_cast<unsigned long long>(synth.demandReads +
                                                     synth.demandWrites));
        return 1;
    }
    std::uint64_t want = fnvOffset;
    for (const ReplayRecord &r : recs)
        want = mixRecord(want, r);

    const Stopwatch clock;
    std::vector<double> encode_s;
    for (unsigned p = 0; p < codecPasses; ++p) {
        const double t0 = clock.now();
        TdtzWriter writer(o.out);
        for (const ReplayRecord &r : recs)
            writer.append(r);
        writer.finish();
        encode_s.push_back(clock.now() - t0);
    }
    std::vector<double> decode_s;
    for (unsigned p = 0; p < codecPasses; ++p) {
        const double t0 = clock.now();
        TdtzReader reader;
        const bool opened = reader.open(o.out);
        std::uint64_t records = 0;
        std::uint64_t got = fnvOffset;
        ReplayRecord r;
        while (opened && reader.next(r)) {
            ++records;
            got = mixRecord(got, r);
        }
        decode_s.push_back(clock.now() - t0);
        if (!opened || !reader.ok() || records != recs.size() ||
            got != want) {
            std::fprintf(stderr,
                         "tdram_perfbench: the decoded stream differs "
                         "from the captured one %s\n",
                         reader.error().c_str());
            return 1;
        }
    }
    std::printf("%s\n",
                Json()
                    .str("command", "capture")
                    .count("records", recs.size())
                    .count("bytes", std::filesystem::file_size(o.out))
                    .raw("encode_s", jsonArray(encode_s))
                    .raw("decode_s", jsonArray(decode_s))
                    .text()
                    .c_str());
    return 0;
}

int
provenance()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("%s\n",
                Json()
                    .str("command", "provenance")
                    .str("compiler", __VERSION__)
                    .str("build_type", TDRAM_BENCH_BUILD_TYPE)
                    .flag("optimized", optimized)
                    .flag("trace_gate", traceCompiledIn())
                    .flag("check_gate", checkCompiledIn())
                    .flag("stats_gate", statsCompiledIn())
                    .flag("zstd", tdtzZstdAvailable())
                    .count("nproc", std::thread::hardware_concurrency())
                    .str("engine", "single-queue")
                    .text()
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (o.command == "provenance")
        return provenance();
    if (o.command == "capture")
        return capture(o);
    if (o.command == "check")
        return check(o);
    if (o.command == "measure")
        return measure(o);
    usage("unknown command '" + o.command + "'");
}
