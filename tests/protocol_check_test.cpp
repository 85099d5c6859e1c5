/**
 * @file
 * Protocol-checker integration tests (DESIGN.md §11): unmodified runs
 * of every device kind and page policy report zero violations (inline
 * mode), offline audits of the recorded traces, rebuilt from each
 * trace's manifest, agree with the inline result, the manifest
 * round-trips every field and refuses malformed input, and a channel
 * driven with deliberately relaxed timing against a strict rule table
 * is flagged.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.hh"
#include "dram/channel.hh"
#include "mem/address_map.hh"
#include "system/system.hh"
#include "trace/trace.hh"

namespace tsim
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/**
 * One audited run: a design, a page policy, and whether TDRAM's
 * conditional column is on (the §III-C3 ablation turns it off).
 */
using CleanCase = std::tuple<Design, PagePolicy, bool>;

class CleanRun : public ::testing::TestWithParam<CleanCase>
{
};

TEST_P(CleanRun, ReportsZeroViolationsInlineAndOffline)
{
    const auto [design, policy, conditional] = GetParam();
    SystemConfig cfg;
    cfg.design = design;
    cfg.dcache.capacityBytes = 4ULL << 20;
    cfg.dcache.pagePolicy = policy;
    cfg.dcache.tdramConditionalColumn = conditional;
    cfg.cores.cores = 2;
    cfg.cores.opsPerCore = 1500;
    cfg.cores.llcBytes = 256 * 1024;
    cfg.warmupOpsPerCore = 10000;
    cfg.checkProtocol = true;
    const std::string trace_path =
        tmpPath(std::string("check_clean_") + designName(design) +
                (policy == PagePolicy::Open ? "_open" : "_close") +
                (conditional ? "" : "_nocc") + ".tdt");
    cfg.tracePath = trace_path;

    System sys(cfg, findWorkload("is.C"));
    const SimReport r = sys.run();

    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_GT(r.checkEvents, 0u);
    ASSERT_EQ(r.checkViolations, 0u)
        << ProtocolChecker::formatViolation(
               sys.checker()->violations().front());

    // The same stream audited offline, from nothing but the trace and
    // its manifest, must agree: zero violations over the same number
    // of events.
    TraceLoadResult res = loadTrace(trace_path);
    ASSERT_TRUE(res.ok) << res.error;
    CheckReport rep = checkTrace(res.trace);
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.design, design);
    ASSERT_TRUE(rep.ok)
        << ProtocolChecker::formatViolation(rep.violations.front());
    EXPECT_EQ(rep.events, r.checkEvents);
    EXPECT_EQ(rep.violationCount, 0u);
}

std::vector<CleanCase>
cleanCases()
{
    std::vector<CleanCase> cases;
    for (Design d : {Design::Tdram, Design::CascadeLake, Design::Ndc,
                     Design::Alloy, Design::TicToc, Design::Banshee,
                     Design::Bear, Design::TdramNoProbe, Design::Ideal,
                     Design::NoCache}) {
        for (PagePolicy pp : {PagePolicy::Close, PagePolicy::Open})
            cases.emplace_back(d, pp, true);
    }
    cases.emplace_back(Design::Tdram, PagePolicy::Close, false);
    return cases;
}

std::string
cleanRunName(const ::testing::TestParamInfo<CleanCase> &info)
{
    const auto [design, policy, conditional] = info.param;
    std::string name = designName(design);
    std::erase(name, '-');
    name += policy == PagePolicy::Open ? "Open" : "Close";
    if (!conditional)
        name += "NoConditionalColumn";
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllDevicesAndPolicies, CleanRun,
                         ::testing::ValuesIn(cleanCases()),
                         cleanRunName);

/**
 * A runnable config in which every field of the field list differs
 * from its default.
 */
SystemConfig
manifestCfg()
{
    SystemConfig cfg;
    cfg.design = Design::Banshee;
    cfg.mmChannels = 4;
    DramCacheConfig &d = cfg.dcache;
    d.capacityBytes = 64ULL << 20;
    d.ways = 4;
    d.channels = 4;
    d.banks = 8;
    d.rowBytes = 2048;
    d.readQCap = 32;
    d.writeQCap = 48;
    d.conflictBufEntries = 16;
    d.flushEntries = 8;
    d.pagePolicy = PagePolicy::Open;
    d.predictor = true;
    d.prefetchDegree = 2;
    d.ctrlLatency = nsToTicks(3);
    d.refreshEnabled = false;
    d.pageBytes = 8192;
    d.tdramConditionalColumn = false;
    CoreConfig &k = cfg.cores;
    k.cores = 2;
    k.mlp = 6;
    k.thinkTime = nsToTicks(5);
    k.opsPerCore = 700;
    k.l1Bytes = 32 * 1024;
    k.llcBytes = 4 * 1024 * 1024;
    cfg.warmupOpsPerCore = 300;
    cfg.seed = 9;
    cfg.replay.mode = ReplayMode::Afap;
    cfg.replay.mlp = 3;
    return cfg;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(TraceManifest, RoundTripsEveryField)
{
    const SystemConfig cfg = manifestCfg();
    const std::string text = traceManifest(cfg);

    // Every line carries a non-default value, so the round trip below
    // exercises every field of the list.
    const std::vector<std::string> got = lines(text);
    const std::vector<std::string> dflt =
        lines(traceManifest(SystemConfig{}));
    ASSERT_EQ(got.size(), dflt.size());
    ASSERT_EQ(got.size(), 28u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NE(got[i], dflt[i]);

    SystemConfig back;
    std::string error;
    ASSERT_TRUE(parseTraceManifest(text, back, error)) << error;
    EXPECT_TRUE(back == cfg);
    EXPECT_TRUE(validate(cfg).empty());
}

TEST(TraceManifest, RefusesMalformedInput)
{
    const std::string good = traceManifest(SystemConfig{});
    const auto refusal = [](const std::string &text) {
        SystemConfig cfg;
        std::string error;
        EXPECT_FALSE(parseTraceManifest(text, cfg, error)) << text;
        return error;
    };
    EXPECT_EQ(refusal(""), "the trace has no manifest");
    EXPECT_EQ(refusal("bogus=1\n" + good),
              "unexpected manifest line 'bogus=1' (want key 'design')");
    EXPECT_EQ(refusal(good + "dcache.ways=2\n"),
              "unexpected manifest line 'dcache.ways=2' after the last "
              "key");
    EXPECT_EQ(refusal("design\n"),
              "unexpected manifest line 'design' (want key 'design')");
    EXPECT_EQ(refusal(good.substr(good.find('\n') + 1)),
              "unexpected manifest line 'mmChannels=2' (want key "
              "'design')");
    EXPECT_EQ(refusal(good.substr(0, good.find('\n') + 1)),
              "manifest ends before key 'mmChannels'");

    // Out of range: beyond the field's type, not 0/1 for a flag, not
    // a design or page-policy name.
    const auto with = [&good](const std::string &key,
                              const std::string &value) {
        const std::size_t at = good.find(key + "=") + key.size() + 1;
        return good.substr(0, at) + value +
               good.substr(good.find('\n', at));
    };
    EXPECT_EQ(refusal(with("dcache.ways", "4294967296")),
              "manifest value out of range: dcache.ways=4294967296");
    EXPECT_EQ(refusal(with("dcache.predictor", "2")),
              "manifest value out of range: dcache.predictor=2");
    EXPECT_EQ(refusal(with("design", "tdram")),
              "manifest value out of range: design=tdram");
    EXPECT_EQ(refusal(with("dcache.pagePolicy", "shut")),
              "manifest value out of range: dcache.pagePolicy=shut");
    EXPECT_EQ(refusal(with("mmChannels", "-1")),
              "manifest value out of range: mmChannels=-1");
    EXPECT_EQ(refusal(with("replay.mode", "slow")),
              "manifest value out of range: replay.mode=slow");
    // Within the type but outside the field's range.
    EXPECT_EQ(refusal(with("dcache.channels", "3")),
              "dcache.channels is 3: not a power of two");
    EXPECT_EQ(refusal(with("dcache.rowBytes", "32")),
              "dcache.rowBytes is 32: below 64");
}

TEST(Validate, ReportsEveryBadFieldByKey)
{
    EXPECT_TRUE(validate(SystemConfig{}).empty());

    SystemConfig cfg;
    cfg.dcache.channels = 3;
    cfg.dcache.ways = 3;
    cfg.cores.mlp = 0;
    EXPECT_EQ(validate(cfg),
              (std::vector<std::string>{
                  "dcache.channels is 3: not a power of two",
                  "dcache.capacityBytes is 16777216: not a power-of-two "
                  "number of dcache.ways=3-way sets",
                  "cores.mlp is 0: no core could issue a DRAM-cache "
                  "read"}));

    // A replayed trace needs no ops per core; the device rules hold.
    cfg = SystemConfig{};
    cfg.replay.path = "run.tdtz";
    cfg.cores.opsPerCore = 0;
    cfg.dcache.flushEntries = 0;
    cfg.dcache.rowBytes = 32;
    EXPECT_EQ(validate(cfg),
              (std::vector<std::string>{
                  "dcache.rowBytes is 32: below 64",
                  "dcache.flushEntries is 0, but TDRAM's device has a "
                  "flush buffer"}));
}

TEST(Validate, NamesTheDeviceGeometryRules)
{
    SystemConfig cfg;
    cfg.dcache.channels = 2048;
    EXPECT_EQ(validate(cfg),
              (std::vector<std::string>{
                  "dcache.channels is 2048: with dcache.banks=16 and "
                  "dcache.rowBytes=1024, dcache.capacityBytes=16777216 "
                  "leaves no row per bank"}));

    // Banshee's page rules bind Banshee only.
    cfg = SystemConfig{};
    cfg.dcache.channels = 128;
    cfg.dcache.banks = 4;
    cfg.dcache.capacityBytes = 1 << 20;
    cfg.dcache.ways = 512;
    EXPECT_TRUE(validate(cfg).empty());
    cfg.design = Design::Banshee;
    EXPECT_EQ(validate(cfg),
              (std::vector<std::string>{
                  "dcache.channels is 128: Banshee's dcache.pageBytes=4096 "
                  "does not split into whole lines over them",
                  "dcache.pageBytes is 4096: Banshee's "
                  "dcache.capacityBytes=1048576 is not a power-of-two "
                  "number of dcache.ways=512-way sets of pages"}));
}

TEST(TraceManifest, AuditRefusesATraceItsManifestDoesNotDescribe)
{
    TraceFile t;
    t.header.channels = 3;  // the default layout needs 8 + 2 + 1
    t.manifest = traceManifest(SystemConfig{});
    CheckReport rep = checkTrace(t);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.error, "trace has 3 channels but its manifest "
                         "describes 11 (8 dcache + 2 mm + 1 demand)");

    t.manifest.clear();
    rep = checkTrace(t);
    EXPECT_EQ(rep.error, "the trace has no manifest");
}

TEST(CheckRules, TableIsWellFormed)
{
    const auto &rules = checkRules();
    ASSERT_GE(rules.size(), 12u);
    for (const CheckRuleInfo &r : rules) {
        EXPECT_NE(findCheckRule(r.id), nullptr) << r.id;
        EXPECT_GT(std::string(r.summary).size(), 0u) << r.id;
    }
    EXPECT_EQ(findCheckRule("no-such-rule"), nullptr);
}

/**
 * Real-channel violation injection: drive a DramChannel built with
 * RELAXED timing while the inline checker audits against the STRICT
 * table. The channel schedules legally for its own (relaxed)
 * parameters, so the commands it emits violate exactly the loosened
 * constraint — the inline analogue of a timing bug in the scheduler.
 */
class RelaxedChannel
{
  public:
    static constexpr std::uint64_t kCap = 1ULL << 20;

    RelaxedChannel(const ChannelConfig &relaxed,
                   const ChannelConfig &strict)
        : _map(kCap, 1, relaxed.banks, 1024),
          _chan(_eq, "chx", relaxed, _map), _banks(relaxed.banks)
    {
        _chan.checker = &_checker;
        _chan.checkChannel = _checker.addChannel(strict);
        _chan.peekTags = [](Addr) {
            TagResult tr;
            tr.hit = true;
            tr.valid = true;
            return tr;
        };
    }

    /** Line address of row @p n in @p bank (line-interleaved map). */
    Addr addrIn(unsigned bank, unsigned n) const
    {
        const std::uint64_t lines_per_row = 1024 / lineBytes;
        return (static_cast<Addr>(bank) +
                static_cast<Addr>(_banks) * lines_per_row * n) *
               lineBytes;
    }

    void read(Addr a)
    {
        ChanReq req;
        req.id = _nextId++;
        req.addr = a;
        req.op = ChanOp::Read;
        req.isDemandRead = true;
        _chan.enqueue(std::move(req));
    }

    void readAt(Tick when, Addr a)
    {
        _eq.schedule(when, [this, a] { read(a); });
    }

    void drainEvents()
    {
        while (_eq.step()) {
        }
        _checker.finish();
    }

    /**
     * Bounded drain for refresh-enabled channels, whose periodic
     * refresh events keep the queue non-empty forever.
     */
    void drainEventsUntil(Tick limit)
    {
        _eq.run(limit);
        _checker.finish();
    }

    const ProtocolChecker &checker() const { return _checker; }

  private:
    EventQueue _eq;
    AddressMap _map;
    ProtocolChecker _checker;
    DramChannel _chan;
    unsigned _banks;
    std::uint64_t _nextId = 1;
};

bool
sawRule(const ProtocolChecker &chk, const std::string &rule)
{
    for (const CheckViolation &v : chk.violations()) {
        if (rule == v.rule)
            return true;
    }
    return false;
}

ChannelConfig
conventionalCfg()
{
    ChannelConfig cfg;
    cfg.timing = hbm3CacheTimings();
    cfg.banks = 8;
    cfg.refreshEnabled = false;
    return cfg;
}

TEST(CheckMutation, RelaxedActSpacingIsFlagged)
{
    // Consecutive reads are serialized by the DQ burst as well as
    // tRRD, so shrinking tRRD alone is masked by the (equal) burst
    // spacing; shrink both so activates really issue 500 ps closer
    // than the strict table allows.
    ChannelConfig relaxed = conventionalCfg();
    relaxed.timing.tRRD -= nsToTicks(0.5);
    relaxed.timing.burstScale = 0.75;
    const ChannelConfig strict = conventionalCfg();
    RelaxedChannel h(relaxed, strict);
    for (unsigned b = 0; b < 4; ++b)
        h.read(h.addrIn(b, 0));
    h.drainEvents();
    EXPECT_FALSE(h.checker().ok());
    EXPECT_TRUE(sawRule(h.checker(), "act-to-act"));
}

TEST(CheckMutation, RelaxedTrasIsFlagged)
{
    ChannelConfig relaxed = conventionalCfg();
    relaxed.timing.tRAS -= 1;  // shortens readBankBusy by 1 tick
    const ChannelConfig strict = conventionalCfg();
    RelaxedChannel h(relaxed, strict);
    h.read(h.addrIn(0, 0));
    h.read(h.addrIn(0, 1));  // same bank: back-to-back bank cycle
    h.drainEvents();
    EXPECT_FALSE(h.checker().ok());
    EXPECT_TRUE(sawRule(h.checker(), "bank-busy"));
}

TEST(CheckMutation, RelaxedTxawIsFlagged)
{
    ChannelConfig relaxed = conventionalCfg();
    // Keep tRRD legal but shrink the four-ACT window: the fifth ACT
    // (a distinct bank, so no bank-cycle constraint interferes)
    // issues one tick inside the strict tXAW.
    relaxed.timing.tXAW -= 1;
    const ChannelConfig strict = conventionalCfg();
    RelaxedChannel h(relaxed, strict);
    for (unsigned b = 0; b < 8; ++b)
        h.read(h.addrIn(b, 0));
    h.drainEvents();
    EXPECT_FALSE(h.checker().ok());
    EXPECT_TRUE(sawRule(h.checker(), "four-act-window"));
}

TEST(CheckMutation, RelaxedRefreshWindowIsFlagged)
{
    ChannelConfig relaxed = conventionalCfg();
    relaxed.refreshEnabled = true;
    // The relaxed device believes refresh completes 2 ns early and
    // resumes CA traffic inside the strict tRFC window.
    relaxed.timing.tRFC -= nsToTicks(2);
    ChannelConfig strict = conventionalCfg();
    strict.refreshEnabled = true;
    RelaxedChannel h(relaxed, strict);

    // Demand arriving inside the first refresh window (at tREFI) is
    // held until the relaxed device's window ends — 2 ns inside the
    // strict one.
    const Tick refi = strict.timing.tREFI;
    for (unsigned n = 0; n < 4; ++n)
        h.readAt(refi + nsToTicks(100), h.addrIn(n, 1));
    h.drainEventsUntil(2 * refi);
    EXPECT_FALSE(h.checker().ok());
    EXPECT_TRUE(sawRule(h.checker(), "refresh-quiet"));
}

} // namespace
} // namespace tsim
