/**
 * @file
 * Protocol-checker integration tests (DESIGN.md §11): unmodified runs
 * of every device kind and page policy report zero violations (inline
 * mode), offline audits of the recorded traces agree with the inline
 * result, and a channel driven with deliberately relaxed timing
 * against a strict rule table is flagged.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "check/check.hh"
#include "check/offline.hh"
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

SystemConfig
checkedCfg(Design design, PagePolicy policy)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.dcacheCapacity = 4ULL << 20;
    cfg.dcachePagePolicy = policy;
    cfg.cores.cores = 2;
    cfg.cores.opsPerCore = 1500;
    cfg.cores.llcBytes = 256 * 1024;
    cfg.warmupOpsPerCore = 10000;
    cfg.checkProtocol = true;
    return cfg;
}

std::string
offlineDeviceOf(Design design)
{
    switch (design) {
      case Design::Tdram: return "tdram";
      case Design::TdramNoProbe: return "tdram-noprobe";
      case Design::Ndc: return "ndc";
      case Design::CascadeLake: return "cl";
      case Design::Alloy: return "alloy";
      case Design::Bear: return "bear";
      case Design::TicToc: return "tictoc";
      case Design::Banshee: return "banshee";
      default: return "";
    }
}

class CleanRun
    : public ::testing::TestWithParam<std::tuple<Design, PagePolicy>>
{
};

TEST_P(CleanRun, ReportsZeroViolationsInlineAndOffline)
{
    const auto [design, policy] = GetParam();
    SystemConfig cfg = checkedCfg(design, policy);
    const std::string trace_path =
        tmpPath(std::string("check_clean_") + designName(design) +
                (policy == PagePolicy::Open ? "_open" : "_close") +
                ".tdt");
    cfg.tracePath = trace_path;

    System sys(cfg, findWorkload("is.C"));
    const SimReport r = sys.run();

    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_GT(r.checkEvents, 0u);
    ASSERT_EQ(r.checkViolations, 0u)
        << ProtocolChecker::formatViolation(
               sys.checker()->violations().front());

    // The same stream audited offline through the device preset must
    // agree: zero violations over the same number of events.
    TraceLoadResult res = loadTrace(trace_path);
    ASSERT_TRUE(res.ok) << res.error;
    OfflineCheckOptions opts;
    opts.device = offlineDeviceOf(design);
    opts.openPage = policy == PagePolicy::Open;
    opts.channels = cfg.dcacheChannels;
    opts.mmChannels = cfg.mmChannels;
    CheckReport rep = checkTrace(res.trace, opts);
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    ASSERT_TRUE(rep.ok)
        << ProtocolChecker::formatViolation(rep.violations.front());
    EXPECT_EQ(rep.events, r.checkEvents);
    EXPECT_EQ(rep.violationCount, 0u);
}

std::string
cleanRunName(
    const ::testing::TestParamInfo<std::tuple<Design, PagePolicy>> &info)
{
    std::string name = designName(std::get<0>(info.param));
    name += std::get<1>(info.param) == PagePolicy::Open ? "Open"
                                                        : "Close";
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDevicesAndPolicies, CleanRun,
    ::testing::Combine(::testing::Values(Design::Tdram,
                                         Design::CascadeLake,
                                         Design::Ndc, Design::Alloy,
                                         Design::TicToc,
                                         Design::Banshee),
                       ::testing::Values(PagePolicy::Close,
                                         PagePolicy::Open)),
    cleanRunName);

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
                   const CheckerConfig &strict)
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
    CheckerConfig strict = checkerConfigOf(conventionalCfg());
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
    CheckerConfig strict = checkerConfigOf(conventionalCfg());
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
    CheckerConfig strict = checkerConfigOf(conventionalCfg());
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
    ChannelConfig strict_chan = conventionalCfg();
    strict_chan.refreshEnabled = true;
    CheckerConfig strict = checkerConfigOf(strict_chan);
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
