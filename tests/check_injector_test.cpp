/**
 * @file
 * Violation-injection matrix (DESIGN.md §11): for every rule in the
 * checker's table, a synthetic protocol-legal stream audits clean,
 * and a single-field perturbation (±1 tick, one flipped bit, one
 * dropped record) is flagged under exactly the breached rule's name.
 * A coverage test pins the matrix to checkRules(): adding a rule
 * without an injection fails the suite.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <ostream>
#include <set>
#include <string>

#include "check_injector.hh"
#include "dcache/dram_cache.hh"

namespace tsim
{
namespace
{

// The real devices come from the one device description; only the
// synthetic variants below edit a field by hand.
ChannelConfig
convCfg()
{
    return dcacheChannelConfig(Design::CascadeLake, DramCacheConfig{});
}

ChannelConfig
openCfg()
{
    DramCacheConfig dc;
    dc.pagePolicy = PagePolicy::Open;
    return dcacheChannelConfig(Design::CascadeLake, dc);
}

ChannelConfig
tdramCfg()
{
    return dcacheChannelConfig(Design::Tdram, DramCacheConfig{});
}

ChannelConfig
noProbeCfg()
{
    return dcacheChannelConfig(Design::TdramNoProbe, DramCacheConfig{});
}

/** A TDRAM device that cannot unload its flush buffer on its own. */
ChannelConfig
noDrainCfg()
{
    ChannelConfig c = tdramCfg();
    c.opportunisticDrain = false;
    return c;
}

/** Banshee with two fill writes per channel per group. */
ChannelConfig
bansheeCfg()
{
    ChannelConfig c =
        dcacheChannelConfig(Design::Banshee, DramCacheConfig{});
    c.fillGroupLines = 2;
    return c;
}

/**
 * One injection: a legal baseline stream and a minimal perturbation
 * whose audit must name @c rule. Captureless lambdas keep each case
 * to a handful of lines.
 */
struct Injection
{
    const char *name;
    const char *rule;
    ChannelConfig (*config)();  ///< null: the demand-only buffer
    void (*build)(CheckStream &);
    void (*mutate)(CheckStream &);
};

// Test listings print the case name, not the struct's raw bytes: those
// hold string pointers that move with the binary layout, so the listed
// test names would not be stable.
void
PrintTo(const Injection &inj, std::ostream *os)
{
    *os << inj.name;
}

const Injection kInjections[] = {
    {"CaSlotProbeCollision", "ca-slot", tdramCfg,
     [](CheckStream &s) {
         s.probe(0, 0);
         s.probe(hmBusOccupancy, 1);
     },
     [](CheckStream &s) {
         // Second probe lands inside the first command clock.
         const Tick shift = hmBusOccupancy - s.timing().clkPeriod + 1;
         s.records()[2].tick -= shift;
         s.records()[3].tick -= shift;
     }},
    {"ActToActOneTickEarly", "act-to-act", convCfg,
     [](CheckStream &s) {
         s.read(0, 0);
         s.read(s.timing().tRRD, 1);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"FifthActInsideTxaw", "four-act-window", convCfg,
     [](CheckStream &s) {
         for (unsigned b = 0; b < 5; ++b)
             s.read(Tick(b) * 2 * s.timing().tRRD, b);
         s.records()[4].tick = s.timing().tXAW;
     },
     [](CheckStream &s) { s.records()[4].tick -= 1; }},
    {"ReadBankCycleOneTickShort", "bank-busy", convCfg,
     [](CheckStream &s) {
         s.read(0, 0);
         s.read(s.timing().readBankBusy(), 0);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"WriteBankCycleOneTickShort", "bank-busy", convCfg,
     [](CheckStream &s) {
         s.write(0, 0);
         s.write(s.timing().writeBankBusy(), 0);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"RowHitBurstInsideCcd", "col-to-col", openCfg,
     [](CheckStream &s) {
         s.read(0, 0);
         s.read(s.timing().tCCD_L, 0, 1);  // open-row hit, no ACT
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"TagMatCycleOneTickShort", "tag-cycle", tdramCfg,
     [](CheckStream &s) {
         s.actRd(0, 0, true, true, false);
         s.probe(s.timing().tRC_TAG, 0);
     },
     [](CheckStream &s) {
         s.records()[2].tick -= 1;
         s.records()[3].tick -= 1;
     }},
    {"HmSlotOverlap", "hm-occupancy", tdramCfg,
     [](CheckStream &s) {
         s.probe(0, 0);
         s.probe(hmBusOccupancy, 1);
     },
     [](CheckStream &s) {
         s.records()[2].tick -= 1;
         s.records()[3].tick -= 1;
     }},
    {"DroppedHmResult", "hm-lockstep", tdramCfg,
     [](CheckStream &s) {
         s.actRd(0, 0, true, true, false);
         s.read(s.timing().readBankBusy(), 0);
     },
     [](CheckStream &s) {
         s.records().erase(s.records().begin() + 1);
     }},
    {"HmResultOneTickLate", "hm-latency", tdramCfg,
     [](CheckStream &s) { s.actRd(0, 0, true, true, false); },
     [](CheckStream &s) {
         s.records()[1].tick += 1;
         s.records()[1].aux += 1;
     }},
    {"SuppressedBurstOnHit", "conditional-column", tdramCfg,
     [](CheckStream &s) { s.actRd(0, 0, true, true, false); },
     [](CheckStream &s) { s.records()[0].extra &= ~16u; }},
    {"RefreshDurationOneTickShort", "refresh-period", convCfg,
     [](CheckStream &s) {
         s.refresh(s.timing().tREFI);
         s.refresh(2 * s.timing().tREFI);
     },
     [](CheckStream &s) { s.records()[0].aux -= 1; }},
    {"RefreshCadenceOneTickLate", "refresh-period", convCfg,
     [](CheckStream &s) {
         s.refresh(s.timing().tREFI);
         s.refresh(2 * s.timing().tREFI);
     },
     [](CheckStream &s) { s.records()[1].tick += 1; }},
    {"CommandInsideRefreshWindow", "refresh-quiet", convCfg,
     [](CheckStream &s) {
         s.refresh(s.timing().tREFI);
         s.read(s.timing().tREFI + s.timing().tRFC, 0);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"BurstOverlapOneTick", "dq-overlap", convCfg,
     [](CheckStream &s) {
         s.read(0, 0);
         s.read(s.timing().tRRD, 1);
     },
     [](CheckStream &s) { s.records()[1].aux -= 1; }},
    {"TurnaroundOneTickShort", "dq-turnaround", convCfg,
     [](CheckStream &s) {
         s.read(0, 0);
         // Earliest legal write start: read data end + tRTW.
         const Tick start_lat = s.writeAux() - s.timing().dataBurst();
         s.write(s.readAux() + s.timing().tRTW - start_lat, 1);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"FlushDepthOverCapacity", "flush-capacity", tdramCfg,
     [](CheckStream &s) {
         s.push(TraceKind::FlushPush, 0, CheckStream::addrOf(0), 0, 16,
                0);
     },
     [](CheckStream &s) { s.records()[0].aux = 17; }},
    {"OpportunisticDrainUnsupported", "drain-cause", noDrainCfg,
     [](CheckStream &s) {
         s.push(TraceKind::FlushDrain, s.timing().dataBurst(),
                CheckStream::addrOf(0), 0, 3,
                static_cast<std::uint32_t>(DrainCause::Forced));
     },
     [](CheckStream &s) {
         s.records()[0].extra =
             static_cast<std::uint32_t>(DrainCause::MissClean);
     }},
    {"DrainMissesIdleSlot", "drain-miss-clean", tdramCfg,
     [](CheckStream &s) {
         s.actRd(0, 0, false, true, false);  // miss-clean: suppressed
         s.push(TraceKind::FlushDrain, s.readAux(),
                CheckStream::addrOf(0), 0, 2,
                static_cast<std::uint32_t>(DrainCause::MissClean));
     },
     [](CheckStream &s) { s.records()[2].tick += 1; }},
    {"DrainOutsideRefreshWindow", "drain-refresh", tdramCfg,
     [](CheckStream &s) {
         s.refresh(s.timing().tREFI);
         s.push(TraceKind::FlushDrain,
                s.timing().tREFI + s.timing().tBURST,
                CheckStream::addrOf(0), 0, 2,
                static_cast<std::uint32_t>(DrainCause::Refresh));
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"ProbeOnProbelessDevice", "probe-disabled", noProbeCfg,
     [](CheckStream &s) { s.actRd(0, 0, true, true, false); },
     [](CheckStream &s) { s.probe(2 * s.timing().clkPeriod, 1); }},
    {"ResponseWithoutStart", "demand-pairing", nullptr,
     [](CheckStream &s) {
         s.push(TraceKind::DemandStart, 0, 64, traceBankNone, 0, 0);
         s.push(TraceKind::DemandDone, 50000, 64, traceBankNone, 50000,
                0);
     },
     [](CheckStream &s) { s.records()[1].aux -= 1; }},
    {"IssueTickRunsBackwards", "monotonic-issue", tdramCfg,
     [](CheckStream &s) {
         s.read(5000, 0);
         s.push(TraceKind::FlushPush, 5000, CheckStream::addrOf(0), 0,
                1, 0);
     },
     [](CheckStream &s) { s.records()[1].tick -= 1; }},
    {"DataDoneShorterThanBurst", "record-sane", convCfg,
     [](CheckStream &s) { s.read(0, 0); },
     [](CheckStream &s) {
         s.records()[0].aux = s.timing().dataBurst() - 1;
     }},
    {"FillGroupOneWriteShort", "page-fill-lockstep", bansheeCfg,
     [](CheckStream &s) {
         s.remap(0, 0x10000, 0, false, 0);
         s.fillWrite(0, 0, 0x10000, 0);
         s.fillWrite(s.timing().tRRD, 1, 0x10040, 0);
     },
     [](CheckStream &s) { s.records().pop_back(); }},
    {"FillWriteGroupMismatch", "page-fill-lockstep", bansheeCfg,
     [](CheckStream &s) {
         s.remap(0, 0x10000, 0, false, 0);
         s.fillWrite(0, 0, 0x10000, 0);
         s.fillWrite(s.timing().tRRD, 1, 0x10040, 0);
     },
     [](CheckStream &s) {
         s.records()[2].extra ^= 1u << traceGroupShift;
     }},
    {"FillWriteOutsideInstalledPage", "remap-consistency", bansheeCfg,
     [](CheckStream &s) {
         s.remap(0, 0x10000, 0, false, 0);
         s.fillWrite(0, 0, 0x10000, 0);
         s.fillWrite(s.timing().tRRD, 1, 0x10040, 0);
     },
     [](CheckStream &s) { s.records()[2].addr += 0x1000; }},
    {"RemapReinstallsMappedPage", "remap-consistency", bansheeCfg,
     [](CheckStream &s) {
         s.remap(0, 0x10000, 0, false, 0);
         s.fillWrite(0, 0, 0x10000, 0);
         s.fillWrite(s.timing().tRRD, 1, 0x10040, 0);
         s.remap(100000, 0x20000, 0, false, 1);
         s.fillWrite(100000, 0, 0x20000, 1);
         s.fillWrite(100000 + s.timing().tRRD, 1, 0x20040, 1);
     },
     [](CheckStream &s) { s.records()[3].addr = 0x10000; }},
    {"SpillReadOutsideVictimPage", "remap-consistency", bansheeCfg,
     [](CheckStream &s) {
         s.remap(0, 0x10000, 0x30000, true, 0);
         s.spillRead(0, 2, 0x30000, 0);
         s.fillWrite(50000, 0, 0x10000, 0);
         s.fillWrite(50000 + s.timing().tRRD, 1, 0x10040, 0);
     },
     [](CheckStream &s) { s.records()[1].addr += 0x1000; }},
};

class InjectionMatrix : public ::testing::TestWithParam<Injection>
{
};

TEST_P(InjectionMatrix, BaselineCleanMutationFlagged)
{
    const Injection &inj = GetParam();
    ASSERT_NE(findCheckRule(inj.rule), nullptr) << inj.rule;

    const auto cfg = inj.config ? std::optional(inj.config())
                                : std::nullopt;
    CheckStream clean(cfg);
    inj.build(clean);
    const AuditResult base = clean.audit();
    ASSERT_TRUE(base.clean())
        << "baseline must be protocol-legal:\n" << base.describe();

    CheckStream bad(cfg);
    inj.build(bad);
    inj.mutate(bad);
    const AuditResult hit = bad.audit();
    EXPECT_FALSE(hit.clean()) << "mutation escaped the checker";
    EXPECT_TRUE(hit.saw(inj.rule))
        << "expected rule '" << inj.rule << "', got:\n"
        << hit.describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, InjectionMatrix, ::testing::ValuesIn(kInjections),
    [](const ::testing::TestParamInfo<Injection> &pi) {
        return std::string(pi.param.name);
    });

TEST(InjectionMatrix, CoversEveryRule)
{
    std::set<std::string> injected;
    for (const Injection &inj : kInjections)
        injected.insert(inj.rule);
    for (const CheckRuleInfo &r : checkRules()) {
        EXPECT_TRUE(injected.count(r.id))
            << "rule '" << r.id << "' has no injection case";
    }
    EXPECT_GE(std::size(kInjections), 12u);
}

} // namespace
} // namespace tsim
