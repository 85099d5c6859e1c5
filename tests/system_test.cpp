/**
 * @file
 * System-level API tests: configuration plumbing, report
 * consistency, stat dumping, and the geomean helper.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "system/system.hh"

namespace tsim
{
namespace
{

SystemConfig
tinyCfg(Design d)
{
    SystemConfig cfg;
    cfg.design = d;
    cfg.dcache.capacityBytes = 2ULL << 20;
    cfg.cores.cores = 2;
    cfg.cores.opsPerCore = 1500;
    cfg.cores.llcBytes = 256 * 1024;
    cfg.warmupOpsPerCore = 5000;
    return cfg;
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({8.0}), 8.0);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(System, ReportFieldsConsistent)
{
    const SystemConfig cfg = tinyCfg(Design::Tdram);
    System sys(cfg, findWorkload("is.C"));
    const SimReport r = sys.run();
    EXPECT_EQ(r.design, "TDRAM");
    EXPECT_EQ(r.workload, "is.C");
    EXPECT_FALSE(r.highMiss);
    EXPECT_GT(r.runtimeTicks, 0u);
    EXPECT_DOUBLE_EQ(r.runtimeNs(), ticksToNs(r.runtimeTicks));
    EXPECT_GE(r.missRatio, 0.0);
    EXPECT_LE(r.missRatio, 1.0);
    EXPECT_GE(r.bloat, 1.0);
    EXPECT_GE(r.unusefulFrac, 0.0);
    EXPECT_LE(r.unusefulFrac, 1.0);
    EXPECT_GT(r.energy.totalJ(), 0.0);

    // The SRAM stats count the measured phase only: every L1 access
    // is a measured op, every L1 miss or writeback is one LLC access,
    // and every LLC writeback is one write demand.
    CoreEngine &core = *sys.coreEngine();
    double l1_accesses = 0;
    double l1_to_llc = 0;
    for (unsigned c = 0; c < cfg.cores.cores; ++c) {
        const SramCache &l1 = core.l1(c);
        l1_accesses += l1.hits.value() + l1.misses.value();
        l1_to_llc += l1.misses.value() + l1.writebacks.value();
    }
    const SramCache &llc = core.llc();
    EXPECT_EQ(l1_accesses,
              static_cast<double>(cfg.cores.cores * cfg.cores.opsPerCore));
    EXPECT_EQ(l1_to_llc, llc.hits.value() + llc.misses.value());
    EXPECT_EQ(llc.writebacks.value(), core.demandWritesIssued.value());
}

TEST(System, PredictorAccuracyAbsentWithoutPredictor)
{
    // A controller that never ran a predictor must report the metric
    // as absent — JSON null — not as a misleading 0.0 accuracy.
    SimReport r = runOne(tinyCfg(Design::CascadeLake),
                         findWorkload("is.C"));
    EXPECT_FALSE(r.predictorPresent);
    EXPECT_NE(reportJson(r).find("\"predictor_accuracy\": null"),
              std::string::npos);

    SystemConfig cfg = tinyCfg(Design::CascadeLake);
    cfg.dcache.predictor = true;
    SimReport p = runOne(cfg, findWorkload("is.C"));
    EXPECT_TRUE(p.predictorPresent);
    EXPECT_GT(p.predictorAccuracy, 0.0);
    EXPECT_EQ(reportJson(p).find("\"predictor_accuracy\": null"),
              std::string::npos);
    EXPECT_NE(reportJson(p).find("\"predictor_accuracy\": "),
              std::string::npos);
}

TEST(System, MainMemorySizedToFootprint)
{
    // A >1x-footprint workload forces the backing store to grow.
    SystemConfig cfg = tinyCfg(Design::NoCache);
    System sys(cfg, findWorkload("ft.D"));
    const std::uint64_t space =
        physicalSpaceBytes(findWorkload("ft.D"), cfg.dcache.capacityBytes);
    // Every generated address must be within main memory; run a bit.
    SimReport r = sys.run();
    EXPECT_GT(r.runtimeTicks, 0u);
    EXPECT_GE(space, footprintBytes(findWorkload("ft.D"),
                                    cfg.dcache.capacityBytes));
}

TEST(System, DumpStatsProducesOutput)
{
    System sys(tinyCfg(Design::Tdram), findWorkload("bfs.22"));
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("system.demand_reads"), std::string::npos);
    EXPECT_NE(out.find("system.tag_check_latency_ns.mean"),
              std::string::npos);
    EXPECT_NE(out.find("system.llc.hits"), std::string::npos);
}

TEST(System, ConfigurationKnobsReachTheCache)
{
    SystemConfig cfg = tinyCfg(Design::Tdram);
    cfg.dcache.ways = 4;
    cfg.dcache.flushEntries = 8;
    cfg.dcache.prefetchDegree = 2;
    System sys(cfg, findWorkload("is.C"));
    EXPECT_EQ(sys.dcache().tags().ways(), 4u);
    EXPECT_EQ(sys.dcache().channel(0).flushBuffer().capacity(), 8u);
    SimReport r = sys.run();
    (void)r;
    EXPECT_GT(sys.dcache().prefetchIssued.value(), 0.0);
}

TEST(System, DesignsShareTheWorkloadStream)
{
    // Same seed => nearly identical demand counts across designs.
    // (The shared LLC's state depends on cross-core interleaving,
    // which timing perturbs slightly; the stream itself is fixed.)
    SimReport a = runOne(tinyCfg(Design::CascadeLake),
                         findWorkload("bfs.22"));
    SimReport b = runOne(tinyCfg(Design::Tdram), findWorkload("bfs.22"));
    const double da = static_cast<double>(a.demandReads + a.demandWrites);
    const double db = static_cast<double>(b.demandReads + b.demandWrites);
    EXPECT_NEAR(da, db, 0.05 * da);
}

} // namespace
} // namespace tsim
