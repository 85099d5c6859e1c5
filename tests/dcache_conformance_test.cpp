/**
 * @file
 * Cross-policy conformance harness (DESIGN.md §16): every DRAM-cache
 * controller kind — the paper's designs and the competitor
 * controllers (TicToc, Banshee) alike — runs the same scenario
 * matrix (demand hits, misses, dirty evictions, and Banshee's
 * page-grain spills, under both page policies) and must come out:
 *
 *  - checker-clean: zero inline protocol violations over a non-empty
 *    event stream;
 *  - byte-identical: rerunning the same configuration on another host
 *    thread (as SweepRunner's workers do) reproduces the stats dump
 *    and the .tdt trace exactly;
 *  - policy-conformant: TicToc never issues a clean writeback (its
 *    main-memory write count equals its write-miss-over-dirty-victim
 *    count exactly), and Banshee's fill count matches the remap
 *    table's churn (installs) with evictions never exceeding them.
 *
 * The matrix is deliberately cheap per cell so the whole grid runs
 * in the tier-1 suite; the default-engine golden matrix
 * (tests/check_default_engine.sh) pins the same designs end-to-end
 * through the CLI against committed digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dcache/banshee.hh"
#include "dcache/dram_cache.hh"
#include "system/system.hh"

namespace tsim
{
namespace
{

const Design kAllKinds[] = {
    Design::CascadeLake, Design::Alloy,  Design::Bear,
    Design::Ndc,         Design::Tdram,  Design::TdramNoProbe,
    Design::Ideal,       Design::NoCache, Design::TicToc,
    Design::Banshee,
};

SystemConfig
conformanceCfg(Design design, PagePolicy policy)
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
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Everything one run of the matrix leaves behind. */
struct RunOutput
{
    SimReport report;
    std::string stats;       ///< full dumpStats() rendering
    std::string trace;       ///< raw .tdt bytes
    std::uint64_t outcome[static_cast<unsigned>(
        AccessOutcome::NumOutcomes)] = {};
    std::uint64_t mmReads = 0;
    std::uint64_t mmWrites = 0;

    // Banshee-only remap-table churn.
    std::uint64_t pageFills = 0;
    std::uint64_t remapInstalls = 0;
    std::uint64_t remapEvictions = 0;
    std::uint64_t spilledLines = 0;

    std::uint64_t
    hits() const
    {
        std::uint64_t n = 0;
        for (unsigned o = 0;
             o < static_cast<unsigned>(AccessOutcome::NumOutcomes);
             ++o) {
            if (outcomeIsHit(static_cast<AccessOutcome>(o)))
                n += outcome[o];
        }
        return n;
    }

    std::uint64_t
    misses() const
    {
        std::uint64_t n = 0;
        for (unsigned o = 0;
             o < static_cast<unsigned>(AccessOutcome::NumOutcomes);
             ++o) {
            if (!outcomeIsHit(static_cast<AccessOutcome>(o)))
                n += outcome[o];
        }
        return n;
    }

    std::uint64_t
    dirtyVictimMisses() const
    {
        return outcome[static_cast<unsigned>(
                   AccessOutcome::ReadMissDirty)] +
               outcome[static_cast<unsigned>(
                   AccessOutcome::WriteMissDirty)];
    }
};

RunOutput
runCase(Design design, PagePolicy policy, const std::string &tag)
{
    SystemConfig cfg = conformanceCfg(design, policy);
    const std::string trace_path =
        ::testing::TempDir() + "conformance_" + designName(design) +
        (policy == PagePolicy::Open ? "_open_" : "_close_") + tag +
        ".tdt";
    cfg.tracePath = trace_path;

    RunOutput out;
    {
        // is.D: 6x-capacity random footprint at 50% writes — the one
        // profile that exercises every matrix scenario (hits, misses
        // over clean/dirty/invalid victims, and enough page reuse
        // contrast for Banshee fills and spills) on every design.
        System sys(cfg, findWorkload("is.D"));
        out.report = sys.run();
        std::ostringstream ss;
        sys.dumpStats(ss);
        out.stats = ss.str();
        for (unsigned o = 0;
             o < static_cast<unsigned>(AccessOutcome::NumOutcomes);
             ++o) {
            out.outcome[o] = sys.dcache().outcomeCount(
                static_cast<AccessOutcome>(o));
        }
        out.mmReads = static_cast<std::uint64_t>(
            sys.mainMemory().reads.value());
        out.mmWrites = static_cast<std::uint64_t>(
            sys.mainMemory().writes.value());
        if (auto *b = dynamic_cast<BansheeCtrl *>(&sys.dcache())) {
            out.pageFills =
                static_cast<std::uint64_t>(b->pageFills.value());
            out.spilledLines =
                static_cast<std::uint64_t>(b->spilledLines.value());
            out.remapInstalls = static_cast<std::uint64_t>(
                b->remapTable().installs.value());
            out.remapEvictions = static_cast<std::uint64_t>(
                b->remapTable().evictions.value());
        }
    }
    out.trace = slurp(trace_path);
    return out;
}

class Conformance
    : public ::testing::TestWithParam<std::tuple<Design, PagePolicy>>
{
};

TEST_P(Conformance, CheckerCleanAndByteIdenticalAcrossThreads)
{
    const auto [design, policy] = GetParam();

    // Once on the test's thread, once on a fresh worker thread: a run
    // must not depend on which host thread executes it.
    const RunOutput a = runCase(design, policy, "a");
    RunOutput worker_out;
    std::thread worker(
        [&] { worker_out = runCase(design, policy, "b"); });
    worker.join();
    const RunOutput &b = worker_out;

    // Checker-clean on both runs, over a non-empty stream.
    for (const RunOutput *r : {&a, &b}) {
        EXPECT_GT(r->report.checkEvents, 0u);
        EXPECT_EQ(r->report.checkViolations, 0u);
    }

    // Byte-identical rerun on the worker thread.
    ASSERT_FALSE(a.trace.empty());
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_TRUE(a.trace == b.trace)
        << "rerun on a worker thread produced a different trace";

    // The scenario matrix actually exercised its scenarios.
    EXPECT_GT(a.report.demandReads, 0u);
    EXPECT_GT(a.report.demandWrites, 0u);
    if (design != Design::NoCache) {
        EXPECT_GT(a.hits(), 0u);
    }
    if (design != Design::NoCache && design != Design::Ideal) {
        EXPECT_GT(a.misses(), 0u);
        EXPECT_GT(a.dirtyVictimMisses(), 0u)
            << "matrix never evicted a dirty victim";
    }
    if (design == Design::Banshee) {
        EXPECT_GT(a.pageFills, 0u)
            << "matrix never triggered a page fill";
    }
}

std::string
conformanceName(
    const ::testing::TestParamInfo<std::tuple<Design, PagePolicy>> &i)
{
    std::string name = designName(std::get<0>(i.param));
    // designName() can contain '-' (TDRAM-noprobe); gtest parameter
    // names must be alphanumeric.
    name.erase(std::remove_if(name.begin(), name.end(),
                              [](unsigned char ch) {
                                  return !std::isalnum(ch);
                              }),
               name.end());
    name +=
        std::get<1>(i.param) == PagePolicy::Open ? "Open" : "Close";
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, Conformance,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(PagePolicy::Close,
                                         PagePolicy::Open)),
    conformanceName);

class ConformancePolicy
    : public ::testing::TestWithParam<PagePolicy>
{
};

TEST_P(ConformancePolicy, TicTocNeverIssuesCleanWriteback)
{
    // TicToc's whole point: the only main-memory writes are dirty
    // victims displaced by demand writes (read misses over a dirty
    // victim bypass, leaving the victim resident). Any extra mm
    // write would be a clean writeback the policy forbids.
    const RunOutput r = runCase(Design::TicToc, GetParam(), "tt");
    EXPECT_EQ(r.mmWrites,
              r.outcome[static_cast<unsigned>(
                  AccessOutcome::WriteMissDirty)]);
}

TEST_P(ConformancePolicy, BansheeFillCountMatchesRemapChurn)
{
    // Every timed page fill is a remap-table install and vice versa;
    // evictions can only come from installs into full sets.
    const RunOutput r = runCase(Design::Banshee, GetParam(), "bs");
    EXPECT_GT(r.pageFills, 0u);
    EXPECT_EQ(r.pageFills, r.remapInstalls);
    EXPECT_LE(r.remapEvictions, r.remapInstalls);
    // Spilled lines only exist as part of a fill's victim eviction.
    if (r.remapEvictions == 0) {
        EXPECT_EQ(r.spilledLines, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, ConformancePolicy,
                         ::testing::Values(PagePolicy::Close,
                                           PagePolicy::Open),
                         [](const ::testing::TestParamInfo<PagePolicy>
                                &i) {
                             return i.param == PagePolicy::Open
                                        ? "Open"
                                        : "Close";
                         });

} // namespace
} // namespace tsim
