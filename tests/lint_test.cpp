/**
 * @file
 * Fixture matrix for tdram_lint (tools/tdram_lint).
 *
 * Mirrors the injection matrix in check_injector_test.cpp: every lint
 * rule gets at least one *bad* fixture that must trigger exactly that
 * rule and a *good* twin that must lint clean. A CoversEveryRule pin
 * keeps the matrix honest — adding a rule to the registry without a
 * fixture here fails the build's test suite, exactly like adding a
 * protocol-checker rule without an injection case.
 *
 * Fixtures are inline snippets, not files on disk: lintFile() takes
 * (path, content), and the path drives the scoping tables (hot-path
 * directories, subsystem exemptions), so each fixture picks the
 * repo-relative path that puts it in its rule's scope.
 */

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"

namespace tsim::lint
{
namespace
{

bool
saw(const std::vector<LintFinding> &fs, const std::string &rule)
{
    return std::any_of(fs.begin(), fs.end(), [&](const LintFinding &f) {
        return f.rule == rule;
    });
}

std::string
describe(const std::vector<LintFinding> &fs)
{
    std::string out;
    for (const LintFinding &f : fs)
        out += "  " + formatFinding(f) + "\n";
    return out.empty() ? "  (no findings)\n" : out;
}

/** One rule exercise: a bad snippet and its clean twin. */
struct Fixture
{
    const char *name;      ///< test-case suffix
    const char *rule;      ///< rule the bad snippet must trigger
    const char *badPath;   ///< repo-relative path for the bad snippet
    const char *bad;
    const char *goodPath;  ///< path for the good twin
    const char *good;
};

// Test listings print the case name, not the struct's raw bytes: those
// hold a string pointer that moves with every build and, under ASLR,
// every run, so the listed test names would never be stable.
void
PrintTo(const Fixture &fx, std::ostream *os)
{
    *os << fx.name;
}

const Fixture kFixtures[] = {
    {"SboDefaultRef", "sbo-spill",
     "bench/fix_sbo.cc",
     R"fix(
void wire(Request &r, Pump &pump)
{
    r.onTagResult = [&](Tick t, const TagResult &res) {
        pump.step(t, res);
    };
}
)fix",
     "bench/fix_sbo.cc",
     R"fix(
void Front::wire(Request &r)
{
    r.onTagResult = [this, txn = txn](Tick t, const TagResult &res) {
        step(t, res, txn);
    };
}
)fix"},

    {"SboPoolRefCopy", "sbo-spill",
     "bench/fix_sbo2.cc",
     R"fix(
void wire(Request &r, TxnPtr txn)
{
    r.onDataDone = [txn](Tick t) { txn->complete(t); };
}
)fix",
     "bench/fix_sbo2.cc",
     R"fix(
void wire(Request &r, const TxnPtr &txn)
{
    r.onDataDone = [txn = txn](Tick t) { txn->complete(t); };
}
)fix"},

    {"HotAllocNew", "hot-alloc",
     "src/dram/fix_alloc.cc",
     R"fix(
void pump()
{
    auto *n = new Node(7);
    use(n);
}
)fix",
     "src/dram/fix_alloc.cc",
     R"fix(
void pump()
{
    Node *n = pool.alloc();
    use(n);
}
)fix"},

    {"HotAllocStdFunction", "hot-alloc",
     "src/dram/fix_hooks.cc",
     R"fix(
struct Hooks
{
    std::function<void(int)> onDone;
};
)fix",
     "src/dram/fix_hooks.cc",
     R"fix(
struct Hooks
{
    InlineCallable<void(int), 64> onDone;
};
)fix"},

    {"HotAllocMemCallback", "hot-alloc",
     "src/mem/fix_types.cc",
     R"fix(
using RespCallback = std::function<void(MemPacket &)>;
)fix",
     "src/mem/fix_types.cc",
     R"fix(
using RespCallback = InlineCallable<void(MemPacket &), 16>;
)fix"},

    {"NondetTime", "nondet",
     "src/trace/fix_stamp.cc",
     R"fix(
void stampHeader(Header &hdr)
{
    hdr.created = time(nullptr);
}
)fix",
     "src/trace/fix_stamp.cc",
     R"fix(
void stampHeader(Header &hdr)
{
    hdr.created = curTick();
}
)fix"},

    {"NondetUnorderedIteration", "nondet",
     "src/trace/fix_iter.cc",
     R"fix(
std::unordered_map<int, int> live;

void dumpStats(Out &out)
{
    for (const auto &kv : live)
        out.row(kv.first, kv.second);
}
)fix",
     "src/trace/fix_iter.cc",
     R"fix(
std::map<int, int> live;

void dumpStats(Out &out)
{
    for (const auto &kv : live)
        out.row(kv.first, kv.second);
}
)fix"},

    {"BusDirectRecord", "bus-discipline",
     "src/dcache/fix_bus.cc",
     R"fix(
void publish(TraceBuffer *traceBuf, Addr addr)
{
    traceBuf->record(addr);
}
)fix",
     "src/dcache/fix_bus.cc",
     R"fix(
void publish(Addr addr)
{
    emit(*this, RowOpenEv{addr});
}
)fix"},

    {"GuardMismatch", "include-guard",
     "src/sim/fix_guard.hh",
     R"fix(
#ifndef FIX_GUARD_HH
#define FIX_GUARD_HH
namespace tsim {}
#endif
)fix",
     "src/sim/fix_guard.hh",
     R"fix(
#ifndef TSIM_SIM_FIX_GUARD_HH
#define TSIM_SIM_FIX_GUARD_HH
namespace tsim {}
#endif
)fix"},

    {"AllowStale", "allow-audit",
     "bench/fix_allow.cc",
     R"fix(
void tidy()
{
    // tdram-lint:allow(hot-alloc): leftover rationale from a deleted
    // allocation site.
    int x = 3;
    use(x);
}
)fix",
     "src/workload/fix_allow_ok.cc",
     R"fix(
void pump()
{
    // tdram-lint:allow(hot-alloc): fixture exercises a justified
    // allocation carrying a written rationale.
    auto *n = new Node(7);
    use(n);
}
)fix"},

    {"AllowNoRationale", "allow-audit",
     "bench/fix_allow2.cc",
     R"fix(
void tidy()
{
    // tdram-lint:allow(nondet) because reasons
    int x = 3;
    use(x);
}
)fix",
     "bench/fix_allow2.cc",
     R"fix(
void tidy()
{
    int x = 3;
    use(x);
}
)fix"},
};

class FixtureMatrix : public ::testing::TestWithParam<Fixture>
{
};

TEST_P(FixtureMatrix, BadTriggersExactlyItsRule)
{
    const Fixture &fx = GetParam();
    const auto findings = lintFile(fx.badPath, fx.bad);
    ASSERT_FALSE(findings.empty())
        << "bad fixture escaped the linter:\n" << fx.bad;
    EXPECT_TRUE(saw(findings, fx.rule))
        << "expected rule '" << fx.rule << "', got:\n"
        << describe(findings);
    for (const LintFinding &f : findings) {
        EXPECT_EQ(f.rule, fx.rule)
            << "bad fixture leaked an unrelated finding:\n"
            << describe(findings);
    }
}

TEST_P(FixtureMatrix, GoodTwinLintsClean)
{
    const Fixture &fx = GetParam();
    const auto findings = lintFile(fx.goodPath, fx.good);
    EXPECT_TRUE(findings.empty())
        << "good twin is not clean:\n" << describe(findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, FixtureMatrix, ::testing::ValuesIn(kFixtures),
    [](const ::testing::TestParamInfo<Fixture> &pi) {
        return std::string(pi.param.name);
    });

TEST(FixtureMatrix, CoversEveryRule)
{
    std::set<std::string> exercised;
    for (const Fixture &fx : kFixtures)
        exercised.insert(fx.rule);
    for (const LintRuleInfo &r : lintRules()) {
        EXPECT_TRUE(exercised.count(r.id))
            << "rule '" << r.id << "' has no fixture case";
    }
    EXPECT_GE(std::size(kFixtures), 7u);
}

TEST(LintRules, RegistryIsConsistent)
{
    std::set<std::string> ids;
    for (const LintRuleInfo &r : lintRules()) {
        EXPECT_TRUE(ids.insert(r.id).second)
            << "duplicate rule id '" << r.id << "'";
        EXPECT_NE(std::string(r.summary), "");
        EXPECT_EQ(findLintRule(r.id), &r);
    }
    EXPECT_EQ(findLintRule("no-such-rule"), nullptr);
}

TEST(LintSuppression, InlineAllowCoversItsOwnLine)
{
    const char *src = R"fix(
void pump()
{
    auto *n = new Node(7);  // tdram-lint:allow(hot-alloc): justified.
    use(n);
}
)fix";
    const auto findings = lintFile("src/dram/fix_inline.cc", src);
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintSuppression, WrongRuleAllowIsStaleAndFindingSurvives)
{
    const char *src = R"fix(
void pump()
{
    // tdram-lint:allow(nondet): wrong rule for this site entirely.
    auto *n = new Node(7);
    use(n);
}
)fix";
    const auto findings = lintFile("src/dram/fix_wrong.cc", src);
    EXPECT_TRUE(saw(findings, "hot-alloc")) << describe(findings);
    EXPECT_TRUE(saw(findings, "allow-audit")) << describe(findings);
}

TEST(LintFormat, FindingRendersAsFileLineRuleDetail)
{
    const LintFinding f{"hot-alloc", "src/dram/x.cc", 42, "detail"};
    EXPECT_EQ(formatFinding(f), "src/dram/x.cc:42: [hot-alloc] detail");
}

TEST(LintPaths, OnlyCppSourcesAreLintable)
{
    EXPECT_TRUE(lintablePath("src/dram/channel.hh"));
    EXPECT_TRUE(lintablePath("src/dram/channel.cc"));
    EXPECT_TRUE(lintablePath("bench/tdram_repro.cpp"));
    EXPECT_FALSE(lintablePath("tools/run_tdram_lint.sh"));
    EXPECT_FALSE(lintablePath("README.md"));
}

} // namespace
} // namespace tsim::lint
