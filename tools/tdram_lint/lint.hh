/**
 * @file
 * tdram_lint — project-specific static analyzer (DESIGN.md §15).
 *
 * The repro's headline claims — byte-identical traces/stats/checker
 * verdicts across reruns and `--jobs N`, and ~0 allocs/event on the hot
 * path — are enforced dynamically by golden hashes and sanitizer
 * runs, but nothing *static* stops a new controller from quietly
 * reintroducing a heap allocation per event or an iteration order
 * that leaks into a golden output. This tool makes the
 * conventions machine-checked: a lightweight C++ lexer plus a
 * structural matcher (no libclang, no dependencies beyond the
 * standard library) drives a declarative rule table in the style of
 * the protocol checker's 22-rule design (src/check/check.hh).
 *
 * Rules (see lintRules() for the authoritative table):
 *
 *  - sbo-spill      lambdas handed to InlineCallable/InlineFunction
 *                   sinks must use the load-bearing `[this, txn = txn]`
 *                   init-capture idiom — no `[&]`/`[=]` defaults, no
 *                   by-ref or plain-copy capture of PoolRef names
 *                   (a const-qualified PoolRef member demotes the
 *                   closure's move to a copy and spills to the heap).
 *  - hot-alloc      no `new`/`malloc`/`std::function`/`make_shared`/
 *                   `make_unique`/node-based unordered containers, and
 *                   no std::string/std::vector locals, in hot-path
 *                   function bodies under src/sim, src/dram,
 *                   src/dcache, src/workload (ctors/dtors and
 *                   setup/teardown-named functions are exempt).
 *  - nondet         no rand()/time()/clock()/random_device,
 *                   std::hash over pointer types, or range-for over
 *                   std::unordered_map/set in files that emit trace/
 *                   check/stats events.
 *  - bus-discipline trace/check emission goes through
 *                   emit(owner, Ev{...}); no direct TraceBuffer::
 *                   record / ProtocolChecker::onEvent calls outside
 *                   the bus and the subsystems themselves.
 *  - include-guard  every header carries a self-consistent include
 *                   guard; under src/ the guard name is derived from
 *                   the path (TSIM_<DIR>_<FILE>_HH).
 *  - allow-audit    every `// tdram-lint:allow(rule)` suppression
 *                   names a registered rule and carries a rationale.
 *
 * Suppression idiom: `// tdram-lint:allow(rule-id): rationale text`
 * at the end of a code line suppresses findings of that rule on that
 * line; as a stand-alone comment (possibly spanning several comment
 * lines) it suppresses findings within the statement that follows,
 * up to the next ';', '{' or '}'.
 * The rationale is mandatory; an allow() without one, or naming an
 * unknown rule, is itself a finding (allow-audit).
 */

#ifndef TSIM_TOOLS_TDRAM_LINT_LINT_HH
#define TSIM_TOOLS_TDRAM_LINT_LINT_HH

#include <string>
#include <vector>

namespace tsim::lint
{

/**
 * Static description of one rule, mirroring CheckRuleInfo: the
 * engine keys findings by `id`, `tdram_lint --rules` prints the
 * table, and the fixture self-test iterates it to prove every rule
 * has a known-good and a known-bad fixture.
 */
struct LintRuleInfo
{
    const char *id;       ///< stable machine name, e.g. "sbo-spill"
    const char *scope;    ///< where it applies, e.g. "hot dirs"
    const char *summary;  ///< one-line human description
};

/** The full rule table, in evaluation order. */
const std::vector<LintRuleInfo> &lintRules();

/** Lookup @p id in the table (nullptr if unknown). */
const LintRuleInfo *findLintRule(const std::string &id);

/** One finding. */
struct LintFinding
{
    std::string rule;    ///< rule id from the table
    std::string file;    ///< repo-relative path as given to lintFile
    int line = 0;        ///< 1-based line number
    std::string detail;  ///< human-readable explanation
};

/** One-line rendering: file:line: [rule] detail. */
std::string formatFinding(const LintFinding &f);

/**
 * Lint one file. @p path is the repo-relative path (it drives the
 * path-scoped rules: hot-dir membership, subsystem exemptions, guard
 * naming); @p content is the file's full text. Suppressed findings
 * are dropped here; allow-audit findings for malformed suppressions
 * are appended.
 */
std::vector<LintFinding> lintFile(const std::string &path,
                                  const std::string &content);

/** True when @p path (repo-relative, '/'-separated) is linted. */
bool lintablePath(const std::string &path);

} // namespace tsim::lint

#endif // TSIM_TOOLS_TDRAM_LINT_LINT_HH
