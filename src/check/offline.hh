/**
 * @file
 * Offline protocol checking of recorded .tdt traces (DESIGN.md §11).
 *
 * `trace_tool check` rebuilds the checker a traced System used, from
 * the run's SystemConfig and through the same code (makeChecker):
 * dcache channels, then main-memory channels, then one demand-only
 * buffer. It replays the trace through the identical rule engine the
 * inline mode runs, so a clean run checked inline audits clean
 * offline, and a trace from a buggy (or tampered-with) build reports
 * the first violations with full context.
 */

#ifndef TSIM_CHECK_OFFLINE_HH
#define TSIM_CHECK_OFFLINE_HH

#include <string>
#include <vector>

#include "check/check.hh"
#include "trace/trace.hh"

namespace tsim
{

struct SystemConfig;

/** Result of one offline audit. */
struct CheckReport
{
    bool ok = false;           ///< audit ran and found zero violations
    std::string error;         ///< non-empty: audit could not run
    std::uint64_t events = 0;
    std::uint64_t violationCount = 0;
    std::vector<CheckViolation> violations;  ///< stored subset
};

/**
 * Audit @p trace, recorded by a run of @p cfg, against the rule
 * table. The trace's channel count must match cfg's layout
 * (dcache.channels + mmChannels + 1).
 */
CheckReport checkTrace(const TraceFile &trace, const SystemConfig &cfg);

} // namespace tsim

#endif // TSIM_CHECK_OFFLINE_HH
