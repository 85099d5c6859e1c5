#include "check/offline.hh"

#include "sim/logging.hh"
#include "system/system.hh"

namespace tsim
{

CheckReport
checkTrace(const TraceFile &trace, const SystemConfig &cfg)
{
    CheckReport rep;
    const std::unique_ptr<ProtocolChecker> chk = makeChecker(cfg);
    if (trace.header.channels != chk->numChannels()) {
        rep.error = logFormat(
            "trace has %u channels but the %s topology needs %u "
            "(%u dcache + %u mm + 1 demand); adjust --channels / "
            "--mm-channels",
            trace.header.channels, designName(cfg.design),
            chk->numChannels(), cfg.dcache.channels, cfg.mmChannels);
        return rep;
    }

    // loadTrace() returns records sorted by the global emission seq,
    // which is exactly the order the inline checker saw them in.
    for (const TraceRecord &r : trace.records)
        chk->onRecord(r);
    chk->finish();

    rep.ok = chk->ok();
    rep.events = chk->eventsChecked();
    rep.violationCount = chk->violationCount();
    rep.violations = chk->violations();
    return rep;
}

} // namespace tsim
