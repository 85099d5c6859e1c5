/**
 * @file
 * Violation-injection harness for the protocol checker
 * (DESIGN.md §11): build a synthetic, protocol-legal event stream for
 * one channel, audit it (must be clean), then perturb a single field
 * by one tick / one bit and assert the rule engine names exactly the
 * breached rule. Keeping the builder separate from the test bodies
 * lets every injection state its baseline and its mutation in a few
 * lines.
 */

#ifndef TSIM_TESTS_CHECK_INJECTOR_HH
#define TSIM_TESTS_CHECK_INJECTOR_HH

#include <optional>
#include <string>
#include <vector>

#include "check/check.hh"
#include "mem/types.hh"
#include "trace/trace.hh"

namespace tsim
{

/** Outcome of auditing one synthetic stream. */
struct AuditResult
{
    std::uint64_t events = 0;
    std::uint64_t violationCount = 0;
    std::vector<CheckViolation> violations;

    bool clean() const { return violationCount == 0; }

    /** True if any stored violation names @p rule. */
    bool
    saw(const std::string &rule) const
    {
        for (const CheckViolation &v : violations) {
            if (rule == v.rule)
                return true;
        }
        return false;
    }

    /** All violations, one formatted line each (assert messages). */
    std::string
    describe() const
    {
        if (violations.empty())
            return "(no violations)";
        std::string out;
        for (const CheckViolation &v : violations) {
            out += ProtocolChecker::formatViolation(v);
            out += '\n';
        }
        return out;
    }
};

/**
 * Synthetic single-channel event stream. Records are appended in
 * emission order (the order the inline hooks would see them) and fed
 * to a fresh ProtocolChecker by audit(); mutations edit records()
 * in place between the clean audit and the perturbed one.
 */
class CheckStream
{
  public:
    /** A stream on a channel of @p cfg; nullopt: the controller's
     *  demand-only buffer (ProtocolChecker::addDemandChannel). */
    explicit CheckStream(std::optional<ChannelConfig> cfg)
        : _cfg(cfg.value_or(ChannelConfig{})), _demandOnly(!cfg)
    {}

    const TimingParams &timing() const { return _cfg.timing; }

    /** Data-done latency of a close-page (ACT+RD) read. */
    Tick
    readAux() const
    {
        const TimingParams &t = _cfg.timing;
        return t.tRCD + t.tCL + t.dataBurst();
    }

    /** Data-done latency of a close-page (ACT+WR) write. */
    Tick
    writeAux() const
    {
        const TimingParams &t = _cfg.timing;
        return t.tRCD_WR + t.tCWL + t.dataBurst();
    }

    /** Append an arbitrary record (escape hatch for odd cases). */
    TraceRecord &
    push(TraceKind kind, Tick tick, Addr addr, unsigned bank,
         std::uint64_t aux, std::uint32_t extra)
    {
        TraceRecord r{};
        r.tick = tick;
        r.seq = _seq++;
        r.addr = addr;
        r.aux = aux;
        r.kind = static_cast<std::uint8_t>(kind);
        r.channel = 0;
        r.bank = static_cast<std::uint16_t>(bank);
        r.extra = extra;
        _records.push_back(r);
        return _records.back();
    }

    /** Conventional read; extra bit 0 marks an open-page row hit. */
    TraceRecord &
    read(Tick tick, unsigned bank, std::uint32_t extra = 0)
    {
        return push(TraceKind::Read, tick, addrOf(bank), bank,
                    readAux(), extra);
    }

    TraceRecord &
    write(Tick tick, unsigned bank, std::uint32_t extra = 0)
    {
        return push(TraceKind::Write, tick, addrOf(bank), bank,
                    writeAux(), extra);
    }

    /**
     * ActRd with its tag-compare outcome; emits the lockstep
     * HmResult as the channel does (hmAtColumn: at data-done).
     */
    TraceRecord &
    actRd(Tick tick, unsigned bank, bool hit, bool valid, bool dirty)
    {
        const bool transfer = hit || (!hit && valid && dirty) ||
                              !_cfg.conditionalColumn;
        push(TraceKind::ActRd, tick, addrOf(bank), bank, readAux(),
             packTagBits(hit, valid, dirty, false) |
                 (transfer ? 16u : 0u));
        const Tick hm_lat = _cfg.hmAtColumn
                                ? readAux()
                                : _cfg.timing.hmLatency();
        push(TraceKind::HmResult, tick + hm_lat, addrOf(bank), bank,
             hm_lat, packTagBits(hit, valid, dirty, false));
        // The HM push may have reallocated; re-index the command.
        return _records[_records.size() - 2];
    }

    /** Probe + its lockstep HmResult (always on the HM bus). */
    TraceRecord &
    probe(Tick tick, unsigned bank, bool hit = true, bool valid = true,
          bool dirty = false)
    {
        const Tick hm_lat = _cfg.timing.hmLatency();
        push(TraceKind::Probe, tick, addrOf(bank), bank, hm_lat,
             packTagBits(hit, valid, dirty, true));
        push(TraceKind::HmResult, tick + hm_lat, addrOf(bank), bank,
             hm_lat, packTagBits(hit, valid, dirty, true));
        return _records[_records.size() - 2];
    }

    TraceRecord &
    refresh(Tick tick)
    {
        return push(TraceKind::Refresh, tick, 0, traceBankNone,
                    _cfg.timing.tRFC, 0);
    }

    /** Remap install opening a fill group (Banshee page-grain layer). */
    TraceRecord &
    remap(Tick tick, Addr page, Addr victim, bool victim_valid,
          std::uint32_t group)
    {
        return push(TraceKind::Remap, tick, page, traceBankNone, victim,
                    (victim_valid ? 1u : 0u) |
                        (group << traceGroupShift));
    }

    /** Flagged page-fill write belonging to fill group @p group. */
    TraceRecord &
    fillWrite(Tick tick, unsigned bank, Addr addr, std::uint32_t group)
    {
        return push(TraceKind::Write, tick, addr, bank, writeAux(),
                    traceFillFlag | (group << traceGroupShift));
    }

    /** Flagged victim-spill read belonging to fill group @p group. */
    TraceRecord &
    spillRead(Tick tick, unsigned bank, Addr addr, std::uint32_t group)
    {
        return push(TraceKind::Read, tick, addr, bank, readAux(),
                    traceSpillFlag | (group << traceGroupShift));
    }

    /** Address every record of @p bank uses (HM lockstep matching). */
    static Addr addrOf(unsigned bank) { return Addr(bank) * lineBytes; }

    std::vector<TraceRecord> &records() { return _records; }

    /** Last appended record (mutation target). */
    TraceRecord &last() { return _records.back(); }

    /** Feed the stream to a fresh checker and collect the verdict. */
    AuditResult
    audit() const
    {
        ProtocolChecker chk;
        if (_demandOnly)
            chk.addDemandChannel();
        else
            chk.addChannel(_cfg);
        for (const TraceRecord &r : _records)
            chk.onRecord(r);
        chk.finish();
        AuditResult res;
        res.events = chk.eventsChecked();
        res.violationCount = chk.violationCount();
        res.violations = chk.violations();
        return res;
    }

  private:
    ChannelConfig _cfg;
    bool _demandOnly;
    std::vector<TraceRecord> _records;
    std::uint64_t _seq = 0;
};

} // namespace tsim

#endif // TSIM_TESTS_CHECK_INJECTOR_HH
