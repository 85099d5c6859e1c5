/**
 * @file
 * Protocol/invariant rule engine (DESIGN.md §11).
 *
 * Every rule here is a necessary condition of the channel model in
 * dram/channel.cc: the scheduler proves the *sufficient* direction
 * by construction (earliestIssue/reserveDq), and this engine
 * re-derives each bound independently from the event stream, so a
 * regression in either side makes the two disagree. Open-page ACT
 * rules are checked at issue granularity (an activate never precedes
 * its command's issue tick), which keeps them valid lower bounds
 * without tracking per-bank row state.
 */

#include "check/check.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tsim
{

namespace
{

bool
isCaCmd(TraceKind k)
{
    return k == TraceKind::Read || k == TraceKind::Write ||
           k == TraceKind::ActRd || k == TraceKind::ActWr ||
           k == TraceKind::Probe;
}

bool
isBankCmd(TraceKind k)
{
    return k == TraceKind::Read || k == TraceKind::Write ||
           k == TraceKind::ActRd || k == TraceKind::ActWr;
}

bool
isTagCmd(TraceKind k)
{
    return k == TraceKind::ActRd || k == TraceKind::ActWr ||
           k == TraceKind::Probe;
}

bool
isWriteKind(TraceKind k)
{
    return k == TraceKind::Write || k == TraceKind::ActWr;
}

bool
isDemandKind(TraceKind k)
{
    return k == TraceKind::DemandStart || k == TraceKind::DemandDone;
}

/** Did this command activate the data mats? */
bool
isAct(const ChannelConfig &cfg, const TraceRecord &r)
{
    const auto k = static_cast<TraceKind>(r.kind);
    if (k == TraceKind::ActRd || k == TraceKind::ActWr)
        return true;
    if (k != TraceKind::Read && k != TraceKind::Write)
        return false;
    // Open-page row hits reuse the open row without an ACT; the
    // emission site records the hit in extra bit 0.
    return !(cfg.pagePolicy == PagePolicy::Open && (r.extra & 1u));
}

/** Tag-compare bits of a command/HM record (hit/valid/dirty/probe). */
constexpr std::uint32_t
tagBits(std::uint32_t extra)
{
    return extra & 0xfu;
}

/** ActRd extra bit 16: the column operation transferred data. */
constexpr bool
transferred(std::uint32_t extra)
{
    return (extra & 16u) != 0;
}

/**
 * Minimum same-bank spacing after @p prev (close page): the bank
 * cycle time of the previous command, including the internal
 * victim-read extension of a write-miss-dirty ActWr (Figure 6).
 */
Tick
bankBusyAfter(const ChannelConfig &cfg, const TraceRecord &prev)
{
    const auto k = static_cast<TraceKind>(prev.kind);
    if (!isWriteKind(k))
        return cfg.timing.readBankBusy();
    Tick busy = cfg.timing.writeBankBusy();
    if (k == TraceKind::ActWr && cfg.hasFlushBuffer) {
        const std::uint32_t t = tagBits(prev.extra);
        const bool miss_dirty = !(t & 1u) && (t & 2u) && (t & 4u);
        if (miss_dirty)
            busy += cfg.timing.tRL_core + cfg.timing.tRTW_int;
    }
    return busy;
}

const std::vector<CheckRuleInfo> kRules = {
    {"record-sane", "-",
     "record fields are well-formed and legal for the channel"},
    {"monotonic-issue", "-",
     "issue ticks never run backwards within a channel"},
    {"ca-slot", "tCK",
     "one CA command (probes included) per command-clock slot"},
    {"act-to-act", "tRRD",
     "successive activates at least tRRD apart"},
    {"four-act-window", "tXAW",
     "at most four activates in any rolling tXAW window"},
    {"bank-busy", "tRAS+tRP/tWR",
     "close-page same-bank commands respect the bank cycle time"},
    {"col-to-col", "tCCD_L",
     "open-page same-bank column ops at least tCCD_L apart"},
    {"tag-cycle", "tRC_TAG",
     "same-bank tag-mat activations at least tRC_TAG apart"},
    {"hm-occupancy", "hm bus",
     "one HM-bus response per bus slot (no overlapped deliveries)"},
    {"hm-lockstep", "-",
     "each ActRd/ActWr/probe pairs with exactly one immediate HM result"},
    {"hm-latency", "tRCD_TAG+tHM",
     "HM results arrive exactly at the protocol-defined tick"},
    {"conditional-column", "-",
     "data bursts only on hit or miss-dirty under conditional response"},
    {"refresh-period", "tREFI/tRFC",
     "all-bank refreshes exactly tREFI apart with tRFC duration"},
    {"refresh-quiet", "tRFC",
     "no CA command issues inside a refresh window"},
    {"dq-overlap", "tBURST",
     "DQ data bursts (and reserved slots) never overlap"},
    {"dq-turnaround", "tRTW/tWTR",
     "DQ direction switches respect the bus turnaround"},
    {"flush-capacity", "-",
     "flush occupancy (waiting + in-flight) never exceeds capacity"},
    {"drain-cause", "-",
     "flush drains only via mechanisms the device supports"},
    {"drain-miss-clean", "-",
     "opportunistic drains land exactly in reserved-idle DQ slots"},
    {"drain-refresh", "-",
     "refresh-window drains fit entirely inside the window"},
    {"probe-disabled", "-",
     "probes only on channels with probing enabled"},
    {"demand-pairing", "-",
     "every demand response matches an outstanding demand start"},
    {"page-fill-lockstep", "-",
     "each Remap's fill group issues exactly its per-channel quota of "
     "flagged fill writes before the next Remap"},
    {"remap-consistency", "-",
     "Remap installs/evictions and flagged fill/spill traffic agree "
     "with the remap-table state"},
};

} // namespace

const std::vector<CheckRuleInfo> &
checkRules()
{
    return kRules;
}

const CheckRuleInfo *
findCheckRule(const std::string &id)
{
    for (const CheckRuleInfo &r : kRules) {
        if (id == r.id)
            return &r;
    }
    return nullptr;
}

unsigned
ProtocolChecker::addChannel(const ChannelConfig &cfg)
{
    ChannelState c;
    c.cfg = cfg;
    c.banks.resize(cfg.banks);
    _chans.push_back(std::move(c));
    return static_cast<unsigned>(_chans.size() - 1);
}

unsigned
ProtocolChecker::addDemandChannel()
{
    ChannelState c;
    c.demandOnly = true;
    _chans.push_back(std::move(c));
    return static_cast<unsigned>(_chans.size() - 1);
}

void
ProtocolChecker::violation(const TraceRecord &r, const char *rule,
                           std::string detail)
{
    ++_violationCount;
    if (_stored.size() >= maxStoredViolations)
        return;
    CheckViolation v;
    v.rule = rule;
    v.tick = r.tick;
    v.channel = r.channel;
    v.bank = r.bank;
    v.index = _events == 0 ? 0 : _events - 1;
    v.detail = std::move(detail);
    _stored.push_back(std::move(v));
}

std::string
ProtocolChecker::formatViolation(const CheckViolation &v)
{
    return logFormat("[%s] t=%llu ch%u bank=%u event#%llu: %s", v.rule,
                     static_cast<unsigned long long>(v.tick), v.channel,
                     v.bank,
                     static_cast<unsigned long long>(v.index),
                     v.detail.c_str());
}

void
ProtocolChecker::check(unsigned channel, const TraceRecord &r)
{
    ++_events;
    if (channel >= _chans.size()) {
        violation(r, "record-sane",
                  logFormat("channel %u out of range (%u checked)",
                            channel,
                            static_cast<unsigned>(_chans.size())));
        return;
    }
    ChannelState &c = _chans[channel];
    if (r.kind >= static_cast<std::uint8_t>(TraceKind::NumKinds)) {
        violation(r, "record-sane",
                  logFormat("unknown event kind %u", r.kind));
        return;
    }
    const auto k = static_cast<TraceKind>(r.kind);

    if (c.demandOnly != isDemandKind(k)) {
        violation(r, "record-sane",
                  logFormat("%s event on a %s buffer", traceKindName(r.kind),
                            c.demandOnly ? "controller-level"
                                         : "channel-level"));
        return;
    }

    // ActRd/ActWr/probe issue tag and data in lockstep and the HM
    // result is delivered (emitted) before anything else happens on
    // the channel; any intervening event breaks the pairing.
    if (c.hmPending && k != TraceKind::HmResult) {
        violation(r, "hm-lockstep",
                  logFormat("%s at t=%llu never received its HM result",
                            traceKindName(c.hmCmd.kind),
                            static_cast<unsigned long long>(
                                c.hmCmd.tick)));
        c.hmPending = false;
    }

    // Bank bounds for bank-scoped kinds.
    if ((isBankCmd(k) || k == TraceKind::Probe ||
         k == TraceKind::HmResult || k == TraceKind::FlushPush ||
         k == TraceKind::FlushDrain) &&
        r.bank >= c.cfg.banks) {
        violation(r, "record-sane",
                  logFormat("bank %u out of range (%u banks)", r.bank,
                            c.cfg.banks));
        return;
    }

    // Issue-tick monotonicity for events emitted at their own tick
    // (HM results and drains legitimately carry future ticks).
    if (isCaCmd(k) || k == TraceKind::Refresh ||
        k == TraceKind::FlushPush) {
        if (c.hasIssue && r.tick < c.lastIssue) {
            violation(r, "monotonic-issue",
                      logFormat("issue tick %llu precedes previous %llu",
                                static_cast<unsigned long long>(r.tick),
                                static_cast<unsigned long long>(
                                    c.lastIssue)));
        }
        c.lastIssue = std::max(c.lastIssue, r.tick);
        c.hasIssue = true;
    }

    switch (k) {
      case TraceKind::Read:
      case TraceKind::Write:
      case TraceKind::ActRd:
      case TraceKind::ActWr:
      case TraceKind::Probe:
        checkCommand(c, r);
        break;
      case TraceKind::HmResult:
        checkHmResult(c, r);
        break;
      case TraceKind::FlushPush:
      case TraceKind::FlushDrain:
        checkFlush(c, r);
        break;
      case TraceKind::Refresh:
        checkRefresh(c, r);
        break;
      case TraceKind::DemandStart:
      case TraceKind::DemandDone:
        checkDemand(c, r);
        break;
      case TraceKind::Remap:
        checkRemap(c, r);
        break;
      default:
        break;
    }
}

void
ProtocolChecker::checkCommand(ChannelState &c, const TraceRecord &r)
{
    const TimingParams &t = c.cfg.timing;
    const auto k = static_cast<TraceKind>(r.kind);

    if (isTagCmd(k) && !c.cfg.inDramTags) {
        violation(r, "record-sane",
                  logFormat("%s on a channel without in-DRAM tags",
                            traceKindName(r.kind)));
        return;
    }
    if (k == TraceKind::Probe && !c.cfg.enableProbe) {
        violation(r, "probe-disabled",
                  "probe issued but probing is disabled for this device");
    }

    // Probe slots must never collide with demand CA traffic (nor
    // demands with each other): one CA slot per command clock.
    if (c.hasCa && r.tick < c.lastCa + t.clkPeriod) {
        violation(r, "ca-slot",
                  logFormat("CA slot at t=%llu only %llu ticks after "
                            "previous command (tCK=%llu)",
                            static_cast<unsigned long long>(r.tick),
                            static_cast<unsigned long long>(
                                r.tick - c.lastCa),
                            static_cast<unsigned long long>(
                                t.clkPeriod)));
    }
    c.lastCa = r.tick;
    c.hasCa = true;

    // No CA activity inside the most recent refresh window.
    if (c.hasRefresh && r.tick >= c.refreshStart &&
        r.tick < c.refreshEnd) {
        violation(r, "refresh-quiet",
                  logFormat("command inside refresh window "
                            "[%llu, %llu)",
                            static_cast<unsigned long long>(
                                c.refreshStart),
                            static_cast<unsigned long long>(
                                c.refreshEnd)));
    }

    if (isAct(c.cfg, r)) {
        if (c.actCount > 0) {
            const Tick last = c.actWindow[(c.actCount - 1) % 4];
            if (r.tick < last + t.tRRD) {
                violation(r, "act-to-act",
                          logFormat("ACT %llu ticks after previous "
                                    "(tRRD=%llu)",
                                    static_cast<unsigned long long>(
                                        r.tick - last),
                                    static_cast<unsigned long long>(
                                        t.tRRD)));
            }
        }
        if (c.actCount >= 4) {
            const Tick fourth = c.actWindow[c.actCount % 4];
            if (r.tick < fourth + t.tXAW) {
                violation(r, "four-act-window",
                          logFormat("fifth ACT %llu ticks after the "
                                    "fourth-last (tXAW=%llu)",
                                    static_cast<unsigned long long>(
                                        r.tick - fourth),
                                    static_cast<unsigned long long>(
                                        t.tXAW)));
            }
        }
        c.actWindow[c.actCount % 4] = r.tick;
        ++c.actCount;
    }

    BankState &b = c.banks[r.bank];
    if (isBankCmd(k)) {
        if (b.hasCmd) {
            // ActRd/ActWr always auto-precharge (close-page
            // semantics) even on an open-page channel, so a lockstep
            // pair gets the full bank-cycle bound either way.
            const auto pk = static_cast<TraceKind>(b.lastCmd.kind);
            const bool lockstep_pair =
                (k == TraceKind::ActRd || k == TraceKind::ActWr) &&
                (pk == TraceKind::ActRd || pk == TraceKind::ActWr);
            if (c.cfg.pagePolicy == PagePolicy::Open && !lockstep_pair) {
                // Open page: the exact bound depends on row state the
                // trace does not carry; tCCD_L is the floor every
                // same-bank command sequence must respect.
                if (r.tick < b.lastCmd.tick + t.tCCD_L) {
                    violation(r, "col-to-col",
                              logFormat(
                                  "same-bank command %llu ticks after "
                                  "previous (tCCD_L=%llu)",
                                  static_cast<unsigned long long>(
                                      r.tick - b.lastCmd.tick),
                                  static_cast<unsigned long long>(
                                      t.tCCD_L)));
                }
            } else {
                const Tick busy = bankBusyAfter(c.cfg, b.lastCmd);
                if (r.tick < b.lastCmd.tick + busy) {
                    violation(r, "bank-busy",
                              logFormat(
                                  "same-bank command %llu ticks after "
                                  "%s (bank busy %llu)",
                                  static_cast<unsigned long long>(
                                      r.tick - b.lastCmd.tick),
                                  traceKindName(b.lastCmd.kind),
                                  static_cast<unsigned long long>(
                                      busy)));
                }
            }
        }
        b.lastCmd = r;
        b.hasCmd = true;
    }

    if (isTagCmd(k)) {
        if (b.hasTagAct && r.tick < b.lastTagAct + t.tRC_TAG) {
            violation(r, "tag-cycle",
                      logFormat("tag-mat activation %llu ticks after "
                                "previous (tRC_TAG=%llu)",
                                static_cast<unsigned long long>(
                                    r.tick - b.lastTagAct),
                                static_cast<unsigned long long>(
                                    t.tRC_TAG)));
        }
        b.lastTagAct = r.tick;
        b.hasTagAct = true;

        // The HM result must be the next event on this channel.
        c.hmPending = true;
        c.hmCmd = r;
    }

    // Conditional column gating: a read's data burst happens iff the
    // tag result is a hit or a dirty miss (whose victim must stream).
    if (k == TraceKind::ActRd) {
        const std::uint32_t tb = tagBits(r.extra);
        const bool hit = (tb & 1u) != 0;
        const bool valid = (tb & 2u) != 0;
        const bool dirty = (tb & 4u) != 0;
        const bool expect =
            hit || (!hit && valid && dirty) || !c.cfg.conditionalColumn;
        if (transferred(r.extra) != expect) {
            violation(r, "conditional-column",
                      logFormat("ActRd %s data (hit=%d valid=%d "
                                "dirty=%d, conditional=%d)",
                                transferred(r.extra) ? "streamed"
                                                     : "suppressed",
                                hit ? 1 : 0, valid ? 1 : 0,
                                dirty ? 1 : 0,
                                c.cfg.conditionalColumn ? 1 : 0));
        }
        if (c.cfg.conditionalColumn && !transferred(r.extra)) {
            // Reserved-but-idle DQ slot: the only place an
            // opportunistic miss-clean drain may land.
            c.idleSlot = r.tick + r.aux;
            c.idleSlotValid = true;
        }
    }

    if (k == TraceKind::Read || k == TraceKind::Write)
        checkFillFlags(c, r, isWriteKind(k));

    // Every data-bank command reserves a DQ burst ending at
    // tick + aux (reads and suppressed reads alike: the slot is
    // reserved either way).
    if (isBankCmd(k)) {
        const Tick burst = t.dataBurst();
        const Tick end = r.tick + r.aux;
        if (r.aux < burst) {
            violation(r, "record-sane",
                      logFormat("data-done latency %llu shorter than "
                                "the burst (%llu)",
                                static_cast<unsigned long long>(r.aux),
                                static_cast<unsigned long long>(
                                    burst)));
        } else {
            reserveDq(c, r, end, burst, isWriteKind(k), false);
        }
    }
}

void
ProtocolChecker::checkHmResult(ChannelState &c, const TraceRecord &r)
{
    const TimingParams &t = c.cfg.timing;
    if (!c.cfg.inDramTags || !c.hmPending) {
        violation(r, "hm-lockstep",
                  c.cfg.inDramTags
                      ? std::string("HM result without a pending "
                                    "tag command")
                      : std::string("HM result on a channel without "
                                    "in-DRAM tags"));
        return;
    }
    c.hmPending = false;
    const TraceRecord &cmd = c.hmCmd;
    const auto cmd_kind = static_cast<TraceKind>(cmd.kind);

    if (r.addr != cmd.addr || r.bank != cmd.bank) {
        violation(r, "hm-lockstep",
                  logFormat("HM result for addr %#llx bank %u but "
                            "pending %s is addr %#llx bank %u",
                            static_cast<unsigned long long>(r.addr),
                            r.bank, traceKindName(cmd.kind),
                            static_cast<unsigned long long>(cmd.addr),
                            cmd.bank));
    }
    const bool via_probe = (r.extra & 8u) != 0;
    if (via_probe != (cmd_kind == TraceKind::Probe) ||
        tagBits(r.extra) != tagBits(cmd.extra)) {
        violation(r, "hm-lockstep",
                  logFormat("HM tag bits %#x do not mirror the "
                            "command's %#x", tagBits(r.extra),
                            tagBits(cmd.extra)));
    }

    // Result delivery tick: tRCD_TAG + tHM after issue on the HM bus,
    // or exactly at data-done when the result rides the column op.
    Tick expect;
    if (cmd_kind != TraceKind::Probe && c.cfg.hmAtColumn)
        expect = cmd.tick + cmd.aux;
    else
        expect = cmd.tick + t.hmLatency();
    if (r.tick != expect || r.tick != cmd.tick + r.aux) {
        violation(r, "hm-latency",
                  logFormat("HM result at t=%llu, expected t=%llu "
                            "(%s issued at t=%llu)",
                            static_cast<unsigned long long>(r.tick),
                            static_cast<unsigned long long>(expect),
                            traceKindName(cmd.kind),
                            static_cast<unsigned long long>(
                                cmd.tick)));
    }

    // HM-bus slot exclusivity (TDRAM only; with hmAtColumn the
    // result shares the DQ slot, which the DQ rules already police).
    if (!c.cfg.hmAtColumn) {
        if (c.hasHm && r.tick < c.lastHm + hmBusOccupancy) {
            violation(r, "hm-occupancy",
                      logFormat("HM response %llu ticks after the "
                                "previous (slot=%llu)",
                                static_cast<unsigned long long>(
                                    r.tick - c.lastHm),
                                static_cast<unsigned long long>(
                                    hmBusOccupancy)));
        }
        c.lastHm = r.tick;
        c.hasHm = true;
    }
}

void
ProtocolChecker::checkFlush(ChannelState &c, const TraceRecord &r)
{
    const TimingParams &t = c.cfg.timing;
    const auto k = static_cast<TraceKind>(r.kind);

    if (!c.cfg.hasFlushBuffer) {
        violation(r, k == TraceKind::FlushPush ? "flush-capacity"
                                               : "drain-cause",
                  "flush activity on a device without a flush buffer");
        return;
    }

    if (k == TraceKind::FlushPush) {
        // aux = waiting entries after the push; slots stay occupied
        // until the drain transfer lands, so in-flight drains (done
        // tick still in the future) count against capacity.
        c.drainDoneTicks.erase(
            std::remove_if(c.drainDoneTicks.begin(),
                           c.drainDoneTicks.end(),
                           [&r](Tick d) { return d <= r.tick; }),
            c.drainDoneTicks.end());
        const std::uint64_t in_flight = c.drainDoneTicks.size();
        if (r.aux > c.cfg.flushEntries ||
            r.aux + in_flight > c.cfg.flushEntries) {
            violation(r, "flush-capacity",
                      logFormat("depth %llu + %llu in flight exceeds "
                                "capacity %u",
                                static_cast<unsigned long long>(r.aux),
                                static_cast<unsigned long long>(
                                    in_flight),
                                c.cfg.flushEntries));
        }
        return;
    }

    // FlushDrain: tick is the transfer-done tick at the controller.
    if (r.aux > c.cfg.flushEntries) {
        violation(r, "flush-capacity",
                  logFormat("depth %llu after drain exceeds capacity "
                            "%u",
                            static_cast<unsigned long long>(r.aux),
                            c.cfg.flushEntries));
    }
    switch (static_cast<DrainCause>(r.extra)) {
      case DrainCause::MissClean:
        if (!c.cfg.opportunisticDrain || !c.cfg.conditionalColumn) {
            violation(r, "drain-cause",
                      "miss-clean drain on a device without "
                      "opportunistic unloading");
        } else if (!c.idleSlotValid || r.tick != c.idleSlot) {
            violation(r, "drain-miss-clean",
                      logFormat("drain done at t=%llu but the last "
                                "reserved-idle slot ends at t=%llu",
                                static_cast<unsigned long long>(
                                    r.tick),
                                c.idleSlotValid
                                    ? static_cast<unsigned long long>(
                                          c.idleSlot)
                                    : 0ull));
        }
        // The DQ slot was reserved by the suppressed read; the drain
        // reuses it, so no new DQ reservation here.
        c.idleSlotValid = false;
        break;
      case DrainCause::Refresh:
        if (!c.cfg.opportunisticDrain) {
            violation(r, "drain-cause",
                      "refresh-window drain on a device without "
                      "opportunistic unloading");
        } else if (!c.hasRefresh || r.tick > c.refreshEnd ||
                   r.tick < c.refreshStart + t.tBURST) {
            violation(r, "drain-refresh",
                      logFormat("drain burst [%llu, %llu] outside "
                                "refresh window [%llu, %llu]",
                                static_cast<unsigned long long>(
                                    r.tick - t.tBURST),
                                static_cast<unsigned long long>(
                                    r.tick),
                                static_cast<unsigned long long>(
                                    c.refreshStart),
                                static_cast<unsigned long long>(
                                    c.refreshEnd)));
        }
        reserveDq(c, r, r.tick, t.tBURST, false, true);
        break;
      case DrainCause::Forced:
        reserveDq(c, r, r.tick, t.tBURST, false, false);
        break;
      default:
        violation(r, "drain-cause",
                  logFormat("unknown drain cause %u", r.extra));
        break;
    }
    c.drainDoneTicks.push_back(r.tick);
}

void
ProtocolChecker::checkRefresh(ChannelState &c, const TraceRecord &r)
{
    const TimingParams &t = c.cfg.timing;
    if (r.aux != t.tRFC) {
        violation(r, "refresh-period",
                  logFormat("refresh duration %llu != tRFC %llu",
                            static_cast<unsigned long long>(r.aux),
                            static_cast<unsigned long long>(t.tRFC)));
    }
    if (c.hasRefresh && r.tick != c.refreshStart + t.tREFI) {
        violation(r, "refresh-period",
                  logFormat("refresh at t=%llu, expected t=%llu "
                            "(tREFI after the previous)",
                            static_cast<unsigned long long>(r.tick),
                            static_cast<unsigned long long>(
                                c.refreshStart + t.tREFI)));
    }
    c.refreshStart = r.tick;
    c.refreshEnd = r.tick + t.tRFC;
    c.hasRefresh = true;
}

void
ProtocolChecker::checkDemand(ChannelState &c, const TraceRecord &r)
{
    if (static_cast<TraceKind>(r.kind) == TraceKind::DemandStart) {
        c.openDemands.emplace_back(r.addr, r.tick);
        return;
    }
    // DemandDone: aux is the end-to-end latency, so the matching
    // start is the one created at tick - aux.
    const Tick created = r.tick >= r.aux ? r.tick - r.aux : 0;
    auto it = std::find(c.openDemands.begin(), c.openDemands.end(),
                        std::make_pair(r.addr, created));
    if (it == c.openDemands.end()) {
        violation(r, "demand-pairing",
                  logFormat("demand response for addr %#llx at t=%llu "
                            "(latency %llu) matches no outstanding "
                            "start",
                            static_cast<unsigned long long>(r.addr),
                            static_cast<unsigned long long>(r.tick),
                            static_cast<unsigned long long>(r.aux)));
        return;
    }
    c.openDemands.erase(it);
}

void
ProtocolChecker::checkRemap(ChannelState &c, const TraceRecord &r)
{
    if (!c.cfg.remapTable) {
        violation(r, "remap-consistency",
                  "Remap on a device without a remap table");
        return;
    }
    if (r.addr % c.cfg.pageBytes != 0) {
        violation(r, "remap-consistency",
                  logFormat("installed page %#llx not %llu-byte aligned",
                            static_cast<unsigned long long>(r.addr),
                            static_cast<unsigned long long>(
                                c.cfg.pageBytes)));
    }
    // Fills are serialized: the previous group must have issued its
    // full per-channel quota before the next Remap arrives.
    if (c.fillOpen && c.fillWrites != c.cfg.fillGroupLines) {
        violation(r, "page-fill-lockstep",
                  logFormat("previous fill group %u closed with %u of "
                            "%u fill writes",
                            c.fillGroup, c.fillWrites,
                            c.cfg.fillGroupLines));
    }
    const bool victim_valid = (r.extra & 1u) != 0;
    if (victim_valid) {
        // Warm-started tables install pages silently, so evicting a
        // page the checker never saw installed is legitimate; only
        // the tracked subset is maintained.
        auto it = std::find(c.mappedPages.begin(), c.mappedPages.end(),
                            r.aux);
        if (it != c.mappedPages.end())
            c.mappedPages.erase(it);
    }
    if (std::find(c.mappedPages.begin(), c.mappedPages.end(), r.addr) !=
        c.mappedPages.end()) {
        violation(r, "remap-consistency",
                  logFormat("page %#llx installed while already mapped",
                            static_cast<unsigned long long>(r.addr)));
    } else {
        c.mappedPages.push_back(r.addr);
    }
    c.fillOpen = true;
    c.fillGroup = r.extra >> traceGroupShift;
    c.fillPage = r.addr;
    c.spillPage = r.aux;
    c.spillValid = victim_valid;
    c.fillWrites = 0;
}

void
ProtocolChecker::checkFillFlags(ChannelState &c, const TraceRecord &r,
                                bool is_write)
{
    const bool fill = (r.extra & traceFillFlag) != 0;
    const bool spill = (r.extra & traceSpillFlag) != 0;
    if (!fill && !spill)
        return;
    if (!c.cfg.remapTable) {
        violation(r, "remap-consistency",
                  logFormat("%s flag on a device without a remap table",
                            fill ? "fill" : "spill"));
        return;
    }
    if (fill && spill) {
        violation(r, "remap-consistency",
                  "command flagged as both fill and spill");
        return;
    }
    if (fill != is_write) {
        violation(r, "remap-consistency",
                  fill ? std::string("fill flag on a read command")
                       : std::string("spill flag on a write command"));
        return;
    }
    if (!c.fillOpen) {
        violation(r, "page-fill-lockstep",
                  logFormat("%s command outside an open fill group",
                            fill ? "fill" : "spill"));
        return;
    }
    const std::uint32_t group = r.extra >> traceGroupShift;
    if (group != c.fillGroup) {
        violation(r, "page-fill-lockstep",
                  logFormat("%s command of group %u inside group %u",
                            fill ? "fill" : "spill", group,
                            c.fillGroup));
        return;
    }
    const std::uint64_t page = r.addr - r.addr % c.cfg.pageBytes;
    if (fill) {
        if (page != c.fillPage) {
            violation(r, "remap-consistency",
                      logFormat("fill write for %#llx outside the "
                                "installed page %#llx",
                                static_cast<unsigned long long>(r.addr),
                                static_cast<unsigned long long>(
                                    c.fillPage)));
        }
        if (++c.fillWrites > c.cfg.fillGroupLines) {
            violation(r, "page-fill-lockstep",
                      logFormat("fill write %u exceeds the per-channel "
                                "quota of %u",
                                c.fillWrites, c.cfg.fillGroupLines));
        }
        return;
    }
    if (!c.spillValid) {
        violation(r, "remap-consistency",
                  "spill read in a group that evicted no valid page");
        return;
    }
    if (page != c.spillPage) {
        violation(r, "remap-consistency",
                  logFormat("spill read for %#llx outside the evicted "
                            "page %#llx",
                            static_cast<unsigned long long>(r.addr),
                            static_cast<unsigned long long>(
                                c.spillPage)));
    }
}

void
ProtocolChecker::reserveDq(ChannelState &c, const TraceRecord &r,
                           Tick end, Tick burst, bool is_write,
                           bool refresh_exempt)
{
    const Tick start = end - burst;
    if (c.dqUsed) {
        if (start < c.dqEnd) {
            violation(r, "dq-overlap",
                      logFormat("DQ burst [%llu, %llu] overlaps the "
                                "previous burst ending at %llu",
                                static_cast<unsigned long long>(start),
                                static_cast<unsigned long long>(end),
                                static_cast<unsigned long long>(
                                    c.dqEnd)));
        } else if (c.dqWrite != is_write && !refresh_exempt) {
            // Refresh-window drains are exempt: the refresh itself
            // idles the bus far longer than any turnaround.
            const Tick turn = is_write ? c.cfg.timing.tRTW
                                       : c.cfg.timing.tWTR;
            if (start < c.dqEnd + turn) {
                violation(r, "dq-turnaround",
                          logFormat("%s burst %llu ticks after a %s "
                                    "burst (turnaround %llu)",
                                    is_write ? "write" : "read",
                                    static_cast<unsigned long long>(
                                        start - c.dqEnd),
                                    c.dqWrite ? "write" : "read",
                                    static_cast<unsigned long long>(
                                        turn)));
            }
        }
    }
    c.dqEnd = std::max(c.dqEnd, end);
    c.dqWrite = is_write;
    c.dqUsed = true;
}

void
ProtocolChecker::finish()
{
    if (_finished)
        return;
    _finished = true;
    for (ChannelState &c : _chans) {
        if (c.hmPending) {
            violation(c.hmCmd, "hm-lockstep",
                      logFormat("%s at end of stream never received "
                                "its HM result",
                                traceKindName(c.hmCmd.kind)));
            c.hmPending = false;
        }
        if (!c.openDemands.empty()) {
            TraceRecord r{};
            r.tick = c.openDemands.front().second;
            r.addr = c.openDemands.front().first;
            r.bank = traceBankNone;
            violation(r, "demand-pairing",
                      logFormat("%u demand start(s) never responded",
                                static_cast<unsigned>(
                                    c.openDemands.size())));
        }
        if (c.fillOpen && c.fillWrites != c.cfg.fillGroupLines) {
            TraceRecord r{};
            r.addr = c.fillPage;
            r.bank = traceBankNone;
            violation(r, "page-fill-lockstep",
                      logFormat("fill group %u open at end of stream "
                                "with %u of %u fill writes",
                                c.fillGroup, c.fillWrites,
                                c.cfg.fillGroupLines));
            c.fillOpen = false;
        }
    }
}

} // namespace tsim
