/**
 * @file
 * Cycle-accurate protocol and invariant checker (DESIGN.md §11).
 *
 * The simulator's correctness claims rest on every issued command
 * stream obeying the JEDEC-style timing rules of Table III plus the
 * TDRAM-specific invariants of the paper (HM-bus slot exclusivity,
 * ActRd/ActWr tag-data lockstep, conditional column gating, bounded
 * flush buffer, probe slots never colliding with demand CA traffic).
 * End-of-run statistics cannot prove any of that; this subsystem
 * does, by auditing the same per-event stream the tracing subsystem
 * records (src/trace) against a declarative rule table.
 *
 * One rule engine serves two modes:
 *
 *  - Inline: every DramChannel (and the DRAM-cache controller
 *    front-end) optionally points at a ProtocolChecker and feeds it
 *    from the event bus (src/sim/event_bus.hh) at the exact sites
 *    that emit trace events. SystemConfig::checkProtocol chooses it
 *    per run; otherwise the pointer stays null.
 *  - Offline: `trace_tool check` replays a recorded .tdt trace
 *    through the same engine (src/check/offline.*) and reports the
 *    first violation with surrounding context.
 *
 * Every rule is a *necessary* condition of the modelled protocol: an
 * unmodified simulation reports zero violations on every device kind
 * and page policy (asserted by tests/protocol_check_test.cpp), and a
 * ±1-tick perturbation of any covered constraint is flagged with the
 * violated rule's name (tests/check_injector_test.cpp).
 */

#ifndef TSIM_CHECK_CHECK_HH
#define TSIM_CHECK_CHECK_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/timing.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

namespace tsim
{

/** Always true; only perfbench's harness still reads it. */
constexpr bool checkCompiledIn() { return true; }

/**
 * Capability and timing knobs of one checked channel. Mirrors the
 * protocol-relevant subset of ChannelConfig (decoupled so the
 * checker never depends on the scheduler headers and can be
 * instantiated offline from a device preset).
 */
struct CheckerConfig
{
    TimingParams timing{};
    unsigned banks = 16;
    bool openPage = false;        ///< PagePolicy::Open row management

    bool inDramTags = false;      ///< device checks tags (TDRAM/NDC)
    bool hmAtColumn = false;      ///< NDC: result tied to column op
    bool conditionalColumn = false; ///< miss-clean suppresses data
    bool enableProbe = false;     ///< TDRAM early tag probing
    bool hasFlushBuffer = false;  ///< device-side victim buffer
    unsigned flushEntries = 16;
    bool opportunisticDrain = true; ///< TDRAM-style unloading

    /**
     * Page-grain remap layer (Banshee). Remap records open a fill
     * group; flagged fill writes / spill reads must stay in lockstep
     * with it (fillGroupLines per channel, addresses inside the
     * installed/evicted page of pageBytes).
     */
    bool remapTable = false;
    unsigned fillGroupLines = 0;
    std::uint64_t pageBytes = 4096;

    /**
     * Controller-level demand buffer: only the demand-pairing rules
     * apply; any channel-level command record is itself a violation.
     */
    bool demandOnly = false;
};

/** One detected rule violation. */
struct CheckViolation
{
    const char *rule = "";     ///< rule id (see checkRules())
    Tick tick = 0;             ///< simulated time of the offence
    std::uint8_t channel = 0;  ///< emitting channel/buffer id
    std::uint16_t bank = 0;    ///< bank, or traceBankNone
    std::uint64_t index = 0;   ///< 0-based event index in the stream
    std::string detail;        ///< human-readable explanation
};

/**
 * Static description of one rule in the table. The checker proper
 * keys violations by `id`; the table is what `trace_tool check
 * --rules` prints and what the injector test iterates to prove the
 * violation matrix covers every rule.
 */
struct CheckRuleInfo
{
    const char *id;       ///< stable machine name, e.g. "act-to-act"
    const char *timing;   ///< governing parameter(s), e.g. "tRRD"
    const char *summary;  ///< one-line human description
};

/** The full rule table, in evaluation order. */
const std::vector<CheckRuleInfo> &checkRules();

/** Lookup @p id in the table (nullptr if unknown). */
const CheckRuleInfo *findCheckRule(const std::string &id);

/**
 * The protocol/invariant rule engine.
 *
 * Feed it the per-channel event stream in emission order — inline
 * via emit() (sim/event_bus.hh), offline via onRecord() over a
 * seq-sorted .tdt load — then call finish() once at end of stream.
 * Violations accumulate (detail strings are kept for the first
 * `maxStoredViolations`; the total count is exact) and never abort
 * the simulation: the caller decides whether a violation is fatal.
 */
class ProtocolChecker
{
  public:
    ProtocolChecker() = default;

    /** Append a checked channel; @return its channel id. */
    unsigned addChannel(const CheckerConfig &cfg);

    unsigned numChannels() const
    {
        return static_cast<unsigned>(_chans.size());
    }

    /** Inline hook entry point (signature matches TraceBuffer::record
     *  argument order so call sites mirror the trace hooks). */
    void
    onEvent(unsigned channel, TraceKind kind, Tick tick,
            std::uint64_t addr, std::uint16_t bank, std::uint64_t aux,
            std::uint32_t extra)
    {
        TraceRecord r;
        r.tick = tick;
        r.seq = _events;
        r.addr = addr;
        r.aux = aux;
        r.kind = static_cast<std::uint8_t>(kind);
        r.channel = static_cast<std::uint8_t>(channel);
        r.bank = bank;
        r.extra = extra;
        check(channel, r);
    }

    /** Offline entry point: records must arrive in emission order. */
    void onRecord(const TraceRecord &r) { check(r.channel, r); }

    /** End-of-stream invariants (unmatched lockstep HM, open demands). */
    void finish();

    /** @name Results. */
    /// @{
    std::uint64_t eventsChecked() const { return _events; }
    std::uint64_t violationCount() const { return _violationCount; }
    bool ok() const { return _violationCount == 0; }

    /** Stored violations, oldest first (capped; the count is not). */
    const std::vector<CheckViolation> &violations() const
    {
        return _stored;
    }

    /** One-line rendering of @p v (rule, tick, channel, detail). */
    static std::string formatViolation(const CheckViolation &v);
    /// @}

    /** Detail strings kept for at most this many violations. */
    static constexpr std::size_t maxStoredViolations = 64;

  private:
    /** Per-(channel, bank) timing state. */
    struct BankState
    {
        TraceRecord lastCmd{};   ///< last data-bank command
        bool hasCmd = false;
        Tick lastTagAct = 0;     ///< last tag-mat activation
        bool hasTagAct = false;
    };

    /** Per-channel rule-engine state. */
    struct ChannelState
    {
        CheckerConfig cfg;
        std::vector<BankState> banks;

        // --- command/CA stream ---
        Tick lastIssue = 0;      ///< latest issue-tick seen (monotone)
        bool hasIssue = false;
        Tick lastCa = 0;         ///< last CA-slot occupant
        bool hasCa = false;
        std::array<Tick, 4> actWindow{};  ///< last four ACTs
        unsigned actCount = 0;

        // --- HM bus ---
        Tick lastHm = 0;
        bool hasHm = false;
        bool hmPending = false;  ///< tag command awaiting its result
        TraceRecord hmCmd{};     ///< the command that set hmPending

        // --- DQ bus ---
        Tick dqEnd = 0;
        bool dqWrite = false;
        bool dqUsed = false;

        // --- refresh ---
        Tick refreshStart = 0;
        Tick refreshEnd = 0;
        bool hasRefresh = false;

        // --- flush buffer ---
        Tick idleSlot = 0;       ///< reserved-but-idle DQ slot end
        bool idleSlotValid = false;
        std::vector<Tick> drainDoneTicks;  ///< in-flight drain ends

        // --- demand buffer ---
        std::vector<std::pair<std::uint64_t, Tick>> openDemands;

        // --- page-grain remap layer (Banshee) ---
        std::vector<std::uint64_t> mappedPages;  ///< via Remap records
        bool fillOpen = false;     ///< a fill group is in progress
        std::uint32_t fillGroup = 0;
        std::uint64_t fillPage = 0;
        std::uint64_t spillPage = 0;
        bool spillValid = false;   ///< the group evicted a valid page
        unsigned fillWrites = 0;   ///< flagged writes seen this group
    };

    void check(unsigned channel, const TraceRecord &r);

    void checkCommand(ChannelState &c, const TraceRecord &r);
    void checkHmResult(ChannelState &c, const TraceRecord &r);
    void checkFlush(ChannelState &c, const TraceRecord &r);
    void checkRefresh(ChannelState &c, const TraceRecord &r);
    void checkDemand(ChannelState &c, const TraceRecord &r);
    void checkRemap(ChannelState &c, const TraceRecord &r);

    /** Audit fill/spill controller flags on a Read/Write command. */
    void checkFillFlags(ChannelState &c, const TraceRecord &r,
                        bool is_write);

    /** Reserve a DQ data interval ending at @p end. */
    void reserveDq(ChannelState &c, const TraceRecord &r, Tick end,
                   Tick burst, bool is_write, bool refresh_exempt);

    void violation(const TraceRecord &r, const char *rule,
                   std::string detail);

    std::vector<ChannelState> _chans;
    std::vector<CheckViolation> _stored;
    std::uint64_t _violationCount = 0;
    std::uint64_t _events = 0;
    bool _finished = false;
};

} // namespace tsim

#endif // TSIM_CHECK_CHECK_HH
