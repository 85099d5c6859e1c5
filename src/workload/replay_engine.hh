/**
 * @file
 * Trace-replay front end (DESIGN.md §14).
 *
 * Streams a recorded .tdtz request sequence into the DRAM-cache
 * controller through the same RequestEngine interface the synthetic
 * CoreEngine implements, so any controller/device configuration can
 * be driven by a captured stream instead of a generator. Two modes:
 *
 *  - Timed (default): each record issues at its recorded absolute
 *    tick (the running sum of inter-arrival deltas). Controller
 *    backpressure delays the stream — records never reorder — and
 *    is retried every retryInterval. This mode reproduces a capture
 *    run's demand timing exactly, which is what the CI
 *    replay-equivalence gate rests on.
 *  - Afap (as fast as possible): inter-arrival deltas are ignored;
 *    the next record issues as soon as the controller accepts it and
 *    an MLP slot is free. Device throughput, not the recorded clock,
 *    paces the run — the mode for stress and capacity studies.
 *
 * Like the CoreEngine, the replay engine is MLP-limited (bounded
 * outstanding reads; writes are fire-and-forget) and schedules all
 * of its events on the System's event queue.
 */

#ifndef TSIM_WORKLOAD_REPLAY_ENGINE_HH
#define TSIM_WORKLOAD_REPLAY_ENGINE_HH

#include <string>

#include "dcache/dram_cache.hh"
#include "mem/types.hh"
#include "trace/tdtz.hh"
#include "workload/request_engine.hh"

namespace tsim
{

/** Replay pacing modes. */
enum class ReplayMode
{
    Timed,  ///< issue at recorded ticks (timing-faithful)
    Afap,   ///< issue on acceptance (back-pressure-driven)
};

/** Printable mode name ("timed" / "afap"). */
const char *replayModeName(ReplayMode m);

/** Parse "timed"/"afap"; false on anything else. */
bool parseReplayMode(const std::string &s, ReplayMode &out);

/** Replay parameters (SystemConfig embeds one). */
struct ReplayConfig
{
    std::string path;  ///< .tdtz input; empty = synthetic front end
    ReplayMode mode = ReplayMode::Timed;

    /**
     * Outstanding demand-read cap; 0 = unlimited. Timed replay
     * defaults to unlimited because the recorded stream already
     * embodies the capture run's concurrency; capping it would
     * distort the recorded timing.
     */
    unsigned mlp = 0;

    bool operator==(const ReplayConfig &) const = default;
};

/** Drives the DRAM cache with a recorded .tdtz request stream. */
class TraceReplayEngine : public RequestEngine
{
  public:
    /** Opens cfg.path; fatal on unreadable/corrupt input. */
    TraceReplayEngine(EventQueue &eq, std::string name,
                      const ReplayConfig &cfg, DramCacheCtrl &dcache);

    void start() override;

    bool
    done() const override
    {
        return _exhausted && _outstanding == 0;
    }

    /**
     * Functionally replay the first @p budget records into the
     * DRAM-cache tags (no simulated time), via a private cursor —
     * the replay cursor itself stays at record 0.
     */
    void warmup(std::uint64_t budget) override;

    void regStats(StatGroup &g) const override;
    void dumpDebug(std::FILE *f) const override;

    /** Footer totals of the stream being replayed. */
    const TdtzInfo &traceInfo() const { return _reader.info(); }

    /** @name Statistics. */
    /// @{
    Scalar recordsIssued;       ///< trace records fully issued
    /// @}

  private:
    /**
     * Issue every record that is due (Timed) or acceptable (Afap),
     * in stream order; schedules its own continuation when blocked
     * on time or backpressure. MLP blocks are resumed by
     * readReturned() instead.
     */
    void pump();

    /** Load the next record into the line-expansion cursor. */
    void fetchNext();

    /** Issue the line at the cursor. False on backpressure. */
    bool issueLine();

    void readReturned(const MemPacket &pkt);
    void schedulePump(Tick when);

    ReplayConfig _cfg;
    TdtzReader _reader;

    // Line-expansion cursor over the current record (a record larger
    // than one line issues one demand per touched line, same tick).
    bool _haveCur = false;
    bool _exhausted = false;  ///< no current record and none left
    ReplayRecord _cur{};
    Addr _curLine = 0;     ///< next line of the current record
    Addr _curLastLine = 0; ///< last line of the current record
    Tick _curTick = 0;     ///< recorded absolute issue tick (Timed)

    unsigned _outstanding = 0;  ///< in-flight demand reads
    bool _waitingMlp = false;   ///< pump parked on a full MLP window
    bool _pumpScheduled = false;
    PacketId _nextPktId = 1;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_REPLAY_ENGINE_HH
