/**
 * @file
 * Cycle-level structured event tracing (DESIGN.md §10).
 *
 * The simulator's headline behaviours — ActRd/ActWr lockstep, HM-bus
 * responses, flush-buffer pushes and drains, early tag probes — live
 * in cycle-level interleavings that end-of-run statistics cannot
 * show. This subsystem records them as fixed-size binary records:
 *
 *  - Each traced component (every DramChannel, plus the DRAM-cache
 *    controller front-end) owns a TraceBuffer: a fixed-capacity ring
 *    of TraceRecord slots. record() is a handful of stores — no
 *    allocation, no branching beyond a full-check — so hooks are
 *    cheap enough to leave in release builds.
 *  - A Tracer owns the per-channel buffers plus (optionally) a
 *    writer that appends full rings to a `.tdt` file after a
 *    versioned header and the run's manifest. Without a writer the
 *    rings wrap, retaining the most recent events for post-mortem
 *    inspection.
 *  - Records carry a global emission sequence number, so a loader can
 *    reconstruct the exact total order of emission even though
 *    per-channel rings spill to the file in blocks. Emission order is
 *    a function of simulated execution order only, which makes traces
 *    byte-comparable across runs: serial and `--jobs N` sweeps must
 *    produce identical `.tdt` files (CI gates on this).
 *
 * Tracing is chosen per run (SystemConfig::tracePath): without it the
 * components' TraceBuffer pointers stay null and each hook site costs
 * one null test (src/sim/event_bus.hh).
 */

#ifndef TSIM_TRACE_TRACE_HH
#define TSIM_TRACE_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/ticks.hh"

namespace tsim
{

/** Always true; only perfbench's harness still reads it. */
constexpr bool traceCompiledIn() { return true; }

/** Traced event kinds. Values are part of the .tdt format. */
enum class TraceKind : std::uint8_t
{
    Read = 0,       ///< conventional ACT+RD issued
    Write = 1,      ///< conventional ACT+WR issued
    ActRd = 2,      ///< TDRAM/NDC lockstep tag+data read issued
    ActWr = 3,      ///< TDRAM/NDC lockstep tag+data write issued
    Probe = 4,      ///< early tag probe issued
    HmResult = 5,   ///< HM-bus (or column-tied) hit/miss response
    FlushPush = 6,  ///< dirty victim pushed into the flush buffer
    FlushDrain = 7, ///< flush-buffer entry drained to the controller
    Refresh = 8,    ///< all-bank refresh started
    DemandStart = 9, ///< demand packet accepted by the controller
    DemandDone = 10, ///< demand packet responded
    Remap = 11,      ///< page-grain remap-table install/evict (Banshee)
    NumKinds,
};

/** Printable name of a TraceKind ("?" for out-of-range values). */
const char *traceKindName(std::uint8_t kind);

/** Flush-drain causes carried in TraceRecord::extra (FlushDrain). */
enum class DrainCause : std::uint32_t
{
    MissClean = 0,  ///< unloaded in an unused read-miss-clean DQ slot
    Refresh = 1,    ///< unloaded during a refresh window
    Forced = 2,     ///< explicit drain command (buffer full / NDC RES)
};

/**
 * One traced event. Fixed-size, trivially copyable: the .tdt file is
 * a header and a manifest plus a flat array of these, written in
 * spill order and reordered by `seq` on load.
 *
 * Field use by kind:
 *  - Read/Write/ActRd/ActWr: aux = issue-to-data-done latency in
 *    ticks; extra = packed tag bits (ActRd/ActWr) or row-hit flag,
 *    plus controller flags (traceFillFlag/traceSpillFlag + group id)
 *    on page-grain Read/Write.
 *  - Probe/HmResult: aux = result latency in ticks; extra = packed
 *    tag bits.
 *  - FlushPush/FlushDrain: addr = victim line; aux = buffer depth
 *    after the operation; extra = DrainCause (drains only).
 *  - Refresh: aux = tRFC in ticks.
 *  - DemandStart: extra = 0 read / 1 write. DemandDone: aux =
 *    end-to-end latency in ticks; extra = AccessOutcome.
 *  - Remap: addr = installed page; aux = evicted page; extra bit 0 =
 *    victim valid, bits 16-31 = fill-group id.
 */
struct TraceRecord
{
    Tick tick = 0;            ///< simulated time of the event
    std::uint64_t seq = 0;    ///< global emission order
    std::uint64_t addr = 0;   ///< line address (0 when n/a)
    std::uint64_t aux = 0;    ///< kind-specific payload (see above)
    std::uint8_t kind = 0;    ///< TraceKind
    std::uint8_t channel = 0; ///< emitting buffer id
    std::uint16_t bank = 0;   ///< bank, or bankNone
    std::uint32_t extra = 0;  ///< kind-specific flags
};

static_assert(sizeof(TraceRecord) == 40,
              "TraceRecord layout is part of the .tdt format");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord must be memcpy-able");

/** Bank value for events with no meaningful bank. */
constexpr std::uint16_t traceBankNone = 0xffff;

/**
 * @name Controller-flag bits in TraceRecord::extra (Read/Write).
 * Page-grain controllers (Banshee) tag the cache-side accesses they
 * issue on behalf of a fill group; the checker audits them against
 * the group opened by the preceding Remap record. Bit 0 stays the
 * row-hit flag, so these start at bit 8.
 */
/// @{
constexpr std::uint32_t traceFillFlag = 1u << 8;  ///< page-fill write
constexpr std::uint32_t traceSpillFlag = 1u << 9; ///< victim-spill read
constexpr unsigned traceGroupShift = 16;          ///< fill-group id
constexpr std::uint32_t traceGroupMask = 0xffffu;
/// @}

/** Pack a tag result into TraceRecord::extra. */
constexpr std::uint32_t
packTagBits(bool hit, bool valid, bool dirty, bool via_probe)
{
    return (hit ? 1u : 0u) | (valid ? 2u : 0u) | (dirty ? 4u : 0u) |
           (via_probe ? 8u : 0u);
}

/**
 * .tdt file header (40 bytes, little-endian, versioned). The file is
 * this header, then manifestBytes of manifest, then the records.
 */
struct TraceFileHeader
{
    std::uint32_t magic = magicValue;
    std::uint32_t version = versionValue;
    std::uint32_t recordBytes = sizeof(TraceRecord);
    std::uint32_t channels = 0;    ///< buffer count of the writer
    std::uint64_t recordCount = 0; ///< patched on close
    /**
     * Records lost to ring wraparound across every channel, patched
     * on close alongside recordCount. Zero for sinked runs (full
     * rings spill instead of wrapping), so readers treat a nonzero
     * value as "this trace is silently incomplete".
     */
    std::uint64_t droppedCount = 0;
    /** Length of the manifest, the writer's opaque run description. */
    std::uint64_t manifestBytes = 0;

    static constexpr std::uint32_t magicValue = 0x54445431; ///< "1TDT"
    /** 3: the manifest holds every field of the config's field list. */
    static constexpr std::uint32_t versionValue = 3;
};

static_assert(sizeof(TraceFileHeader) == 40,
              "TraceFileHeader layout is part of the .tdt format");

class Tracer;

/**
 * Per-channel ring of TraceRecord slots.
 *
 * With a sinked owner the ring spills to the trace file whenever it
 * fills (nothing is lost); without one it wraps, overwriting the
 * oldest record and counting the loss. Either way record() itself
 * never allocates.
 */
class TraceBuffer
{
  public:
    TraceBuffer(Tracer &owner, std::uint8_t channel,
                std::uint32_t capacity);

    /** Append one event (inline fast path; spill is out-of-line). */
    void
    record(TraceKind kind, Tick tick, std::uint64_t addr,
           std::uint16_t bank, std::uint64_t aux, std::uint32_t extra)
    {
        if (_size == _capacity)
            overflow();
        TraceRecord &r = _ring[_head];
        r.tick = tick;
        r.seq = nextSeq();
        r.addr = addr;
        r.aux = aux;
        r.kind = static_cast<std::uint8_t>(kind);
        r.channel = _channel;
        r.bank = bank;
        r.extra = extra;
        _head = _head + 1 == _capacity ? 0 : _head + 1;
        ++_size;
    }

    std::uint8_t channel() const { return _channel; }
    std::uint32_t capacity() const { return _capacity; }
    std::uint32_t size() const { return _size; }

    /** Records dropped to wraparound (sink-less buffers only). */
    std::uint64_t dropped() const { return _dropped; }

    /** Buffered (un-spilled) records, oldest first. */
    std::vector<TraceRecord> snapshot() const;

    /** Spill buffered records to the owner's writer (if any). */
    void flush();

  private:
    /** Full ring: spill to the file or overwrite the oldest. */
    void overflow();

    std::uint64_t nextSeq();

    Tracer &_owner;
    std::vector<TraceRecord> _ring;
    std::uint32_t _capacity;
    std::uint32_t _head = 0;  ///< next write slot
    std::uint32_t _size = 0;  ///< valid records in the ring
    std::uint64_t _dropped = 0;
    std::uint8_t _channel;
};

/**
 * Owns the per-channel TraceBuffers and the optional .tdt writer.
 * One Tracer per System (single simulation thread): buffers share
 * the Tracer's emission-sequence counter without synchronization.
 */
class Tracer
{
  public:
    /** Default slots per buffer. */
    static constexpr std::uint32_t defaultRingCapacity = 4096;

    /**
     * @param path     .tdt output file; empty = memory-only (rings
     *                 wrap, nothing is written).
     * @param channels number of trace buffers to create.
     * @param ringCapacity slots per buffer.
     * @param manifest bytes written after the header and returned
     *                 by loadTrace() as TraceFile::manifest.
     */
    Tracer(std::string path, unsigned channels,
           std::uint32_t ringCapacity = defaultRingCapacity,
           const std::string &manifest = {});

    /** Flushes and closes the file (if any). */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    TraceBuffer &buffer(unsigned channel) { return *_buffers[channel]; }

    /** Spill every buffer and fsync the record count to the header. */
    void flushAll();

    bool sinked() const { return _file != nullptr; }

    /** Records dropped to ring wraparound, summed over channels. */
    std::uint64_t droppedTotal() const;

  private:
    friend class TraceBuffer;

    /** Append @p n records to the file (writer must exist). */
    void sink(const TraceRecord *recs, std::size_t n);

    std::string _path;
    std::FILE *_file = nullptr;
    TraceFileHeader _header;
    std::uint64_t _written = 0;
    std::uint64_t _nextSeq = 0;
    std::vector<std::unique_ptr<TraceBuffer>> _buffers;
};

inline std::uint64_t
TraceBuffer::nextSeq()
{
    return _owner._nextSeq++;
}

/** A loaded .tdt file: header, manifest, records sorted by seq. */
struct TraceFile
{
    TraceFileHeader header{};
    std::string manifest;              ///< the writer's bytes, verbatim
    std::vector<TraceRecord> records;  ///< sorted by seq
};

/**
 * Result of loading a .tdt file. `ok` is false (with `error` set) on
 * unreadable, truncated (records or manifest), or version-mismatched
 * input; the error names the file.
 */
struct TraceLoadResult
{
    bool ok = false;
    std::string error;
    TraceFile trace;
};

/** Load and validate @p path; never throws. */
TraceLoadResult loadTrace(const std::string &path);

/** One-line human rendering of @p r (used by trace_tool diff). */
std::string formatTraceRecord(const TraceRecord &r);

} // namespace tsim

#endif // TSIM_TRACE_TRACE_HH
