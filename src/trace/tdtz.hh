/**
 * @file
 * Compressed request-trace container (.tdtz, DESIGN.md §14).
 *
 * Where a .tdt file records every *device event* of one run (40 bytes
 * each, exact replay of what happened), a .tdtz file records only the
 * *demand request stream* — address, size, read/write, inter-arrival
 * delta — which is what a replay front end needs to drive any
 * controller/device configuration. The container is built for the
 * record-once/replay-many methodology:
 *
 *  - Records are varint/delta-encoded inside fixed-size frames. Each
 *    frame restarts its delta baseline, so frames decode
 *    independently of each other.
 *  - Every frame carries an FNV-1a checksum over its stored payload;
 *    a flipped byte anywhere in a frame is rejected at decode time.
 *  - The footer holds a frame index (file offset, first record,
 *    count) plus stream totals (record count, footprint bound, time
 *    span), so readers can validate the frame layout and size main
 *    memory without decoding the stream.
 *  - Frame payloads are zstd-compressed when the build found zstd
 *    (codec 1); otherwise the varint payload is stored raw (codec 0).
 *    The record-level content is identical either way — the codec
 *    only changes the bytes between frame header and checksum.
 *
 * All multi-byte header/footer fields are little-endian (the only
 * byte order this simulator targets; static_asserts pin the layout).
 */

#ifndef TSIM_TRACE_TDTZ_HH
#define TSIM_TRACE_TDTZ_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/types.hh"
#include "sim/ticks.hh"

namespace tsim
{

struct TraceFile;

/** One replayable demand request. */
struct ReplayRecord
{
    Addr addr = 0;              ///< byte address (line-aligned on use)
    std::uint32_t size = lineBytes;  ///< request bytes
    bool isWrite = false;
    /**
     * Ticks since the previous record's issue (first record: since
     * tick 0). Absolute issue time is the running sum.
     */
    Tick delta = 0;

    bool
    operator==(const ReplayRecord &o) const
    {
        return addr == o.addr && size == o.size &&
               isWrite == o.isWrite && delta == o.delta;
    }
};

/**
 * Set @p end to lineAlign(addr + size - 1) + lineBytes, the exclusive
 * end of the lines @p r touches (size 0 counts as one byte). Returns
 * false, leaving @p end unset, if that end wraps past 2^64.
 */
bool recordLineEnd(const ReplayRecord &r, std::uint64_t &end);

/** Payload codecs. Part of the format; new codecs append. */
enum class TdtzCodec : std::uint32_t
{
    Varint = 0,  ///< raw varint/delta payload (always available)
    Zstd = 1,    ///< zstd-compressed varint/delta payload
};

/** .tdtz file header (32 bytes). */
struct TdtzFileHeader
{
    std::uint32_t magic = magicValue;
    std::uint32_t version = versionValue;
    std::uint32_t codec = 0;         ///< TdtzCodec
    std::uint32_t frameRecords = 0;  ///< target records per frame
    std::uint64_t reserved0 = 0;
    std::uint64_t reserved1 = 0;

    static constexpr std::uint32_t magicValue = 0x5a445431;  ///< "1TDZ"
    static constexpr std::uint32_t versionValue = 1;
};

static_assert(sizeof(TdtzFileHeader) == 32,
              "TdtzFileHeader layout is part of the .tdtz format");
static_assert(std::is_trivially_copyable_v<TdtzFileHeader>);

/** Per-frame header (24 bytes), immediately followed by the payload. */
struct TdtzFrameHeader
{
    std::uint32_t magic = magicValue;
    std::uint32_t records = 0;       ///< records in this frame
    std::uint32_t payloadBytes = 0;  ///< stored (possibly compressed)
    std::uint32_t rawBytes = 0;      ///< varint payload before codec
    std::uint64_t checksum = 0;      ///< FNV-1a 64 of stored payload

    static constexpr std::uint32_t magicValue = 0x465a4454;  ///< "TDZF"
};

static_assert(sizeof(TdtzFrameHeader) == 24,
              "TdtzFrameHeader layout is part of the .tdtz format");
static_assert(std::is_trivially_copyable_v<TdtzFrameHeader>);

/** One footer-index entry (24 bytes) describing one frame. */
struct TdtzIndexEntry
{
    std::uint64_t offset = 0;       ///< file offset of the frame header
    std::uint64_t firstRecord = 0;  ///< stream index of first record
    std::uint64_t records = 0;
};

static_assert(sizeof(TdtzIndexEntry) == 24,
              "TdtzIndexEntry layout is part of the .tdtz format");

/** Stream totals stored in the footer (64 bytes). */
struct TdtzInfo
{
    std::uint64_t records = 0;
    /**
     * lineAlign(max addr) + lineBytes over the stream: the physical
     * footprint bound replay uses to size main memory.
     */
    std::uint64_t maxLineAddr = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t spanTicks = 0;  ///< sum of all deltas
    std::uint64_t frames = 0;
    std::uint64_t reserved0 = 0;
    std::uint64_t reserved1 = 0;
};

static_assert(sizeof(TdtzInfo) == 64,
              "TdtzInfo layout is part of the .tdtz format");

/** Footer tail (16 bytes) at the very end of the file. */
struct TdtzFooterTail
{
    std::uint64_t indexOffset = 0;  ///< offset of the first index entry
    std::uint32_t indexEntries = 0;
    std::uint32_t magic = magicValue;

    static constexpr std::uint32_t magicValue = 0x5a445446;  ///< "FTDZ"
};

static_assert(sizeof(TdtzFooterTail) == 16,
              "TdtzFooterTail layout is part of the .tdtz format");

/**
 * Nominal bytes of one record in a flat (uncompressed, unpacked)
 * encoding: 8 addr + 8 delta + 4 size + 1 flags, aligned to 24. The
 * reference point for the container's compression ratio, which
 * Tdtz.ProjectsDemandsFromEventTrace requires to be at least 2.
 */
constexpr std::uint64_t tdtzFlatRecordBytes = 24;

/** True when this build can write/read zstd frames (codec 1). */
bool tdtzZstdAvailable();

/** FNV-1a 64 over a byte range (the frame checksum). */
std::uint64_t tdtzChecksum(const void *data, std::size_t n);

/**
 * Streaming .tdtz writer. append() buffers one frame's records;
 * frames are encoded and flushed as they fill, the index/footer on
 * finish() (or destruction). Fatal on I/O errors (a half-written
 * trace is useless) and on requesting zstd in a build without it.
 */
class TdtzWriter
{
  public:
    /**
     * @param path   Output file.
     * @param codec  Payload codec; default: zstd when available.
     * @param frameRecords Records per frame (tuning only; any value
     *               >= 1 produces a valid file).
     */
    explicit TdtzWriter(std::string path,
                        TdtzCodec codec = tdtzZstdAvailable()
                                              ? TdtzCodec::Zstd
                                              : TdtzCodec::Varint,
                        std::uint32_t frameRecords = 4096);
    ~TdtzWriter();

    TdtzWriter(const TdtzWriter &) = delete;
    TdtzWriter &operator=(const TdtzWriter &) = delete;

    /** Add @p r; fatal if its range wraps (see recordLineEnd). */
    void append(const ReplayRecord &r);

    /** Flush the open frame, write the footer, close the file. */
    void finish();

  private:
    void flushFrame();

    std::string _path;
    std::FILE *_file = nullptr;
    TdtzCodec _codec;
    std::uint32_t _frameRecords;
    std::vector<ReplayRecord> _pending;  ///< open frame
    std::vector<TdtzIndexEntry> _index;
    TdtzInfo _info;
    bool _finished = false;
};

/**
 * Streaming .tdtz reader: one decoded frame in memory at a time.
 *
 * open() validates the header, footer, and index (rejecting
 * truncated files); next() decodes frame-by-frame, verifying each
 * frame's checksum before trusting its payload. Never throws —
 * failures set error() and make next() return false.
 */
class TdtzReader
{
  public:
    TdtzReader() = default;
    ~TdtzReader();

    TdtzReader(const TdtzReader &) = delete;
    TdtzReader &operator=(const TdtzReader &) = delete;

    /** Open and validate @p path. False (with error()) on failure. */
    bool open(const std::string &path);

    /**
     * Decode the next record. False at end-of-stream or on error
     * (error() distinguishes: empty string means clean EOF).
     */
    bool next(ReplayRecord &out);

    /** Stream index of the record the next next() will return. */
    std::uint64_t position() const { return _pos; }

    const TdtzInfo &info() const { return _infoBlock; }
    const TdtzFileHeader &header() const { return _header; }
    const std::vector<TdtzIndexEntry> &index() const { return _index; }
    const std::string &error() const { return _error; }
    bool ok() const { return _error.empty(); }

  private:
    /** Load + verify + decode frame @p fi into _frame. */
    bool loadFrame(std::uint64_t fi);
    bool fail(const std::string &msg);

    std::string _path;
    std::FILE *_file = nullptr;
    TdtzFileHeader _header{};
    TdtzInfo _infoBlock{};
    std::vector<TdtzIndexEntry> _index;
    std::vector<ReplayRecord> _frame;  ///< decoded current frame
    std::uint64_t _frameIdx = 0;       ///< index of _frame (if loaded)
    bool _frameLoaded = false;
    std::size_t _frameCursor = 0;      ///< next record within _frame
    std::uint64_t _pos = 0;            ///< stream position
    std::string _error;
};

/**
 * Project the demand stream out of a loaded .tdt event trace: every
 * DemandStart record (acceptance order = seq order) becomes one
 * ReplayRecord with the acceptance-tick deltas. Returns the records;
 * used by `trace_tool convert`.
 */
std::vector<ReplayRecord> projectDemands(const TraceFile &trace);

/**
 * Parse the simple external text trace format, one request per line
 * ('#' comments and blank lines ignored):
 *
 *     R <addr> [<size> [<delta_ns>]]
 *     W <addr> [<size> [<delta_ns>]]
 *
 * addr accepts 0x-hex or decimal; size (decimal bytes, at most
 * UINT32_MAX) defaults to one line (64 B); delta_ns (fractional ok)
 * defaults to 0. Returns false with @p error set on malformed input,
 * including a fifth token and a range that wraps past 2^64.
 */
bool parseTextTrace(const std::string &path,
                    std::vector<ReplayRecord> &out, std::string &error);

} // namespace tsim

#endif // TSIM_TRACE_TDTZ_HH
