/**
 * @file
 * .tdtz request-trace container: varint/delta frame codec, FNV-1a
 * frame checksums, footer index, streaming writer/reader, demand
 * projection from .tdt event traces, and the external text format.
 */

#include "trace/tdtz.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "trace/trace.hh"

#ifndef TDRAM_HAVE_ZSTD
#define TDRAM_HAVE_ZSTD 0
#endif

#if TDRAM_HAVE_ZSTD
#include <zstd.h>
#endif

namespace tsim
{

namespace
{

/** LEB128 append of an unsigned 64-bit value. */
void
putVarint(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(v));
}

/** LEB128 read; false on truncation or >10-byte runaway. */
bool
getVarint(const std::uint8_t *buf, std::size_t n, std::size_t &pos,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (pos >= n)
            return false;
        const std::uint8_t b = buf[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            out = v;
            return true;
        }
    }
    return false;
}

constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

constexpr std::uint8_t flagWrite = 1u << 0;
constexpr std::uint8_t flagSize = 1u << 1;
constexpr std::uint8_t flagKnown = flagWrite | flagSize;

/**
 * Encode one frame's records into the varint payload. The delta
 * baseline (prevAddr = 0, prevSize = lineBytes) restarts here, which
 * is what makes frames independently decodable.
 */
void
encodeFrame(const std::vector<ReplayRecord> &recs,
            std::vector<std::uint8_t> &out)
{
    out.clear();
    Addr prev_addr = 0;
    std::uint32_t prev_size = lineBytes;
    for (const ReplayRecord &r : recs) {
        std::uint8_t flags = r.isWrite ? flagWrite : 0;
        if (r.size != prev_size)
            flags |= flagSize;
        out.push_back(flags);
        putVarint(out, zigzag(static_cast<std::int64_t>(r.addr) -
                              static_cast<std::int64_t>(prev_addr)));
        putVarint(out, r.delta);
        if (flags & flagSize)
            putVarint(out, r.size);
        prev_addr = r.addr;
        prev_size = r.size;
    }
}

/** Decode @p records records from a varint payload; false on error. */
bool
decodeFrame(const std::uint8_t *buf, std::size_t n,
            std::uint32_t records, std::vector<ReplayRecord> &out)
{
    out.clear();
    out.reserve(records);
    std::size_t pos = 0;
    Addr prev_addr = 0;
    std::uint32_t prev_size = lineBytes;
    for (std::uint32_t i = 0; i < records; ++i) {
        if (pos >= n)
            return false;
        const std::uint8_t flags = buf[pos++];
        if (flags & ~flagKnown)
            return false;
        std::uint64_t zz = 0;
        std::uint64_t delta = 0;
        if (!getVarint(buf, n, pos, zz) ||
            !getVarint(buf, n, pos, delta)) {
            return false;
        }
        ReplayRecord r;
        r.addr = static_cast<Addr>(static_cast<std::int64_t>(prev_addr) +
                                   unzigzag(zz));
        r.delta = delta;
        r.isWrite = (flags & flagWrite) != 0;
        r.size = prev_size;
        if (flags & flagSize) {
            std::uint64_t sz = 0;
            if (!getVarint(buf, n, pos, sz) || sz == 0 ||
                sz > ~std::uint32_t{0}) {
                return false;
            }
            r.size = static_cast<std::uint32_t>(sz);
        }
        prev_addr = r.addr;
        prev_size = r.size;
        out.push_back(r);
    }
    return pos == n;  // trailing garbage is corruption too
}

} // namespace

bool
tdtzZstdAvailable()
{
#if TDRAM_HAVE_ZSTD
    return true;
#else
    return false;
#endif
}

std::uint64_t
tdtzChecksum(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 1099511628211ULL;
    return h;
}

// ---------------------------------------------------------------------
// TdtzWriter
// ---------------------------------------------------------------------

TdtzWriter::TdtzWriter(std::string path, TdtzCodec codec,
                       std::uint32_t frameRecords)
    : _path(std::move(path)), _codec(codec),
      _frameRecords(std::max(1u, frameRecords))
{
    fatal_if(_codec == TdtzCodec::Zstd && !tdtzZstdAvailable(),
             "this build has no zstd; write '%s' with the varint "
             "codec instead", _path.c_str());
    _file = std::fopen(_path.c_str(), "wb");
    fatal_if(!_file, "cannot open '%s' for writing", _path.c_str());
    TdtzFileHeader hdr;
    hdr.codec = static_cast<std::uint32_t>(_codec);
    hdr.frameRecords = _frameRecords;
    fatal_if(std::fwrite(&hdr, sizeof(hdr), 1, _file) != 1,
             "cannot write header to '%s'", _path.c_str());
}

TdtzWriter::~TdtzWriter()
{
    finish();
}

void
TdtzWriter::append(const ReplayRecord &r)
{
    panic_if(_finished, "append to a finished .tdtz writer");
    _pending.push_back(r);
    ++_info.records;
    _info.maxLineAddr = std::max<std::uint64_t>(
        _info.maxLineAddr,
        lineAlign(r.addr + (r.size ? r.size - 1 : 0)) + lineBytes);
    if (r.isWrite)
        ++_info.writes;
    else
        ++_info.reads;
    _info.spanTicks += r.delta;
    if (_pending.size() >= _frameRecords)
        flushFrame();
}

void
TdtzWriter::flushFrame()
{
    if (_pending.empty())
        return;
    std::vector<std::uint8_t> raw;
    encodeFrame(_pending, raw);

    std::vector<std::uint8_t> stored;
#if TDRAM_HAVE_ZSTD
    if (_codec == TdtzCodec::Zstd) {
        stored.resize(ZSTD_compressBound(raw.size()));
        const std::size_t n =
            ZSTD_compress(stored.data(), stored.size(), raw.data(),
                          raw.size(), /*level=*/3);
        fatal_if(ZSTD_isError(n), "zstd compression failed on '%s': %s",
                 _path.c_str(), ZSTD_getErrorName(n));
        stored.resize(n);
    }
#endif
    const std::vector<std::uint8_t> &payload =
        _codec == TdtzCodec::Zstd ? stored : raw;

    TdtzIndexEntry ie;
    ie.offset = static_cast<std::uint64_t>(std::ftell(_file));
    ie.firstRecord = _info.records - _pending.size();
    ie.records = _pending.size();
    _index.push_back(ie);

    TdtzFrameHeader fh;
    fh.records = static_cast<std::uint32_t>(_pending.size());
    fh.payloadBytes = static_cast<std::uint32_t>(payload.size());
    fh.rawBytes = static_cast<std::uint32_t>(raw.size());
    fh.checksum = tdtzChecksum(payload.data(), payload.size());
    fatal_if(std::fwrite(&fh, sizeof(fh), 1, _file) != 1 ||
                 (!payload.empty() &&
                  std::fwrite(payload.data(), 1, payload.size(),
                              _file) != payload.size()),
             "short write to '%s'", _path.c_str());
    _pending.clear();
}

void
TdtzWriter::finish()
{
    if (_finished || !_file)
        return;
    _finished = true;
    flushFrame();
    _info.frames = _index.size();

    TdtzFooterTail tail;
    tail.indexOffset = static_cast<std::uint64_t>(std::ftell(_file));
    tail.indexEntries = static_cast<std::uint32_t>(_index.size());
    const bool ok =
        (_index.empty() ||
         std::fwrite(_index.data(), sizeof(TdtzIndexEntry),
                     _index.size(), _file) == _index.size()) &&
        std::fwrite(&_info, sizeof(_info), 1, _file) == 1 &&
        std::fwrite(&tail, sizeof(tail), 1, _file) == 1;
    fatal_if(!ok, "short write to '%s'", _path.c_str());
    std::fclose(_file);
    _file = nullptr;
}

// ---------------------------------------------------------------------
// TdtzReader
// ---------------------------------------------------------------------

TdtzReader::~TdtzReader()
{
    if (_file)
        std::fclose(_file);
}

bool
TdtzReader::fail(const std::string &msg)
{
    _error = "'" + _path + "': " + msg;
    return false;
}

bool
TdtzReader::open(const std::string &path)
{
    _path = path;
    _file = std::fopen(path.c_str(), "rb");
    if (!_file)
        return fail("cannot open");

    if (std::fread(&_header, sizeof(_header), 1, _file) != 1)
        return fail("shorter than a .tdtz header");
    if (_header.magic != TdtzFileHeader::magicValue)
        return fail("not a .tdtz trace (bad magic)");
    if (_header.version != TdtzFileHeader::versionValue) {
        return fail("unsupported version " +
                    std::to_string(_header.version));
    }
    if (_header.codec > static_cast<std::uint32_t>(TdtzCodec::Zstd))
        return fail("unknown codec " + std::to_string(_header.codec));
    if (_header.codec == static_cast<std::uint32_t>(TdtzCodec::Zstd) &&
        !tdtzZstdAvailable()) {
        return fail("zstd-compressed trace but this build has no zstd");
    }

    std::fseek(_file, 0, SEEK_END);
    const long end = std::ftell(_file);
    const std::uint64_t file_size = static_cast<std::uint64_t>(end);
    if (file_size < sizeof(TdtzFileHeader) + sizeof(TdtzInfo) +
                        sizeof(TdtzFooterTail)) {
        return fail("truncated (no footer)");
    }

    TdtzFooterTail tail;
    std::fseek(_file, end - static_cast<long>(sizeof(tail)), SEEK_SET);
    if (std::fread(&tail, sizeof(tail), 1, _file) != 1)
        return fail("cannot read footer tail");
    if (tail.magic != TdtzFooterTail::magicValue)
        return fail("truncated or corrupt (bad footer magic)");

    const std::uint64_t index_bytes =
        static_cast<std::uint64_t>(tail.indexEntries) *
        sizeof(TdtzIndexEntry);
    const std::uint64_t footer_bytes =
        index_bytes + sizeof(TdtzInfo) + sizeof(tail);
    if (tail.indexOffset < sizeof(TdtzFileHeader) ||
        tail.indexOffset + footer_bytes != file_size) {
        return fail("corrupt footer (index does not fit the file)");
    }

    std::fseek(_file, static_cast<long>(tail.indexOffset), SEEK_SET);
    _index.resize(tail.indexEntries);
    if (tail.indexEntries > 0 &&
        std::fread(_index.data(), sizeof(TdtzIndexEntry),
                   _index.size(), _file) != _index.size()) {
        return fail("cannot read frame index");
    }
    if (std::fread(&_infoBlock, sizeof(_infoBlock), 1, _file) != 1)
        return fail("cannot read info block");

    if (_infoBlock.frames != _index.size())
        return fail("info/index frame-count mismatch");
    std::uint64_t expect = 0;
    for (const TdtzIndexEntry &ie : _index) {
        if (ie.firstRecord != expect || ie.records == 0 ||
            ie.offset < sizeof(TdtzFileHeader) ||
            ie.offset + sizeof(TdtzFrameHeader) > tail.indexOffset) {
            return fail("corrupt frame index");
        }
        expect += ie.records;
    }
    if (expect != _infoBlock.records)
        return fail("index record count disagrees with info block");
    return true;
}

bool
TdtzReader::loadFrame(std::uint64_t fi)
{
    const TdtzIndexEntry &ie = _index[fi];
    std::fseek(_file, static_cast<long>(ie.offset), SEEK_SET);
    TdtzFrameHeader fh;
    if (std::fread(&fh, sizeof(fh), 1, _file) != 1)
        return fail("truncated frame header");
    if (fh.magic != TdtzFrameHeader::magicValue)
        return fail("bad frame magic (frame " + std::to_string(fi) +
                    ")");
    if (fh.records != ie.records)
        return fail("frame/index record-count mismatch (frame " +
                    std::to_string(fi) + ")");

    std::vector<std::uint8_t> stored(fh.payloadBytes);
    if (!stored.empty() &&
        std::fread(stored.data(), 1, stored.size(), _file) !=
            stored.size()) {
        return fail("truncated frame payload (frame " +
                    std::to_string(fi) + ")");
    }
    if (tdtzChecksum(stored.data(), stored.size()) != fh.checksum) {
        return fail("frame checksum mismatch (frame " +
                    std::to_string(fi) + ": corrupt payload)");
    }

    const std::uint8_t *raw = stored.data();
    std::size_t raw_size = stored.size();
    std::vector<std::uint8_t> scratch;
#if TDRAM_HAVE_ZSTD
    if (_header.codec == static_cast<std::uint32_t>(TdtzCodec::Zstd)) {
        scratch.resize(fh.rawBytes);
        const std::size_t n =
            ZSTD_decompress(scratch.data(), scratch.size(),
                            stored.data(), stored.size());
        if (ZSTD_isError(n) || n != fh.rawBytes) {
            return fail("zstd decompression failed (frame " +
                        std::to_string(fi) + ")");
        }
        raw = scratch.data();
        raw_size = scratch.size();
    }
#endif
    if (raw_size != fh.rawBytes)
        return fail("frame raw-size mismatch (frame " +
                    std::to_string(fi) + ")");
    if (!decodeFrame(raw, raw_size, fh.records, _frame))
        return fail("malformed varint payload (frame " +
                    std::to_string(fi) + ")");
    _frameIdx = fi;
    _frameLoaded = true;
    return true;
}

bool
TdtzReader::next(ReplayRecord &out)
{
    if (!_error.empty())
        return false;
    if (_pos >= _infoBlock.records)
        return false;  // clean EOF, error() stays empty
    if (!_frameLoaded || _pos < _index[_frameIdx].firstRecord ||
        _pos >= _index[_frameIdx].firstRecord +
                    _index[_frameIdx].records) {
        // Locate the owning frame; the sequential case is always the
        // next one, so start there before binary-searching.
        std::uint64_t fi =
            _frameLoaded && _frameIdx + 1 < _index.size() &&
                    _index[_frameIdx + 1].firstRecord == _pos
                ? _frameIdx + 1
                : static_cast<std::uint64_t>(
                      std::upper_bound(
                          _index.begin(), _index.end(), _pos,
                          [](std::uint64_t p, const TdtzIndexEntry &e) {
                              return p < e.firstRecord;
                          }) -
                      _index.begin() - 1);
        if (!loadFrame(fi))
            return false;
        _frameCursor =
            static_cast<std::size_t>(_pos - _index[fi].firstRecord);
    }
    out = _frame[_frameCursor++];
    ++_pos;
    return true;
}

bool
TdtzReader::seekRecord(std::uint64_t n)
{
    if (!_error.empty())
        return false;
    if (n > _infoBlock.records)
        return fail("seek past end of stream");
    _pos = n;
    // next() relocates/reloads the frame lazily; invalidate the
    // cursor so an in-frame seek re-syncs it.
    if (_frameLoaded && n >= _index[_frameIdx].firstRecord &&
        n < _index[_frameIdx].firstRecord + _index[_frameIdx].records) {
        _frameCursor = static_cast<std::size_t>(
            n - _index[_frameIdx].firstRecord);
    } else {
        _frameLoaded = false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------

std::vector<ReplayRecord>
projectDemands(const TraceFile &trace)
{
    std::vector<ReplayRecord> out;
    Tick prev = 0;
    for (const TraceRecord &r : trace.records) {
        if (r.kind != static_cast<std::uint8_t>(TraceKind::DemandStart))
            continue;
        ReplayRecord rr;
        rr.addr = r.addr;
        rr.size = lineBytes;
        rr.isWrite = (r.extra & 1) != 0;
        rr.delta = r.tick - prev;
        prev = r.tick;
        out.push_back(rr);
    }
    return out;
}

bool
parseTextTrace(const std::string &path, std::vector<ReplayRecord> &out,
               std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    out.clear();
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        // A failed extraction leaves every later token empty.
        std::istringstream ss(line);
        std::string kind;
        std::string addr_str;
        std::string size_str;
        std::string delta_str;
        std::string junk;
        ss >> kind >> addr_str >> size_str >> delta_str >> junk;
        const std::string where =
            path + ":" + std::to_string(line_no) + ": ";
        if (addr_str.empty() || (kind != "R" && kind != "W")) {
            error = where + "expected 'R|W <addr> [<size> [<delta_ns>]]'";
            return false;
        }
        // Decimal, 0x hex or 0-prefixed octal, as strtoull base 0
        // reads it, but without a sign, trailing junk or overflow.
        ReplayRecord r;
        char *end = nullptr;
        errno = 0;
        r.addr = std::strtoull(addr_str.c_str(), &end, 0);
        if (!std::isdigit(static_cast<unsigned char>(addr_str[0])) ||
            *end != '\0' || errno == ERANGE) {
            error = where + "bad address '" + addr_str + "'";
            return false;
        }
        r.isWrite = kind == "W";
        // Size: decimal bytes in [1, UINT32_MAX]. Delta: finite,
        // non-negative nanoseconds whose tick count fits a Tick. Both
        // must be consumed whole.
        if (!size_str.empty()) {
            const char *last = size_str.data() + size_str.size();
            std::uint64_t size = 0;
            const auto [ptr, ec] =
                std::from_chars(size_str.data(), last, size);
            if (ec != std::errc{} || ptr != last || size == 0 ||
                size > UINT32_MAX) {
                error = where + "bad size '" + size_str + "'";
                return false;
            }
            r.size = static_cast<std::uint32_t>(size);
        }
        if (!delta_str.empty()) {
            const char *last = delta_str.data() + delta_str.size();
            double delta_ns = 0;
            const auto [ptr, ec] =
                std::from_chars(delta_str.data(), last, delta_ns);
            if (ec != std::errc{} || ptr != last ||
                !(delta_ns >= 0 && delta_ns * tickPerNs < 0x1p64)) {
                error = where + "bad delta '" + delta_str + "'";
                return false;
            }
            r.delta = nsToTicks(delta_ns);
        }
        if (!junk.empty()) {
            error = where + "trailing junk '" + junk + "'";
            return false;
        }
        out.push_back(r);
    }
    return true;
}

} // namespace tsim
