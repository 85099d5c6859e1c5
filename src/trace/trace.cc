/**
 * @file
 * Trace ring spill, .tdt file writer/loader, record formatting.
 */

#include "trace/trace.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace tsim
{

const char *
traceKindName(std::uint8_t kind)
{
    switch (static_cast<TraceKind>(kind)) {
      case TraceKind::Read: return "RD";
      case TraceKind::Write: return "WR";
      case TraceKind::ActRd: return "ActRd";
      case TraceKind::ActWr: return "ActWr";
      case TraceKind::Probe: return "Probe";
      case TraceKind::HmResult: return "HM";
      case TraceKind::FlushPush: return "FlushPush";
      case TraceKind::FlushDrain: return "FlushDrain";
      case TraceKind::Refresh: return "Refresh";
      case TraceKind::DemandStart: return "DemandStart";
      case TraceKind::DemandDone: return "DemandDone";
      case TraceKind::Remap: return "Remap";
      default: return "?";
    }
}

// ---------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------

TraceBuffer::TraceBuffer(Tracer &owner, std::uint8_t channel,
                         std::uint32_t capacity)
    : _owner(owner), _ring(std::max(1u, capacity)),
      _capacity(std::max(1u, capacity)), _channel(channel)
{
}

void
TraceBuffer::overflow()
{
    if (_owner.sinked()) {
        flush();
        return;
    }
    // Memory-only: wrap, dropping the oldest record. _head already
    // points at the oldest slot (ring full), so the caller's write
    // replaces exactly that record.
    --_size;
    ++_dropped;
}

void
TraceBuffer::flush()
{
    if (_size == 0 || !_owner.sinked())
        return;
    const std::uint32_t start =
        (_head + _capacity - _size % _capacity) % _capacity;
    if (start + _size <= _capacity) {
        _owner.sink(&_ring[start], _size);
    } else {
        const std::uint32_t first = _capacity - start;
        _owner.sink(&_ring[start], first);
        _owner.sink(&_ring[0], _size - first);
    }
    _size = 0;
}

std::vector<TraceRecord>
TraceBuffer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(_size);
    const std::uint32_t start =
        (_head + _capacity - _size % _capacity) % _capacity;
    for (std::uint32_t i = 0; i < _size; ++i)
        out.push_back(_ring[(start + i) % _capacity]);
    return out;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Tracer(std::string path, unsigned channels,
               std::uint32_t ringCapacity, const std::string &manifest)
    : _path(std::move(path))
{
    fatal_if(channels == 0 || channels > 255,
             "tracer needs 1..255 channels (got %u)", channels);
    if (!_path.empty()) {
        _file = std::fopen(_path.c_str(), "wb");
        fatal_if(!_file, "cannot open trace file '%s' for writing",
                 _path.c_str());
        _header.channels = channels;
        _header.manifestBytes = manifest.size();
        fatal_if(std::fwrite(&_header, sizeof(_header), 1, _file) != 1 ||
                     std::fwrite(manifest.data(), 1, manifest.size(),
                                 _file) != manifest.size(),
                 "cannot write trace header to '%s'", _path.c_str());
    }
    for (unsigned c = 0; c < channels; ++c) {
        _buffers.push_back(std::make_unique<TraceBuffer>(
            *this, static_cast<std::uint8_t>(c), ringCapacity));
    }
}

Tracer::~Tracer()
{
    flushAll();
    if (_file)
        std::fclose(_file);
}

void
Tracer::sink(const TraceRecord *recs, std::size_t n)
{
    fatal_if(std::fwrite(recs, sizeof(TraceRecord), n, _file) != n,
             "short write to trace file '%s'", _path.c_str());
    _written += n;
}

std::uint64_t
Tracer::droppedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &b : _buffers)
        total += b->dropped();
    return total;
}

void
Tracer::flushAll()
{
    if (!_file)
        return;
    for (auto &b : _buffers)
        b->flush();
    // Patch the record count into the header so readers can reject
    // truncated files, and the drop total so readers can tell a
    // complete trace from one whose rings wrapped.
    _header.recordCount = _written;
    _header.droppedCount = droppedTotal();
    std::fseek(_file, 0, SEEK_SET);
    fatal_if(std::fwrite(&_header, sizeof(_header), 1, _file) != 1,
             "cannot patch trace header of '%s'", _path.c_str());
    std::fseek(_file, 0, SEEK_END);
    std::fflush(_file);
}

// ---------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------

TraceLoadResult
loadTrace(const std::string &path)
{
    TraceLoadResult res;
    const auto fail = [&res, &path](const std::string &fault) {
        res.error = "'" + path + "': " + fault;
        res.trace = {};
        return res;
    };
    const auto close = [](std::FILE *f) { std::fclose(f); };
    const std::unique_ptr<std::FILE, decltype(close)> file(
        std::fopen(path.c_str(), "rb"), close);
    std::FILE *f = file.get();
    if (!f)
        return fail("cannot open");

    // Magic and version first: a short old-version file names its version.
    TraceFileHeader hdr;
    const std::size_t got = std::fread(&hdr, 1, sizeof(hdr), f);
    if (got < 2 * sizeof(std::uint32_t))
        return fail("shorter than a trace header");
    if (hdr.magic != TraceFileHeader::magicValue)
        return fail("not a .tdt trace (bad magic)");
    if (hdr.version != TraceFileHeader::versionValue) {
        return fail("unsupported trace version " +
                    std::to_string(hdr.version) + " (want " +
                    std::to_string(TraceFileHeader::versionValue) +
                    ", whose manifest describes the run; re-record "
                    "the trace)");
    }
    if (got < sizeof(hdr))
        return fail("shorter than a trace header");
    if (hdr.recordBytes != sizeof(TraceRecord)) {
        return fail("record size " + std::to_string(hdr.recordBytes) +
                    " does not match this build (" +
                    std::to_string(sizeof(TraceRecord)) + ")");
    }

    std::fseek(f, 0, SEEK_END);
    const std::uint64_t rest =
        static_cast<std::uint64_t>(std::ftell(f)) - sizeof(hdr);
    std::fseek(f, static_cast<long>(sizeof(hdr)), SEEK_SET);
    res.trace.manifest.resize(std::min(hdr.manifestBytes, rest));
    if (hdr.manifestBytes > rest ||
        std::fread(res.trace.manifest.data(), 1, hdr.manifestBytes,
                   f) != hdr.manifestBytes) {
        return fail("truncated manifest (header promises " +
                    std::to_string(hdr.manifestBytes) +
                    " bytes, file holds " + std::to_string(rest) + ")");
    }
    const std::uint64_t body = rest - hdr.manifestBytes;
    if (body % sizeof(TraceRecord) != 0) {
        return fail("truncated mid-record (" + std::to_string(body) +
                    " payload bytes)");
    }
    const std::uint64_t n = body / sizeof(TraceRecord);
    if (n != hdr.recordCount) {
        return fail("header promises " +
                    std::to_string(hdr.recordCount) +
                    " records, file holds " + std::to_string(n) +
                    " (unflushed or truncated trace)");
    }

    res.trace.header = hdr;
    res.trace.records.resize(n);
    if (n > 0 &&
        std::fread(res.trace.records.data(), sizeof(TraceRecord), n,
                   f) != n)
        return fail("read error in record payload");

    // Per-channel rings spill in blocks; restore global emission
    // order.
    std::sort(res.trace.records.begin(), res.trace.records.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.seq < b.seq;
              });
    res.ok = true;
    return res;
}

std::string
formatTraceRecord(const TraceRecord &r)
{
    char buf[160];
    char bank[8] = "-";
    if (r.bank != traceBankNone)
        std::snprintf(bank, sizeof(bank), "%u", r.bank);
    std::snprintf(buf, sizeof(buf),
                  "seq=%llu tick=%llu (%.3f ns) ch=%u bank=%s "
                  "%s addr=0x%llx aux=%llu extra=0x%x",
                  (unsigned long long)r.seq, (unsigned long long)r.tick,
                  ticksToNs(r.tick), r.channel, bank,
                  traceKindName(r.kind), (unsigned long long)r.addr,
                  (unsigned long long)r.aux, r.extra);
    return buf;
}

} // namespace tsim
