/**
 * @file
 * TDRAM's device-side flush buffer (paper §III-D2).
 *
 * On a write-miss-dirty, ActWr performs an internal read of the dirty
 * victim into this buffer before writing the new data, so no DQ-bus
 * turnaround or immediate victim transfer to the controller is
 * needed. Entries drain to the controller opportunistically (unused
 * read-miss-clean DQ slots, refresh windows) or via explicit drain
 * commands when the buffer is full.
 *
 * The controller has global knowledge of buffered addresses: demand
 * reads matching an entry are served from the buffer; demand writes
 * matching an entry supersede (remove) it.
 */

#ifndef TSIM_TDRAM_FLUSH_BUFFER_HH
#define TSIM_TDRAM_FLUSH_BUFFER_HH

#include <algorithm>
#include <cstdint>
#include <deque>

#include "mem/types.hh"
#include "stats/stats.hh"

namespace tsim
{

/** FIFO of dirty victim lines awaiting transfer to the controller. */
class FlushBuffer
{
  public:
    explicit FlushBuffer(unsigned capacity = 16) : _capacity(capacity) {}

    unsigned capacity() const { return _capacity; }

    /** Entries waiting to drain (excludes in-flight transfers). */
    unsigned size() const { return static_cast<unsigned>(_q.size()); }

    bool empty() const { return _q.empty(); }

    /**
     * A buffer slot is freed only once its drain transfer completes
     * at the controller, so in-flight entries still occupy capacity.
     */
    bool full() const { return _q.size() + _inFlight >= _capacity; }

    /** Mark one popped entry as in-flight on the DQ bus. */
    void beginDrain() { ++_inFlight; }

    /** Drain transfer landed at the controller; slot freed. */
    void
    completeDrain()
    {
        if (_inFlight > 0)
            --_inFlight;
    }

    unsigned inFlight() const { return _inFlight; }

    /**
     * Insert a victim line. @return false (and count a stall) if the
     * buffer is full — the caller must force a drain first.
     */
    bool
    push(Addr victim)
    {
        if (full()) {
            ++stalls;
            return false;
        }
        _q.push_back(victim);
        const std::uint64_t occ = _q.size() + _inFlight;
        occupancy.sample(static_cast<double>(occ));
        maxOccupancy = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(maxOccupancy.value()), occ);
        return true;
    }

    /** Remove and return the oldest entry. Buffer must be non-empty. */
    Addr
    pop()
    {
        Addr a = _q.front();
        _q.pop_front();
        return a;
    }

    /** True if @p addr is currently buffered. */
    bool
    contains(Addr addr) const
    {
        return std::find(_q.begin(), _q.end(), addr) != _q.end();
    }

    /**
     * Remove a specific address (a newer demand write supersedes the
     * buffered dirty data). @return true if an entry was removed.
     */
    bool
    remove(Addr addr)
    {
        auto it = std::find(_q.begin(), _q.end(), addr);
        if (it == _q.end())
            return false;
        _q.erase(it);
        ++superseded;
        return true;
    }

    /** @name Statistics (paper §V-E). */
    /// @{
    Histogram occupancy{1.0, 80};   ///< sampled after each push
    Scalar maxOccupancy;            ///< high-water mark
    Scalar stalls;                  ///< pushes refused because full
    Scalar drainedOnMissClean;      ///< unloaded in read-miss-clean slots
    Scalar drainedOnRefresh;        ///< unloaded during refresh windows
    Scalar drainedForced;           ///< unloaded via explicit commands
    Scalar superseded;              ///< removed by a newer demand write
    /// @}

  private:
    unsigned _capacity;
    unsigned _inFlight = 0;
    std::deque<Addr> _q;
};

} // namespace tsim

#endif // TSIM_TDRAM_FLUSH_BUFFER_HH
