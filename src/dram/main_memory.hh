/**
 * @file
 * DDR5 main memory: the backing store behind the DRAM cache
 * (Table III: 128 GiB over 2 channels).
 *
 * A thin front-end over per-channel DramChannel back-ends. Requests
 * that do not fit in a channel's controller queue wait in a per-
 * channel front queue; the caller's outstanding work is bounded by
 * the DRAM-cache controller's own miss/writeback buffers, so the
 * front queues stay small in practice (their occupancy is a stat).
 */

#ifndef TSIM_DRAM_MAIN_MEMORY_HH
#define TSIM_DRAM_MAIN_MEMORY_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "dram/channel.hh"
#include "dram/timing.hh"
#include "mem/address_map.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "stats/stats.hh"

namespace tsim
{

/**
 * Completion callback for a main-memory read. 16 bytes of inline
 * storage: every production caller captures a component pointer plus
 * one 8-byte payload (a pooled TxnRef or a line address), so the
 * controller-to-backing-store path never allocates. Sized so
 * MainMemory::read's internal wrapper (this + start tick + channel +
 * the callback) is exactly one 64-byte ChanDataCb capture.
 */
using MmReadCb = InlineCallable<void(Tick), 16>;

/** Configuration for the main memory. */
struct MainMemoryConfig
{
    std::uint64_t capacityBytes = 1ULL << 32;
    unsigned channels = 2;
    unsigned banks = 16;
    std::uint64_t rowBytes = 2048;
    TimingParams timing = ddr5Timings();
    unsigned readQCap = 64;
    unsigned writeQCap = 64;
    bool refreshEnabled = true;
};

/** The channel each of @p cfg's channels runs. */
ChannelConfig mmChannelConfig(const MainMemoryConfig &cfg);

/** The DDR5 backing store. */
class MainMemory : public SimObject
{
  public:
    MainMemory(EventQueue &eq, std::string name,
               const MainMemoryConfig &cfg);

    /** Issue a read; @p on_done fires when data is at the caller. */
    void read(Addr addr, MmReadCb on_done);

    /** Issue a posted write (fire and forget). */
    void write(Addr addr);

    /** @name Statistics. */
    /// @{
    Scalar reads;
    Scalar writes;
    Histogram readLatency{4.0, 256};   ///< ns, request to data
    Histogram frontQueueDepth{1.0, 64};
    /// @}

    std::uint64_t bytesMoved() const;
    void regStats(StatGroup &g) const;

    DramChannel &channel(unsigned i) { return *_chans[i]; }
    const DramChannel &channel(unsigned i) const { return *_chans[i]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(_chans.size());
    }

  private:
    struct Pending
    {
        ChanReq req;
        bool isWrite = false;
    };

    /**
     * One channel's front queue: a FIFO ring over a vector whose
     * length is a power of two and doubles when the ring is full, so
     * a push allocates only while the queue reaches a new depth.
     */
    class FrontQueue
    {
      public:
        bool empty() const { return _size == 0; }
        std::size_t size() const { return _size; }
        Pending &front() { return _slots[_head]; }

        void
        push(Pending &&p)
        {
            if (_size == _slots.size())
                grow();
            _slots[(_head + _size) & (_slots.size() - 1)] = std::move(p);
            ++_size;
        }

        void
        pop()
        {
            _head = (_head + 1) & (_slots.size() - 1);
            --_size;
        }

      private:
        /** Double the ring (4 slots first), oldest entry at slot 0. */
        void
        grow()
        {
            std::rotate(_slots.begin(),
                        _slots.begin() + static_cast<std::ptrdiff_t>(_head),
                        _slots.end());
            _head = 0;
            _slots.resize(_slots.empty() ? 4 : 2 * _slots.size());
        }

        std::vector<Pending> _slots;
        std::size_t _head = 0;
        std::size_t _size = 0;
    };

    void drainFront(unsigned chan);
    void submit(unsigned chan, ChanReq req, bool is_write);

    MainMemoryConfig _cfg;
    AddressMap _map;
    std::vector<std::unique_ptr<DramChannel>> _chans;
    std::vector<FrontQueue> _front;
    std::uint64_t _nextId = 1;
};

} // namespace tsim

#endif // TSIM_DRAM_MAIN_MEMORY_HH
