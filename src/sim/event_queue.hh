/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives every simulated component. Components
 * schedule callbacks at absolute ticks; the queue executes them in
 * (tick, insertion-order) order, which makes simulation fully
 * deterministic.
 *
 * The implementation is built for throughput — the whole reproduction
 * replays dozens of (design x workload) simulations through this one
 * hot loop:
 *
 *  - Callbacks are InlineFunction (see inline_function.hh): the
 *    common component captures live inside the event record, so
 *    schedule() performs no heap allocation on the fast path.
 *  - Event records live in a pooled, free-listed arena addressed by
 *    32-bit indices; pop() recycles records instead of freeing them.
 *  - The pending set is a two-level structure: a timing wheel of
 *    near-future buckets (one bucket spans `bucketSpan` ticks, the
 *    wheel covers `horizonTicks`) absorbs the dominant short-horizon
 *    events with O(1) append, while far-future events (refresh
 *    periods, watchdogs) wait in a min-heap of POD (tick, seq, index)
 *    entries and migrate into the wheel as time advances.
 *
 * Determinism contract: execution order is exactly ascending
 * (tick, insertion-seq), identical to a single sorted list. Bucket
 * contents are sorted on collection and late insertions below the
 * wheel frontier go through a sorted ready list, so the structure is
 * an invisible optimization.
 */

#ifndef TSIM_SIM_EVENT_QUEUE_HH
#define TSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace tsim
{

/**
 * The global simulation event queue.
 *
 * Events are arbitrary callables. Scheduling in the past is a
 * simulator bug (panic). Ties are broken by insertion order so that
 * simulation is deterministic and independent of container internals.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction;

    EventQueue()
    {
        _pool.reserve(initialPoolCapacity);
        _far.reserve(64);
        _scratch.reserve(64);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p cb to run at absolute time @p when. */
    void
    schedule(Tick when, Callback cb)
    {
        panic_if(when < _curTick,
                 "scheduling in the past (when=%llu cur=%llu)",
                 (unsigned long long)when, (unsigned long long)_curTick);
        const std::uint32_t idx = allocRec(when, std::move(cb));
        if (when < _wheelMin) {
            // The event's bucket was already collected; merge it into
            // the sorted ready list (same-tick events land after
            // earlier insertions because seq is larger).
            readyInsert(idx);
        } else if (when - _wheelMin < horizonTicks) {
            bucketAppend(idx);
        } else {
            farPush(idx);
        }
        ++_size;
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb)
    {
        schedule(_curTick + delay, std::move(cb));
    }

    /** True if no events remain. */
    bool empty() const { return _size == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _size; }

    /** Time of the next pending event (maxTick if none). */
    Tick
    nextEventTick() const
    {
        auto *self = const_cast<EventQueue *>(this);
        return self->prepare() ? _pool[_readyHead].when : maxTick;
    }

    /**
     * Run until the queue drains or @p limit is reached (events
     * scheduled exactly at @p limit still execute).
     *
     * @return number of events executed.
     */
    std::uint64_t
    run(Tick limit = maxTick)
    {
        std::uint64_t executed = 0;
        while (prepare() && _pool[_readyHead].when <= limit) {
            popAndRun();
            ++executed;
        }
        if (_curTick < limit && limit != maxTick)
            _curTick = limit;
        return executed;
    }

    /** Execute exactly one event, if any. @return true if one ran. */
    bool
    step()
    {
        if (!prepare())
            return false;
        popAndRun();
        return true;
    }

    /** @name Kernel geometry (exposed for tests/benchmarks). */
    /// @{
    static constexpr unsigned bucketCount = 1024;   ///< power of two
    static constexpr unsigned bucketSpanLog2 = 7;   ///< 128 ticks
    static constexpr Tick bucketSpan = Tick(1) << bucketSpanLog2;
    static constexpr Tick horizonTicks =
        Tick(bucketCount) << bucketSpanLog2;
    /// @}

  private:
    static constexpr std::uint32_t NIL = 0xffffffffu;
    static constexpr std::size_t initialPoolCapacity = 256;

    /** One pooled event. `next` chains bucket / ready / free lists. */
    struct EventRec
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = NIL;
        Callback cb;
    };

    struct Bucket
    {
        std::uint32_t head = NIL;
        std::uint32_t tail = NIL;
    };

    /** POD far-future heap entry; full record stays in the pool. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t
    bucketIndex(Tick when)
    {
        return static_cast<std::uint32_t>(when >> bucketSpanLog2) &
               (bucketCount - 1);
    }

    std::uint32_t
    allocRec(Tick when, Callback cb)
    {
        std::uint32_t idx;
        if (_freeHead != NIL) {
            idx = _freeHead;
            _freeHead = _pool[idx].next;
        } else {
            idx = static_cast<std::uint32_t>(_pool.size());
            _pool.emplace_back();
        }
        EventRec &r = _pool[idx];
        r.when = when;
        r.seq = _nextSeq++;
        r.next = NIL;
        r.cb = std::move(cb);
        return idx;
    }

    void
    freeRec(std::uint32_t idx)
    {
        _pool[idx].next = _freeHead;
        _freeHead = idx;
    }

    void
    bucketAppend(std::uint32_t idx)
    {
        Bucket &b = _buckets[bucketIndex(_pool[idx].when)];
        if (b.tail == NIL)
            b.head = idx;
        else
            _pool[b.tail].next = idx;
        b.tail = idx;
        ++_wheelCount;
    }

    void
    farPush(std::uint32_t idx)
    {
        const EventRec &r = _pool[idx];
        _far.push_back(FarEntry{r.when, r.seq, idx});
        std::push_heap(_far.begin(), _far.end(), FarLater{});
    }

    /** Sorted insert into the ready list (rare slow path). */
    void
    readyInsert(std::uint32_t idx)
    {
        const Tick when = _pool[idx].when;
        const std::uint64_t seq = _pool[idx].seq;
        std::uint32_t prev = NIL;
        std::uint32_t cur = _readyHead;
        while (cur != NIL) {
            const EventRec &c = _pool[cur];
            if (c.when > when || (c.when == when && c.seq > seq))
                break;
            prev = cur;
            cur = c.next;
        }
        _pool[idx].next = cur;
        if (prev == NIL)
            _readyHead = idx;
        else
            _pool[prev].next = idx;
        if (cur == NIL)
            _readyTail = idx;
    }

    /**
     * Ensure the ready list holds the next pending event.
     * @return false if the queue is empty.
     */
    bool
    prepare()
    {
        if (_readyHead != NIL)
            return true;
        if (_wheelCount == 0 && _far.empty())
            return false;
        for (;;) {
            // Pull far-future events whose time entered the wheel
            // window into their buckets.
            while (!_far.empty() &&
                   _far.front().when - _wheelMin < horizonTicks) {
                const std::uint32_t idx = _far.front().idx;
                std::pop_heap(_far.begin(), _far.end(), FarLater{});
                _far.pop_back();
                bucketAppend(idx);
            }
            if (_wheelCount == 0) {
                // Nothing in the window: jump the wheel frontier to
                // the earliest far event and migrate it next pass.
                _wheelMin = (_far.front().when >> bucketSpanLog2)
                            << bucketSpanLog2;
                continue;
            }
            // Advance to the next non-empty bucket (bounded by the
            // wheel size because _wheelCount > 0).
            while (_buckets[bucketIndex(_wheelMin)].head == NIL)
                _wheelMin += bucketSpan;
            collect(_buckets[bucketIndex(_wheelMin)]);
            _wheelMin += bucketSpan;
            return true;
        }
    }

    /** Move one bucket's events to the ready list in sorted order. */
    void
    collect(Bucket &b)
    {
        _scratch.clear();
        for (std::uint32_t i = b.head; i != NIL; i = _pool[i].next)
            _scratch.push_back(i);
        b.head = b.tail = NIL;
        _wheelCount -= _scratch.size();
        if (_scratch.size() > 1) {
            std::sort(_scratch.begin(), _scratch.end(),
                      [this](std::uint32_t a, std::uint32_t c) {
                          const EventRec &ra = _pool[a];
                          const EventRec &rc = _pool[c];
                          if (ra.when != rc.when)
                              return ra.when < rc.when;
                          return ra.seq < rc.seq;
                      });
        }
        for (std::uint32_t i : _scratch) {
            _pool[i].next = NIL;
            if (_readyTail == NIL)
                _readyHead = i;
            else
                _pool[_readyTail].next = i;
            _readyTail = i;
        }
    }

    /** Pop the ready head and execute it (precondition: non-empty). */
    void
    popAndRun()
    {
        const std::uint32_t idx = _readyHead;
        EventRec &r = _pool[idx];
        _readyHead = r.next;
        if (_readyHead == NIL)
            _readyTail = NIL;
        const Tick when = r.when;
        // Move the callback out and recycle the record before
        // invoking: the callback may schedule new events (growing the
        // pool) including at the current tick.
        Callback cb = std::move(r.cb);
        freeRec(idx);
        --_size;
        _curTick = when;
        cb();
    }

    std::vector<EventRec> _pool;
    std::uint32_t _freeHead = NIL;

    Bucket _buckets[bucketCount];
    std::size_t _wheelCount = 0;
    /**
     * Start of the first un-collected bucket; always bucket-aligned
     * and > curTick once events have run. Wheel-resident events all
     * have `when` in [_wheelMin, _wheelMin + horizonTicks).
     */
    Tick _wheelMin = 0;

    std::vector<FarEntry> _far;

    std::uint32_t _readyHead = NIL;
    std::uint32_t _readyTail = NIL;

    std::vector<std::uint32_t> _scratch;

    std::size_t _size = 0;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
};

/**
 * Base class for named simulated components bound to an event queue.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : _eq(eq), _name(std::move(name))
    {}

    virtual ~SimObject() = default;

    const std::string &name() const { return _name; }
    Tick curTick() const { return _eq.curTick(); }

  protected:
    EventQueue &_eq;

  private:
    std::string _name;
};

} // namespace tsim

#endif // TSIM_SIM_EVENT_QUEUE_HH
