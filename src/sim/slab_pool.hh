/**
 * @file
 * Chunked slab pool with intrusive reference counting.
 *
 * The DRAM-cache controller keeps one Txn object per in-flight demand
 * alive across an arbitrary dance of channel callbacks, main-memory
 * completions and MSHR queues. The seed used std::shared_ptr, which
 * costs one control-block allocation per demand plus atomic ref
 * traffic on the controller's hottest path. SlabPool replaces that
 * with recycled slots carved from chunked slabs and a non-atomic
 * intrusive refcount (a System runs on one thread, so plain
 * increments suffice), while
 * PoolRef keeps the exact shared_ptr lifetime semantics the protocol
 * flows rely on: a completion callback may legally outlive finish()
 * and release().
 *
 * Teardown safety matches shared_ptr too: the pool's storage core is
 * kept alive (and only then reclaimed) while any PoolRef is
 * outstanding, so destruction order between the pool's owner, the
 * event queue and other components holding captured refs does not
 * matter.
 */

#ifndef TSIM_SIM_SLAB_POOL_HH
#define TSIM_SIM_SLAB_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace tsim
{

template <typename T>
class SlabPool;

namespace detail
{

/**
 * Heap-allocated storage core shared by a pool and its stragglers.
 * If the pool dies first, the core stays alive until the last live
 * item is released.
 */
template <typename T>
struct PoolCore
{
    struct alignas(alignof(T)) Slot
    {
        unsigned char bytes[sizeof(T)];
    };

    static constexpr std::size_t chunkItems = 128;

    std::vector<std::unique_ptr<Slot[]>> chunks;
    void *freeHead = nullptr;
    std::uint64_t live = 0;  ///< allocated, not yet destroyed
    bool poolAlive = true;   ///< owning SlabPool still exists

    void *
    takeSlot()
    {
        if (!freeHead) {
            // tdram-lint:allow(hot-alloc): amortized slab growth —
            // one allocation per chunkItems constructions, then the
            // free list recycles forever.
            auto chunk = std::make_unique<Slot[]>(chunkItems);
            for (std::size_t i = 0; i < chunkItems; ++i) {
                void *s = &chunk[i];
                *static_cast<void **>(s) = freeHead;
                freeHead = s;
            }
            chunks.push_back(std::move(chunk));
        }
        void *s = freeHead;
        freeHead = *static_cast<void **>(s);
        return s;
    }
};

} // namespace detail

/**
 * Intrusive bookkeeping every pooled type embeds (by deriving from
 * PoolItem<Itself>). 16 bytes per item.
 */
template <typename T>
struct PoolItem
{
    std::uint32_t poolRefs = 0;
    detail::PoolCore<T> *poolCore = nullptr;
};

/**
 * 8-byte smart pointer to a pooled @p T with shared-ownership
 * semantics. Copy adds a ref; the slot is recycled when the last ref
 * drops. Not thread-safe — one simulation thread only.
 */
template <typename T>
class PoolRef
{
  public:
    PoolRef() = default;
    PoolRef(std::nullptr_t) {}

    PoolRef(const PoolRef &o) noexcept : _p(o._p)
    {
        if (_p)
            ++_p->poolRefs;
    }

    PoolRef(PoolRef &&o) noexcept : _p(o._p) { o._p = nullptr; }

    PoolRef &
    operator=(const PoolRef &o) noexcept
    {
        if (this != &o) {
            release();
            _p = o._p;
            if (_p)
                ++_p->poolRefs;
        }
        return *this;
    }

    PoolRef &
    operator=(PoolRef &&o) noexcept
    {
        if (this != &o) {
            release();
            _p = o._p;
            o._p = nullptr;
        }
        return *this;
    }

    ~PoolRef() { release(); }

    T *get() const { return _p; }
    T *operator->() const { return _p; }
    T &operator*() const { return *_p; }
    explicit operator bool() const { return _p != nullptr; }

    friend bool operator==(const PoolRef &a, const PoolRef &b)
    {
        return a._p == b._p;
    }
    friend bool operator!=(const PoolRef &a, const PoolRef &b)
    {
        return a._p != b._p;
    }

    /** Take ownership of one existing reference (no ref added). */
    static PoolRef
    adopt(T *p)
    {
        PoolRef r;
        r._p = p;
        return r;
    }

    /** Reference an item some other owner keeps alive. */
    static PoolRef
    share(T *p)
    {
        PoolRef r;
        r._p = p;
        if (p)
            ++p->poolRefs;
        return r;
    }

    /** Steal the raw pointer; the caller now owns this reference. */
    T *
    detach()
    {
        T *p = _p;
        _p = nullptr;
        return p;
    }

    void
    reset()
    {
        release();
    }

  private:
    void
    release()
    {
        if (_p && --_p->poolRefs == 0)
            destroyItem(_p);
        _p = nullptr;
    }

    static void
    destroyItem(T *p)
    {
        detail::PoolCore<T> *core = p->poolCore;
        p->~T();
        --core->live;
        if (core->poolAlive) {
            *reinterpret_cast<void **>(p) = core->freeHead;
            core->freeHead = p;
        } else if (core->live == 0) {
            delete core;
        }
    }

    T *_p = nullptr;
};

/** The pool itself. Alloc pops a recycled slot or grows one chunk. */
template <typename T>
class SlabPool
{
  public:
    SlabPool() : _core(new detail::PoolCore<T>) {}

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        if (_core->live == 0)
            delete _core;
        else
            _core->poolAlive = false;  // stragglers reclaim it
    }

    /** Construct a fresh @p T and return the owning reference. */
    template <typename... Args>
    PoolRef<T>
    alloc(Args &&...args)
    {
        void *slot = _core->takeSlot();
        T *p = ::new (slot) T(std::forward<Args>(args)...);
        p->poolRefs = 1;
        p->poolCore = _core;
        ++_core->live;
        return PoolRef<T>::adopt(p);
    }

  private:
    detail::PoolCore<T> *_core;
};

} // namespace tsim

#endif // TSIM_SIM_SLAB_POOL_HH
