/**
 * @file
 * Flat open-addressing hash map with 64-bit keys.
 *
 * Replaces std::unordered_map on simulator hot paths (MSHR set
 * queues, pending-write counts) where the node allocation per insert
 * and pointer-chasing per lookup dominate. Linear probing over one
 * contiguous slot array, power-of-two capacity, and backward-shift
 * deletion (no tombstones). The channel scheduler's read-id index is
 * one (DESIGN.md §9). Nothing iterates these maps, so no ordering is
 * exposed and growth cannot perturb determinism.
 */

#ifndef TSIM_SIM_OPEN_MAP_HH
#define TSIM_SIM_OPEN_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tsim
{

/** Open-addressing map from std::uint64_t to @p V. */
template <typename V>
class OpenHashMap
{
  public:
    explicit OpenHashMap(std::size_t initial_slots = 64)
    {
        std::size_t n = 16;
        while (n < initial_slots)
            n <<= 1;
        _slots.resize(n);
        _mask = static_cast<std::uint64_t>(n - 1);
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    bool contains(std::uint64_t key) const { return findSlot(key); }

    /** Pointer to the mapped value, or nullptr if absent. */
    V *
    find(std::uint64_t key)
    {
        const Slot *s = findSlot(key);
        return s ? const_cast<V *>(&s->val) : nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        const Slot *s = findSlot(key);
        return s ? &s->val : nullptr;
    }

    /** Mapped value, value-initialized and inserted if absent. */
    V &
    operator[](std::uint64_t key)
    {
        maybeGrow();
        std::uint64_t i = hash(key) & _mask;
        while (_slots[i].used) {
            if (_slots[i].key == key)
                return _slots[i].val;
            i = (i + 1) & _mask;
        }
        _slots[i].used = true;
        _slots[i].key = key;
        _slots[i].val = V{};
        ++_size;
        return _slots[i].val;
    }

    /** Remove @p key if present (backward-shift, no tombstones). */
    void
    erase(std::uint64_t key)
    {
        std::uint64_t i = hash(key) & _mask;
        for (;;) {
            if (!_slots[i].used)
                return;
            if (_slots[i].key == key)
                break;
            i = (i + 1) & _mask;
        }
        --_size;
        std::uint64_t hole = i;
        std::uint64_t j = i;
        for (;;) {
            j = (j + 1) & _mask;
            if (!_slots[j].used)
                break;
            const std::uint64_t home = hash(_slots[j].key) & _mask;
            if (((j - home) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole] = std::move(_slots[j]);
                hole = j;
            }
        }
        _slots[hole].used = false;
        _slots[hole].val = V{};
    }

    /**
     * Visit every mapped value (slot order, not insertion order) —
     * teardown/debug only; simulation paths must not depend on it.
     */
    template <typename F>
    void
    forEach(F f)
    {
        for (Slot &s : _slots) {
            if (s.used)
                f(s.key, s.val);
        }
    }

    template <typename F>
    void
    forEach(F f) const
    {
        for (const Slot &s : _slots) {
            if (s.used)
                f(s.key, s.val);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V val{};
        bool used = false;
    };

    static std::uint64_t
    hash(std::uint64_t k)
    {
        k *= 0x9e3779b97f4a7c15ull;
        return k ^ (k >> 32);
    }

    const Slot *
    findSlot(std::uint64_t key) const
    {
        std::uint64_t i = hash(key) & _mask;
        while (_slots[i].used) {
            if (_slots[i].key == key)
                return &_slots[i];
            i = (i + 1) & _mask;
        }
        return nullptr;
    }

    void
    maybeGrow()
    {
        if (_size * 4 < _slots.size() * 3)
            return;
        // tdram-lint:allow(hot-alloc): amortized rehash — rebinds the
        // moved-from slot array; O(1) allocations per N inserts.
        std::vector<Slot> old = std::move(_slots);
        _slots.clear();
        _slots.resize(old.size() * 2);
        _mask = static_cast<std::uint64_t>(_slots.size() - 1);
        _size = 0;
        for (Slot &s : old) {
            if (s.used)
                (*this)[s.key] = std::move(s.val);
        }
    }

    std::vector<Slot> _slots;
    std::uint64_t _mask = 0;
    std::size_t _size = 0;
};

/**
 * Open-addressing set of 64-bit keys: the same slot scheme (and the
 * same no-exposed-iteration guarantee) as OpenHashMap, for hot-path
 * membership tests that previously leaned on std::unordered_set and
 * its node allocation per insert.
 */
class OpenHashSet
{
  public:
    explicit OpenHashSet(std::size_t initial_slots = 64)
        : _m(initial_slots)
    {
    }

    std::size_t size() const { return _m.size(); }
    bool empty() const { return _m.empty(); }
    bool contains(std::uint64_t key) const { return _m.contains(key); }

    void insert(std::uint64_t key) { _m[key] = 1; }

    /** Remove @p key; @return true when it was present. */
    bool
    erase(std::uint64_t key)
    {
        if (!_m.contains(key))
            return false;
        _m.erase(key);
        return true;
    }

  private:
    OpenHashMap<unsigned char> _m;
};

} // namespace tsim

#endif // TSIM_SIM_OPEN_MAP_HH
