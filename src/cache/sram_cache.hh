/**
 * @file
 * SRAM cache model (private core caches and the shared LLC).
 *
 * Functional set-associative LRU writeback cache; CoreEngine adds
 * each level's fixed latency (CoreConfig). The hierarchy in front of
 * the DRAM cache only needs to (a) filter the core's address stream,
 * (b) produce writebacks of dirty lines (which become the DRAM cache's
 * write-demand stream) and (c) cost its latency per access — a full
 * coherence model is unnecessary for the paper's single-socket
 * memory-side study.
 */

#ifndef TSIM_CACHE_SRAM_CACHE_HH
#define TSIM_CACHE_SRAM_CACHE_HH

#include <string>

#include "mem/types.hh"
#include "stats/stats.hh"
#include "tdram/tag_array.hh"

namespace tsim
{

/** One SRAM cache level. */
class SramCache
{
  public:
    /** Outcome of one functional access. */
    struct Result
    {
        bool hit = false;
        bool writeback = false;  ///< a dirty victim was evicted
        Addr writebackAddr = 0;
    };

    /**
     * @param name        Stat prefix.
     * @param capacity    Bytes of data storage.
     * @param ways        Associativity.
     */
    SramCache(std::string name, std::uint64_t capacity, unsigned ways)
        : _name(std::move(name)), _tags(capacity, ways)
    {}

    /**
     * Access one line; allocates on miss (write-allocate).
     *
     * @param addr     Line-aligned address.
     * @param is_store Marks the line dirty.
     */
    Result
    access(Addr addr, bool is_store)
    {
        Result res;
        const TagArray::Probe p = _tags.probe(addr);
        const TagResult &tr = p.result;
        if (tr.hit) {
            ++hits;
            res.hit = true;
            if (is_store)
                _tags.markDirty(p);
            else
                _tags.touch(p);
            return res;
        }
        ++misses;
        if (tr.valid && tr.dirty) {
            res.writeback = true;
            res.writebackAddr = tr.victimAddr;
            ++writebacks;
        }
        _tags.install(addr, is_store, p);
        return res;
    }

    /** True if the line is resident (no LRU side effects). */
    bool contains(Addr addr) const { return _tags.peek(addr).hit; }

    const std::string &name() const { return _name; }
    const TagArray &tags() const { return _tags; }

    double
    missRatio() const
    {
        const double total = hits.value() + misses.value();
        return total > 0 ? misses.value() / total : 0.0;
    }

    /** @name Statistics. */
    /// @{
    Scalar hits;
    Scalar misses;
    Scalar writebacks;
    /// @}

    /** Zero the statistics (the tag state is kept). */
    void
    resetStats()
    {
        hits.reset();
        misses.reset();
        writebacks.reset();
    }

    void
    regStats(StatGroup &g) const
    {
        g.addScalar(_name + ".hits", &hits);
        g.addScalar(_name + ".misses", &misses);
        g.addScalar(_name + ".writebacks", &writebacks);
    }

  private:
    std::string _name;
    TagArray _tags;
};

} // namespace tsim

#endif // TSIM_CACHE_SRAM_CACHE_HH
