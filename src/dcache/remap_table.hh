/**
 * @file
 * Page-grain remap table for Banshee-style DRAM caches (PAPERS.md).
 *
 * Banshee tracks DRAM-cache contents at page granularity through the
 * TLBs and page tables; the timing model condenses that machinery
 * into one controller-side SimObject: a set-associative table of
 * mapped pages with per-page access-frequency counters. Replacement
 * is frequency-based and bandwidth-aware — the controller only
 * replaces a mapped page once a candidate's frequency exceeds the
 * victim's by a threshold, so cache bandwidth is not wasted churning
 * pages of equal worth.
 *
 * The table is functional state (like TagArray): it consumes no
 * simulated time. Set geometry deliberately parallels the line
 * TagArray — with pageBytes/lineBytes lines per page and matching
 * associativity, the pages of one remap set own exactly the line
 * sets their lines map to, so a page eviction frees exactly the tag
 * ways the incoming page's lines need.
 */

#ifndef TSIM_DCACHE_REMAP_TABLE_HH
#define TSIM_DCACHE_REMAP_TABLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace tsim
{

/** Set-associative page remap table with frequency-based LRU. */
class RemapTable : public SimObject
{
  public:
    /** Outcome of installing a page (who, if anyone, was evicted). */
    struct InstallResult
    {
        bool victimValid = false;
        Addr victimPage = 0;
    };

    /**
     * @param capacity_bytes Cache data capacity (pages = capacity /
     *                       pageBytes).
     * @param page_bytes     Remap granularity.
     * @param ways           Associativity; must match the line
     *                       TagArray's so evictions free exactly the
     *                       tag ways the fill needs.
     */
    RemapTable(EventQueue &eq, std::string name,
               std::uint64_t capacity_bytes, std::uint64_t page_bytes,
               unsigned ways)
        : SimObject(eq, std::move(name)), _pageBytes(page_bytes),
          _ways(ways)
    {
        fatal_if(!validGeometry(capacity_bytes, page_bytes, ways),
                 "%llu B do not split into a power-of-two number of "
                 "%u-way sets of %llu B pages",
                 (unsigned long long)capacity_bytes, ways,
                 (unsigned long long)page_bytes);
        const std::uint64_t pages = capacity_bytes / page_bytes;
        _sets = pages / ways;
        _entries.resize(pages);
    }

    /** The constructor's rule: a power-of-two number of ways-way sets. */
    static bool
    validGeometry(std::uint64_t capacity_bytes, std::uint64_t page_bytes,
                  unsigned ways)
    {
        const std::uint64_t pages =
            page_bytes ? capacity_bytes / page_bytes : 0;
        return ways > 0 && pages % ways == 0 &&
               std::has_single_bit(pages / ways);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned ways() const { return _ways; }

    /** True if @p page (page-aligned) is currently mapped. */
    bool contains(Addr page) const { return find(page) != nullptr; }

    /** Count one access to a mapped page (frequency + recency). */
    void
    touch(Addr page)
    {
        if (Entry *e = findMutable(page)) {
            ++e->freq;
            e->lru = ++_clock;
        }
    }

    /**
     * Frequency of the page an install of @p page would evict right
     * now (0 when an invalid way is available). The bandwidth-aware
     * replacement gate compares candidate frequencies against this.
     */
    std::uint64_t
    victimFreq(Addr page) const
    {
        const Entry *base = &_entries[setIndex(page) * _ways];
        const Entry *victim = &base[0];
        for (unsigned w = 0; w < _ways; ++w) {
            const Entry &e = base[w];
            if (!e.valid)
                return 0;
            if (e.lru < victim->lru)
                victim = &e;
        }
        return victim->freq;
    }

    /**
     * Map @p page, evicting the LRU valid way if the set is full.
     * @p initial_freq seeds the new entry's counter (the candidate
     * frequency that won the replacement race). @p silent skips the
     * install/evict statistics (functional warmup only).
     */
    InstallResult
    install(Addr page, std::uint64_t initial_freq, bool silent = false)
    {
        const std::uint64_t set = setIndex(page);
        Entry *base = &_entries[set * _ways];
        Entry *victim = &base[0];
        for (unsigned w = 0; w < _ways; ++w) {
            Entry &e = base[w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        InstallResult r;
        if (victim->valid) {
            r.victimValid = true;
            r.victimPage = rebuildPage(set, victim->tag);
            if (!silent)
                ++evictions;
        }
        victim->valid = true;
        victim->tag = tagOf(page);
        victim->freq = initial_freq;
        victim->lru = ++_clock;
        if (!silent)
            ++installs;
        return r;
    }

    /** Number of mapped pages (tests / occupancy reporting). */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const auto &e : _entries)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** @name Statistics. */
    /// @{
    Scalar installs;   ///< timed-phase page installs
    Scalar evictions;  ///< timed-phase page evictions
    /// @}

    void
    regStats(StatGroup &g) const
    {
        g.addScalar("remap.installs", &installs);
        g.addScalar("remap.evictions", &evictions);
    }

  private:
    struct Entry
    {
        Addr tag = 0;
        std::uint64_t freq = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::uint64_t
    setIndex(Addr page) const
    {
        return (page / _pageBytes) & (_sets - 1);
    }

    Addr tagOf(Addr page) const { return (page / _pageBytes) / _sets; }

    Addr
    rebuildPage(std::uint64_t set, Addr tag) const
    {
        return (tag * _sets + set) * _pageBytes;
    }

    const Entry *
    find(Addr page) const
    {
        const Entry *base = &_entries[setIndex(page) * _ways];
        const Addr want = tagOf(page);
        for (unsigned w = 0; w < _ways; ++w) {
            if (base[w].valid && base[w].tag == want)
                return &base[w];
        }
        return nullptr;
    }

    Entry *
    findMutable(Addr page)
    {
        return const_cast<Entry *>(find(page));
    }

    std::uint64_t _pageBytes;
    unsigned _ways;
    std::uint64_t _sets = 0;
    std::uint64_t _clock = 0;
    std::vector<Entry> _entries;
};

} // namespace tsim

#endif // TSIM_DCACHE_REMAP_TABLE_HH
