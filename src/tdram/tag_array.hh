/**
 * @file
 * Functional tag/metadata store for a DRAM cache.
 *
 * In TDRAM/NDC this state physically lives in on-die tag mats; in
 * CascadeLake/Alloy/BEAR it lives in the ECC bits / TAD layout of the
 * data rows. Either way the *functional* content is the same, so one
 * array serves every design; only the modelled timing of consulting
 * it differs.
 *
 * Supports direct-mapped (ways == 1, the paper's default) and
 * set-associative (§V-F) organizations with LRU replacement.
 *
 * Two access styles:
 *  - address-based (`peek` / `touch` / `markDirty` / `install`): each
 *    call re-searches the set; convenient for cold paths and tests.
 *  - probe-handle (`probe` returning a Probe, then the Probe-taking
 *    overloads): one associative search serves the entire access; the
 *    hot path in SramCache and DramCacheCtrl::resolveTags uses this.
 * Both styles produce identical functional behaviour and identical
 * LRU-clock sequencing.
 *
 * Each line's metadata is one 4-byte word, so a tag has 30 bits: the
 * array holds only addresses below addrLimit() = 2^(36 + log2 sets).
 * System checks every store's limit against the run's address space
 * once, before the run; the access path does not check.
 */

#ifndef TSIM_TDRAM_TAG_ARRAY_HH
#define TSIM_TDRAM_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace tsim
{

/** Result of consulting the tag store for one line address. */
struct TagResult
{
    bool hit = false;
    bool valid = false;      ///< the indexed victim way holds a line
    bool dirty = false;      ///< hit: the line; miss: the victim
    Addr victimAddr = 0;     ///< line resident in the victim way
    bool viaProbe = false;   ///< result produced by an early tag probe
};

/**
 * Set-associative functional tag array with LRU replacement.
 *
 * Layout (DESIGN.md §13): one 4-byte metadata word per line (tag << 2 |
 * dirty << 1 | valid), scanned on every lookup, and a separate 8-byte
 * LRU stamp per line that exists only when ways > 1 and is read only
 * on a miss. A direct-mapped array is therefore 4 B per line.
 */
class TagArray
{
  public:
    /**
     * Handle from one associative lookup, reusable for the follow-up
     * mutation of the same access (touch / markDirty / install)
     * without re-searching the set. Valid until the next mutation of
     * this TagArray through any other handle or address.
     */
    struct Probe
    {
        TagResult result;        ///< identical to what peek() returns
        std::uint64_t line = 0;  ///< hit line on a hit, victim line else
    };

    /**
     * @param capacity_bytes Cache data capacity.
     * @param ways           Associativity (1 = direct-mapped).
     */
    TagArray(std::uint64_t capacity_bytes, unsigned ways = 1)
        : _ways(ways)
    {
        fatal_if(!validGeometry(capacity_bytes, ways),
                 "%llu bytes do not split into a power-of-two number of "
                 "%u-way sets", (unsigned long long)capacity_bytes, ways);
        const std::uint64_t lines = capacity_bytes / lineBytes;
        _sets = lines / ways;
        _setShift = static_cast<unsigned>(std::countr_zero(_sets));
        _meta.resize(lines);
        if (ways > 1)
            _lru.resize(lines);
    }

    /** The constructor's rule: a power-of-two number of ways-way sets. */
    static bool
    validGeometry(std::uint64_t capacity_bytes, unsigned ways)
    {
        const std::uint64_t lines = capacity_bytes / lineBytes;
        return ways > 0 && lines % ways == 0 &&
               std::has_single_bit(lines / ways);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned ways() const { return _ways; }

    /** Width of the tag field of a metadata word. */
    static constexpr unsigned tagBits = 30;

    /**
     * Exclusive bound on the addresses whose tag fits tagBits:
     * 2^(6 + 30 + log2 sets), saturating at 2^64 - 1 when every
     * address fits. An address at or above it would alias a lower one.
     */
    std::uint64_t
    addrLimit() const
    {
        const unsigned bits =
            std::countr_zero(lineBytes) + tagBits + _setShift;
        return bits < 64 ? std::uint64_t{1} << bits : ~std::uint64_t{0};
    }

    /** Set index of a line address. */
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr / lineBytes) & (_sets - 1);
    }

    /**
     * One associative search of @p addr's set without changing any
     * state. On a miss, the handle's line is the LRU victim way (an
     * invalid way wins outright) and result.victimAddr/valid/dirty
     * describe the line an install would evict — what the in-DRAM
     * comparator (TDRAM) or controller-side compare (others) observes.
     */
    Probe
    probe(Addr addr) const
    {
        Probe p;
        const std::uint64_t set = setIndex(addr);
        const std::uint32_t want = wordOf(addr) | validBit;
        const std::uint64_t base = set * _ways;
        const std::uint32_t *meta = &_meta[base];
        for (unsigned w = 0; w < _ways; ++w) {
            if ((meta[w] & ~dirtyBit) == want) {
                p.line = base + w;
                p.result.hit = true;
                p.result.valid = true;
                p.result.dirty = meta[w] & dirtyBit;
                p.result.victimAddr = addr;
                return p;
            }
        }
        p.line = _ways > 1 ? base + victimWay(base) : base;
        const std::uint32_t v = _meta[p.line];
        p.result.valid = v & validBit;
        p.result.dirty = (v & (validBit | dirtyBit)) == (validBit | dirtyBit);
        p.result.victimAddr = (v & validBit) ? rebuildAddr(set, v >> 2) : 0;
        return p;
    }

    /**
     * Hint that @p addr's set is about to be probed: starts loading
     * its metadata (and stamps) into the host cache. No state change.
     */
    void
    prefetch(Addr addr) const
    {
        const std::uint64_t base = setIndex(addr) * _ways;
        __builtin_prefetch(&_meta[base]);
        if (_ways > 1)
            __builtin_prefetch(&_lru[base]);
    }

    /** Look up @p addr without changing any state. */
    TagResult peek(Addr addr) const { return probe(addr).result; }

    /** Touch LRU state on a hit (no-op if the probe missed). */
    void
    touch(const Probe &p)
    {
        if (p.result.hit)
            stamp(p.line);
    }

    /** Mark the probed line dirty (write hit). Panics on a miss. */
    void
    markDirty(const Probe &p)
    {
        panic_if(!p.result.hit, "markDirty on non-resident line");
        _meta[p.line] |= dirtyBit;
        stamp(p.line);
    }

    /**
     * Install @p addr into the probed way (the hit way when resident,
     * else the LRU victim) and set its dirty bit. @p p must come from
     * probing the same @p addr.
     */
    void
    install(Addr addr, bool dirty, const Probe &p)
    {
        _meta[p.line] = wordOf(addr) | (dirty ? dirtyBit : 0) | validBit;
        stamp(p.line);
    }

    /**
     * Install @p addr (evicting the LRU victim) and set its dirty bit.
     * Used on fills (dirty=false) and write allocations (dirty=true).
     */
    void
    install(Addr addr, bool dirty)
    {
        install(addr, dirty, probe(addr));
    }

    /** Mark a resident line dirty (write hit). Panics if absent. */
    void
    markDirty(Addr addr)
    {
        const Probe p = probe(addr);
        panic_if(!p.result.hit, "markDirty on non-resident line %llx",
                 (unsigned long long)addr);
        markDirty(p);
    }

    /** Mark a resident line clean (after a writeback). */
    void
    markClean(Addr addr)
    {
        const Probe p = probe(addr);
        if (p.result.hit)
            _meta[p.line] &= ~dirtyBit;
    }

    /** Touch LRU state on a hit. */
    void touch(Addr addr) { touch(probe(addr)); }

    /** Drop a line if resident. */
    void
    invalidate(Addr addr)
    {
        const Probe p = probe(addr);
        if (p.result.hit)
            _meta[p.line] &= ~validBit;
    }

    /** Number of valid lines (for tests / occupancy reporting). */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const std::uint32_t m : _meta)
            n += m & validBit;
        return n;
    }

  private:
    static constexpr std::uint32_t validBit = 1;
    static constexpr std::uint32_t dirtyBit = 2;

    /**
     * @p addr's tag shifted above the two flags, truncated to tagBits
     * (exact below addrLimit()).
     */
    std::uint32_t
    wordOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(((addr / lineBytes) >> _setShift)
                                          << 2);
    }

    Addr
    rebuildAddr(std::uint64_t set, Addr tag) const
    {
        return ((tag << _setShift) | set) * lineBytes;
    }

    /**
     * LRU victim of the set starting at line @p base: the first
     * strict minimum of (valid ? stamp : 0). Stamps start at 1, so an
     * invalid way wins outright and the first of several invalid ways
     * is taken, as is the oldest valid way when none is invalid.
     */
    unsigned
    victimWay(std::uint64_t base) const
    {
        const std::uint32_t *meta = &_meta[base];
        const std::uint64_t *lru = &_lru[base];
        unsigned victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (unsigned w = 0; w < _ways; ++w) {
            const std::uint64_t key =
                lru[w] & (std::uint64_t{0} - (meta[w] & validBit));
            const bool older = key < oldest;
            oldest = older ? key : oldest;
            victim = older ? w : victim;
        }
        return victim;
    }

    /** Record a use of @p line; a direct-mapped array keeps no LRU. */
    void
    stamp(std::uint64_t line)
    {
        if (_ways > 1)
            _lru[line] = ++_clock;
    }

    unsigned _ways;
    unsigned _setShift = 0;
    std::uint64_t _sets;
    std::uint64_t _clock = 0;
    std::vector<std::uint32_t> _meta;  ///< tag << 2 | dirty << 1 | valid
    std::vector<std::uint64_t> _lru;   ///< use stamps; empty if ways == 1
};

} // namespace tsim

#endif // TSIM_TDRAM_TAG_ARRAY_HH
