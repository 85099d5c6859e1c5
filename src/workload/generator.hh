/**
 * @file
 * Synthetic address-stream generators.
 *
 * The paper drives its evaluation with NPB (class C/D) and GAPBS
 * (synthetic graphs, scale 22/25) running under a full OS in gem5.
 * We substitute parameterized generators that reproduce the
 * properties the DRAM cache actually reacts to: footprint relative
 * to cache capacity (miss ratio), store fraction (write-demand mix),
 * spatial locality (bank/row behaviour) and temporal reuse
 * (hit/dirty distribution). See DESIGN.md, substitution #2.
 */

#ifndef TSIM_WORKLOAD_GENERATOR_HH
#define TSIM_WORKLOAD_GENERATOR_HH

#include <cmath>
#include <memory>
#include <vector>

#include "mem/types.hh"
#include "sim/rng.hh"

namespace tsim
{

/** One generated memory operation. */
struct MemOp
{
    Addr addr = 0;
    bool isStore = false;
};

/** Abstract per-core address-stream generator. */
class AddressGenerator
{
  public:
    virtual ~AddressGenerator() = default;

    /** Produce the next operation. */
    virtual MemOp next(Rng &rng) = 0;
};

/**
 * Sequential streaming over a region (ft/mg-style sweeps).
 *
 * Walks `streams` interleaved sequential pointers (FFT passes,
 * multigrid levels); each advances by one line per visit and wraps.
 */
class StreamGenerator : public AddressGenerator
{
  public:
    /**
     * @param phase Starting position as a fraction of the region;
     *        cores use distinct phases so threads sweep different
     *        segments instead of running in lockstep.
     */
    StreamGenerator(Addr base, std::uint64_t region_bytes,
                    unsigned streams, double store_fraction,
                    double phase = 0.0)
        : _base(base), _lines(region_bytes / lineBytes),
          _storeFraction(store_fraction), _cursor(streams, 0)
    {
        const auto shift = static_cast<std::uint64_t>(
            phase * static_cast<double>(_lines));
        for (unsigned s = 0; s < streams; ++s)
            _cursor[s] = (_lines / streams * s + shift) % _lines;
    }

    MemOp
    next(Rng &rng) override
    {
        const unsigned s =
            static_cast<unsigned>(_turn++ % _cursor.size());
        std::uint64_t line = _cursor[s];
        _cursor[s] = (line + 1) % _lines;
        return {_base + line * lineBytes, rng.chance(_storeFraction)};
    }

  private:
    Addr _base;
    std::uint64_t _lines;
    double _storeFraction;
    std::vector<std::uint64_t> _cursor;
    std::uint64_t _turn = 0;
};

/** Uniform random access over a region (is-style scatter). */
class RandomGenerator : public AddressGenerator
{
  public:
    RandomGenerator(Addr base, std::uint64_t region_bytes,
                    double store_fraction)
        : _base(base), _lines(region_bytes / lineBytes),
          _storeFraction(store_fraction)
    {}

    MemOp
    next(Rng &rng) override
    {
        return {_base + rng.range(_lines) * lineBytes,
                rng.chance(_storeFraction)};
    }

  private:
    Addr _base;
    std::uint64_t _lines;
    double _storeFraction;
};

/**
 * Zipf-distributed access over a region (graph-analytics vertex
 * streams: a few hub vertices absorb most accesses).
 *
 * Uses Gray et al.'s rejection sampler; exact for alpha > 1 and a
 * good approximation as alpha -> 1.
 */
class ZipfGenerator : public AddressGenerator
{
  public:
    /**
     * @param alpha Skew exponent. alpha > 1 uses Gray et al.'s
     *        rejection sampler (exact); alpha <= 1 uses a continuum
     *        inverse-CDF approximation (CDF(k) ~ (k/N)^(1-alpha),
     *        or log-uniform at alpha == 1), which is the regime of
     *        real graph degree distributions.
     */
    ZipfGenerator(Addr base, std::uint64_t region_bytes, double alpha,
                  double store_fraction)
        : _base(base), _lines(region_bytes / lineBytes),
          _alpha(alpha), _storeFraction(store_fraction)
    {
        if (_alpha > 1.0) {
            _am1 = _alpha - 1.0;
            _b = std::pow(2.0, _am1);
            _rejectBelow =
                std::pow(static_cast<double>(_lines) + 1.0, -_am1) *
                (1.0 - 1e-9);
            _tSmall.resize(tTableSize);
            for (unsigned i = 1; i < tTableSize; ++i) {
                const double x = i;
                _tSmall[i] = std::pow(1.0 + 1.0 / x, _am1);
            }
        }
    }

    MemOp
    next(Rng &rng) override
    {
        const std::uint64_t rank =
            _alpha > 1.0 ? sampleHeavy(rng) : sampleFlat(rng);
        // Scatter ranks over the region so hot lines spread across
        // channels/banks instead of clustering at the base.
        const std::uint64_t line = scatter(rank) % _lines;
        return {_base + line * lineBytes, rng.chance(_storeFraction)};
    }

  private:
    /**
     * Gray's rejection sampler for alpha > 1. Two shortcuts skip a
     * pow() without changing any draw (DESIGN.md §13):
     * u below _rejectBelow gives x >= lines + 1 by a margin far wider
     * than pow's rounding, so it is rejected unevaluated, and t for
     * small x is read from a table built with the same expression.
     */
    std::uint64_t
    sampleHeavy(Rng &rng)
    {
        for (;;) {
            const double u = 1.0 - rng.uniform();  // (0, 1]
            const double v = rng.uniform();
            if (u < _rejectBelow)
                continue;
            const double x = std::floor(std::pow(u, -1.0 / _am1));
            if (x > static_cast<double>(_lines) || x < 1.0)
                continue;
            const double t =
                x < tTableSize ? _tSmall[static_cast<unsigned>(x)]
                               : std::pow(1.0 + 1.0 / x, _am1);
            if (v * x * (t - 1.0) / (_b - 1.0) <= t / _b)
                return static_cast<std::uint64_t>(x) - 1;
        }
    }

    /** Inverse-CDF approximation for alpha <= 1. */
    std::uint64_t
    sampleFlat(Rng &rng)
    {
        const double u = 1.0 - rng.uniform();  // (0, 1]
        double k;
        if (_alpha > 0.999) {
            // alpha == 1: ranks are log-uniform.
            k = std::pow(static_cast<double>(_lines), u);
        } else {
            k = std::pow(u, 1.0 / (1.0 - _alpha)) *
                static_cast<double>(_lines);
        }
        auto rank = static_cast<std::uint64_t>(k);
        return rank >= _lines ? _lines - 1 : rank;
    }

    static std::uint64_t
    scatter(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return x;
    }

    Addr _base;
    std::uint64_t _lines;
    double _alpha;
    double _storeFraction;
    /** Ranks x below this read t = (1 + 1/x)^(alpha-1) from _tSmall. */
    static constexpr unsigned tTableSize = 1024;

    double _am1 = 0;
    double _b = 0;
    double _rejectBelow = 0;     ///< u below this gives x > lines
    std::vector<double> _tSmall; ///< t by rank x, for x < tTableSize
};

/**
 * Stencil sweeps (bt/lu/sp/ua-style): multiple arrays traversed
 * together with near-neighbour reuse, a read set and a written
 * result array.
 */
class StencilGenerator : public AddressGenerator
{
  public:
    /**
     * @param arrays Number of co-traversed arrays (>= 2; the last
     *               one is the store target).
     */
    StencilGenerator(Addr base, std::uint64_t region_bytes,
                     unsigned arrays, double phase = 0.0)
        : _base(base), _arrays(arrays < 2 ? 2 : arrays),
          _arrayLines(region_bytes / lineBytes / _arrays)
    {
        _i = static_cast<std::uint64_t>(
                 phase * static_cast<double>(_arrayLines)) %
             _arrayLines;
    }

    MemOp
    next(Rng &rng) override
    {
        const unsigned a = _phase;
        _phase = (_phase + 1) % _arrays;
        std::uint64_t line = _i;
        if (_phase == 0)
            _i = (_i + 1) % _arrayLines;
        // Neighbour touch: occasionally revisit the previous line.
        if (line > 0 && rng.chance(0.2))
            --line;
        const bool store = (a == _arrays - 1);
        return {_base + (a * _arrayLines + line) * lineBytes, store};
    }

  private:
    Addr _base;
    unsigned _arrays;
    std::uint64_t _arrayLines;
    unsigned _phase = 0;
    std::uint64_t _i = 0;
};

/**
 * OS-style physical page scatter.
 *
 * Workload generators produce *virtual* addresses in contiguous
 * regions; a real OS backs them with physical pages scattered over
 * the whole memory, which is what makes direct-mapped DRAM-cache
 * conflicts statistically uniform. This wrapper applies a bijective
 * page-granular permutation (a 4-round Feistel network over the
 * page index, so no two virtual pages alias) shared by all cores.
 */
class PageScatterGenerator : public AddressGenerator
{
  public:
    static constexpr unsigned pageBytes = 4096;

    /**
     * @param space_bytes Physical space size; rounded up to a power
     *        of two internally.
     */
    PageScatterGenerator(std::unique_ptr<AddressGenerator> inner,
                         std::uint64_t space_bytes,
                         std::uint64_t seed)
        : _inner(std::move(inner))
    {
        std::uint64_t pages = (space_bytes + pageBytes - 1) / pageBytes;
        _bits = 1;
        while ((1ULL << _bits) < pages)
            ++_bits;
        if (_bits & 1)
            ++_bits;  // Feistel needs an even number of bits
        _halfBits = _bits / 2;
        _halfMask = (1ULL << _halfBits) - 1;
        for (unsigned r = 0; r < rounds; ++r)
            _keys[r] = seed * 0x9e3779b97f4a7c15ULL + r * 0xbf58476d1ce4e5b9ULL;
    }

    MemOp
    next(Rng &rng) override
    {
        MemOp op = _inner->next(rng);
        const std::uint64_t page = op.addr / pageBytes;
        const std::uint64_t offset = op.addr % pageBytes;
        op.addr = permute(page) * pageBytes + offset;
        return op;
    }

    /** Expose the permutation for tests. */
    std::uint64_t
    permute(std::uint64_t page) const
    {
        std::uint64_t l = (page >> _halfBits) & _halfMask;
        std::uint64_t r = page & _halfMask;
        for (unsigned i = 0; i < rounds; ++i) {
            std::uint64_t t = l ^ (mix(r ^ _keys[i]) & _halfMask);
            l = r;
            r = t;
        }
        return (l << _halfBits) | r;
    }

    unsigned spaceBits() const { return _bits; }

  private:
    static constexpr unsigned rounds = 4;

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    std::unique_ptr<AddressGenerator> _inner;
    unsigned _bits = 2;
    unsigned _halfBits = 1;
    std::uint64_t _halfMask = 1;
    std::uint64_t _keys[rounds] = {};
};

/**
 * Weighted mixture of sub-generators (e.g. PageRank: sequential edge
 * scan + random destination-vertex updates).
 */
class MixGenerator : public AddressGenerator
{
  public:
    void
    add(std::unique_ptr<AddressGenerator> gen, double weight)
    {
        _parts.push_back({std::move(gen), weight});
        _totalWeight += weight;
    }

    MemOp
    next(Rng &rng) override
    {
        double pick = rng.uniform() * _totalWeight;
        for (auto &p : _parts) {
            pick -= p.weight;
            if (pick <= 0)
                return p.gen->next(rng);
        }
        return _parts.back().gen->next(rng);
    }

  private:
    struct Part
    {
        std::unique_ptr<AddressGenerator> gen;
        double weight;
    };

    std::vector<Part> _parts;
    double _totalWeight = 0;
};

} // namespace tsim

#endif // TSIM_WORKLOAD_GENERATOR_HH
