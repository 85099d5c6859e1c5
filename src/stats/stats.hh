/**
 * @file
 * Lightweight statistics framework.
 *
 * Components own their stats; a StatGroup gives them names and lets
 * callers enumerate/dump them. The design follows gem5's stats in
 * spirit (Scalar / Average / Histogram / Formula) but is intentionally
 * small: values are plain doubles updated inline in the hot path.
 */

#ifndef TSIM_STATS_STATS_HH
#define TSIM_STATS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace tsim
{

/** Always true; only perfbench's harness still reads it. */
constexpr bool statsCompiledIn() { return true; }

/** A simple monotonically updated counter / value. */
class Scalar
{
  public:
    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }
    void reset() { _value = 0; }

  private:
    double _value = 0;
};

/** Running average: sample() accumulates, mean() reports. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }

    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    void
    reset()
    {
        _sum = 0;
        _count = 0;
    }

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
};

/**
 * Fixed-bucket linear histogram with running min/max/mean/stddev.
 *
 * Values above the top bucket fall into an overflow bucket, so the
 * bucket count never constrains what can be sampled.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (same unit as samples).
     * @param num_buckets  Number of regular buckets.
     */
    explicit Histogram(double bucket_width = 1.0,
                       std::size_t num_buckets = 64)
        : _width(bucket_width), _buckets(num_buckets + 1, 0)
    {}

    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        const auto idx = static_cast<std::size_t>(v / _width);
        if (idx < _buckets.size())
            ++_buckets[idx];
        else
            sampleOverflow();
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minValue() const { return _count ? _min : 0.0; }
    double maxValue() const { return _count ? _max : 0.0; }

    /** Approximate p-th percentile (0..100) from bucket boundaries. */
    double
    percentile(double p) const
    {
        if (_count == 0)
            return 0.0;
        std::uint64_t target =
            static_cast<std::uint64_t>(p / 100.0 * _count);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen > target)
                return (static_cast<double>(i) + 0.5) * _width;
        }
        return _max;
    }

    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

    void
    reset()
    {
        _count = 0;
        _sum = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
        std::fill(_buckets.begin(), _buckets.end(), 0);
    }

  private:
    /** Out-of-line clamp into the overflow bucket (the rare case). */
    void sampleOverflow();

    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    double _sum = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A named bag of stats for reporting.
 *
 * Components register references to their stats; dump() renders a
 * stable, sorted text block. Only used at end-of-run, never on the
 * hot path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    void
    addScalar(const std::string &stat_name, const Scalar *s,
              const std::string &desc = "")
    {
        _scalars[stat_name] = {s, desc};
    }

    void
    addHistogram(const std::string &stat_name, const Histogram *h,
                 const std::string &desc = "")
    {
        _histograms[stat_name] = {h, desc};
    }

    const std::string &name() const { return _name; }

    /** Render all registered stats as "group.stat value # desc". */
    void dump(std::ostream &os) const;

  private:
    template <typename T>
    struct Entry
    {
        const T *stat;
        std::string desc;
    };

    std::string _name;
    std::map<std::string, Entry<Scalar>> _scalars;
    std::map<std::string, Entry<Histogram>> _histograms;
};

} // namespace tsim

#endif // TSIM_STATS_STATS_HH
