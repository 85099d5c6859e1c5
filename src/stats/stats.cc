#include "stats/stats.hh"

#include <iomanip>

namespace tsim
{

void
Histogram::sampleOverflow()
{
    ++_buckets.back();
}

void
StatGroup::dump(std::ostream &os) const
{
    auto line = [&](const std::string &stat, double value,
                    const std::string &desc) {
        os << _name << '.' << stat << ' ' << std::setprecision(12)
           << value;
        if (!desc.empty())
            os << "  # " << desc;
        os << '\n';
    };

    for (const auto &[n, e] : _scalars)
        line(n, e.stat->value(), e.desc);
    for (const auto &[n, e] : _histograms) {
        line(n + ".mean", e.stat->mean(), e.desc);
        line(n + ".count", static_cast<double>(e.stat->count()), "");
        line(n + ".min", e.stat->minValue(), "");
        line(n + ".max", e.stat->maxValue(), "");
        line(n + ".p95", e.stat->percentile(95), "");
    }
}

} // namespace tsim
