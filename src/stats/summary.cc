/**
 * @file
 * Summary implementation (Welford's streaming update).
 */

#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

namespace xser {

void
Summary::add(double value)
{
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::stderrMean() const
{
    if (count_ == 0)
        return 0.0;
    return stddev() / std::sqrt(static_cast<double>(count_));
}

} // namespace xser
