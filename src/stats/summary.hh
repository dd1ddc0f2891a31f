/**
 * @file
 * Streaming summary statistics (Welford) used across the campaign
 * framework for run times, power samples, and rate series.
 */

#ifndef XSER_STATS_SUMMARY_HH
#define XSER_STATS_SUMMARY_HH

#include <cstdint>
#include <limits>

namespace xser {

/**
 * Numerically stable streaming mean/variance/min/max accumulator.
 */
class Summary
{
  public:
    /** Add one observation. */
    void add(double value);

    /** Number of observations. */
    uint64_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Standard error of the mean. */
    double stderrMean() const;

    /** Smallest observation; +inf when empty. */
    double min() const { return min_; }

    /** Largest observation; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Reset to empty. */
    void clear() { *this = Summary(); }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace xser

#endif // XSER_STATS_SUMMARY_HH
