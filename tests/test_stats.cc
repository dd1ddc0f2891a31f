/**
 * @file
 * Tests for the statistics substrate: streaming summaries, incomplete
 * gamma / chi-squared quantiles, exact Poisson intervals, and
 * histograms.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/histogram.hh"
#include "stats/poisson_ci.hh"
#include "stats/summary.hh"

namespace xser {
namespace {

/* ----------------------------- Summary --------------------------- */

TEST(Summary, BasicMoments)
{
    Summary summary;
    for (double value : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        summary.add(value);
    EXPECT_EQ(summary.count(), 8u);
    EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
    EXPECT_NEAR(summary.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(summary.min(), 2.0);
    EXPECT_DOUBLE_EQ(summary.max(), 9.0);
    EXPECT_NEAR(summary.sum(), 40.0, 1e-9);
}

TEST(Summary, EmptyIsSafe)
{
    Summary summary;
    EXPECT_EQ(summary.count(), 0u);
    EXPECT_EQ(summary.mean(), 0.0);
    EXPECT_EQ(summary.variance(), 0.0);
    EXPECT_EQ(summary.stderrMean(), 0.0);
}

/* ------------------------ Incomplete gamma ----------------------- */

TEST(Gamma, KnownValues)
{
    // P(1, x) = 1 - exp(-x).
    for (double x : {0.1, 0.5, 1.0, 2.0, 5.0})
        EXPECT_NEAR(regularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10);
    // P(0.5, x) = erf(sqrt(x)).
    for (double x : {0.2, 1.0, 3.0})
        EXPECT_NEAR(regularizedGammaP(0.5, x), std::erf(std::sqrt(x)),
                    1e-10);
    EXPECT_DOUBLE_EQ(regularizedGammaP(3.0, 0.0), 0.0);
    EXPECT_NEAR(regularizedGammaQ(2.0, 30.0), 0.0, 1e-9);
}

TEST(ChiSquared, QuantileInvertsDistribution)
{
    for (double dof : {1.0, 2.0, 5.0, 10.0, 40.0}) {
        for (double p : {0.025, 0.5, 0.975}) {
            const double x = chiSquaredQuantile(p, dof);
            EXPECT_NEAR(regularizedGammaP(dof / 2.0, x / 2.0), p, 1e-8)
                << "dof=" << dof << " p=" << p;
        }
    }
}

TEST(ChiSquared, TextbookValues)
{
    // chi2inv(0.95, 1) = 3.8415, chi2inv(0.95, 10) = 18.307.
    EXPECT_NEAR(chiSquaredQuantile(0.95, 1.0), 3.8415, 1e-3);
    EXPECT_NEAR(chiSquaredQuantile(0.95, 10.0), 18.307, 1e-2);
    EXPECT_NEAR(chiSquaredQuantile(0.025, 10.0), 3.2470, 1e-3);
}

/* ------------------------- Poisson intervals --------------------- */

TEST(PoissonCi, ZeroCount)
{
    const PoissonInterval interval = poissonConfidenceInterval(0, 0.95);
    EXPECT_DOUBLE_EQ(interval.lower, 0.0);
    // Exact upper bound for zero events at 95%: -ln(0.025) = 3.6889.
    EXPECT_NEAR(interval.upper, 3.6889, 1e-3);
}

TEST(PoissonCi, TextbookValues)
{
    // Garwood 95% interval for k = 10: [4.795, 18.39].
    const PoissonInterval interval = poissonConfidenceInterval(10, 0.95);
    EXPECT_NEAR(interval.lower, 4.795, 1e-2);
    EXPECT_NEAR(interval.upper, 18.39, 1e-2);
}

/** The interval must contain the count and shrink relatively with k. */
class PoissonCiSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PoissonCiSweep, ContainsCountAndOrdered)
{
    const uint64_t count = GetParam();
    const PoissonInterval interval =
        poissonConfidenceInterval(count, 0.95);
    EXPECT_LE(interval.lower, static_cast<double>(count));
    EXPECT_GE(interval.upper, static_cast<double>(count));
    EXPECT_LT(interval.lower, interval.upper);
    if (count > 2) {
        // Relative width decreases roughly as 1/sqrt(k); tiny counts
        // are dominated by the +chi2(2k+2) tail and are excluded.
        const double rel_width =
            (interval.upper - interval.lower) /
            static_cast<double>(count);
        EXPECT_LT(rel_width, 4.0 / std::sqrt(
            static_cast<double>(count)) + 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, PoissonCiSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 29, 95,
                                           141, 1669));

TEST(PoissonCi, CoverageIsNearNominal)
{
    // Property check: simulate Poisson(7) draws and verify ~95% of the
    // intervals contain the true mean (simple LCG to keep this test
    // independent of the library's own Rng).
    uint64_t state = 12345;
    auto next_uniform = [&]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    const double mean = 7.0;
    const int trials = 3000;
    int covered = 0;
    for (int t = 0; t < trials; ++t) {
        // Knuth Poisson.
        const double limit = std::exp(-mean);
        uint64_t k = 0;
        double product = next_uniform();
        while (product > limit) {
            ++k;
            product *= next_uniform();
        }
        const PoissonInterval interval =
            poissonConfidenceInterval(k, 0.95);
        if (mean >= interval.lower && mean <= interval.upper)
            ++covered;
    }
    const double coverage = static_cast<double>(covered) / trials;
    // Garwood is conservative: coverage >= 95% (within noise).
    EXPECT_GT(coverage, 0.94);
}

TEST(PoissonCi, ScaleInterval)
{
    const PoissonInterval interval{2.0, 8.0};
    const PoissonInterval scaled = scaleInterval(interval, 4.0);
    EXPECT_DOUBLE_EQ(scaled.lower, 0.5);
    EXPECT_DOUBLE_EQ(scaled.upper, 2.0);
}

/* ---------------------------- Histogram -------------------------- */

TEST(Histogram, BinningAndOverflow)
{
    Histogram histogram(0.0, 10.0, 10);
    histogram.add(-1.0);
    histogram.add(0.0);
    histogram.add(4.5);
    histogram.add(9.999);
    histogram.add(10.0);
    histogram.add(25.0);
    EXPECT_EQ(histogram.underflow(), 1u);
    EXPECT_EQ(histogram.overflow(), 2u);
    EXPECT_EQ(histogram.binCount(0), 1u);
    EXPECT_EQ(histogram.binCount(4), 1u);
    EXPECT_EQ(histogram.binCount(9), 1u);
    EXPECT_EQ(histogram.total(), 6u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram histogram(0.0, 4.0, 4);
    histogram.add(1.5, 10);
    EXPECT_EQ(histogram.binCount(1), 10u);
    EXPECT_EQ(histogram.total(), 10u);
}

TEST(Histogram, ClearResets)
{
    Histogram histogram(0.0, 4.0, 4);
    histogram.add(1.0);
    histogram.clear();
    EXPECT_EQ(histogram.total(), 0u);
    EXPECT_EQ(histogram.binCount(1), 0u);
}

TEST(Histogram, MergeOfEmptyIsIdentity)
{
    Histogram histogram(0.0, 4.0, 4);
    histogram.add(1.5, 3);
    const Histogram empty(0.0, 4.0, 4);
    histogram.merge(empty);
    EXPECT_EQ(histogram.binCount(1), 3u);
    EXPECT_EQ(histogram.total(), 3u);

    Histogram fresh(0.0, 4.0, 4);
    fresh.merge(histogram);
    EXPECT_EQ(fresh.binCount(1), 3u);
    EXPECT_EQ(fresh.total(), 3u);
}

TEST(Histogram, MergeSingleBucket)
{
    Histogram a(0.0, 1.0, 1);
    Histogram b(0.0, 1.0, 1);
    a.add(0.25);
    b.add(0.75, 4);
    a.merge(b);
    EXPECT_EQ(a.binCount(0), 5u);
    EXPECT_EQ(a.total(), 5u);
}

TEST(Histogram, MergeSumsUnderAndOverflow)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(-1.0);
    a.add(25.0);
    b.add(-2.0);
    b.add(10.0);
    b.add(30.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.underflow(), 2u);
    EXPECT_EQ(a.overflow(), 3u);
    EXPECT_EQ(a.binCount(5), 1u);
    EXPECT_EQ(a.total(), 6u);
}

TEST(Histogram, MergeIsOrderIndependent)
{
    Histogram ab(0.0, 8.0, 8);
    Histogram ba(0.0, 8.0, 8);
    Histogram a(0.0, 8.0, 8);
    Histogram b(0.0, 8.0, 8);
    a.add(1.0, 2);
    a.add(9.0);
    b.add(6.5, 7);
    b.add(-3.0);
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    for (size_t i = 0; i < ab.bins(); ++i)
        EXPECT_EQ(ab.binCount(i), ba.binCount(i));
    EXPECT_EQ(ab.underflow(), ba.underflow());
    EXPECT_EQ(ab.overflow(), ba.overflow());
    EXPECT_EQ(ab.total(), ba.total());
}

TEST(Histogram, MergeShapeMismatchIsFatal)
{
    Histogram a(0.0, 4.0, 4);
    const Histogram different_bins(0.0, 4.0, 8);
    const Histogram different_range(0.0, 8.0, 4);
    EXPECT_EXIT(a.merge(different_bins),
                ::testing::ExitedWithCode(1), "shape");
    EXPECT_EXIT(a.merge(different_range),
                ::testing::ExitedWithCode(1), "shape");
}

TEST(Histogram, ToStringRendersBars)
{
    Histogram histogram(0.0, 2.0, 2);
    histogram.add(0.5);
    histogram.add(0.5);
    histogram.add(1.5);
    const std::string text = histogram.toString();
    EXPECT_NE(text.find('#'), std::string::npos);
}

} // namespace
} // namespace xser
