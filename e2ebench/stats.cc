/**
 * @file
 * Metric-derivation helpers implementation.
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/frame.hh"

namespace xser::bench {

double
median(std::vector<double> values)
{
    return quartiles(std::move(values)).q2;
}

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles result;
    const size_t n = values.size();
    if (n == 0)
        return result;
    std::sort(values.begin(), values.end());
    if (n == 1) {
        result.q1 = result.q2 = result.q3 = values[0];
        return result;
    }
    // statistics.quantiles, method="exclusive": m = n + 1, and for
    // i = 1..3, j = clamp(i*m // 4, 1, n-1), delta = i*m - 4j,
    // q_i = (x[j-1] * (4 - delta) + x[j] * delta) / 4.
    const size_t m = n + 1;
    double out[3];
    for (size_t i = 1; i <= 3; ++i) {
        size_t j = i * m / 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(4 * j);
        out[i - 1] =
            (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    result.q1 = out[0];
    result.q2 = out[1];
    result.q3 = out[2];
    return result;
}

double
relativeSpread(const std::vector<double> &values)
{
    const Quartiles q = quartiles(values);
    return share(q.q3 - q.q1, std::fabs(q.q2));
}

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
    case Verdict::Within:
        return "within bound";
    case Verdict::Worse:
        return "worse";
    case Verdict::Unresolved:
        return "unresolved";
    }
    return "?";
}

double
worsening(double baseline_median, double candidate_median,
          bool higher_is_better)
{
    const double change =
        share(candidate_median - baseline_median,
              std::fabs(baseline_median));
    return higher_is_better ? -change : change;
}

Verdict
compareRuns(const std::vector<double> &baseline,
            const std::vector<double> &candidate, bool higher_is_better,
            double bound)
{
    if (relativeSpread(baseline) > bound ||
        relativeSpread(candidate) > bound) {
        const auto [base_lo, base_hi] =
            std::minmax_element(baseline.begin(), baseline.end());
        const auto [cand_lo, cand_hi] =
            std::minmax_element(candidate.begin(), candidate.end());
        const bool all_better =
            !baseline.empty() && !candidate.empty() &&
            (higher_is_better ? *cand_lo > *base_hi
                              : *cand_hi < *base_lo);
        return all_better ? Verdict::Within : Verdict::Unresolved;
    }
    return worsening(median(baseline), median(candidate),
                     higher_is_better) > bound
               ? Verdict::Worse
               : Verdict::Within;
}

PoolAccounting
poolAccounting(double busy_seconds, double jobs, double elapsed_seconds)
{
    PoolAccounting pool;
    const double capacity = jobs * elapsed_seconds;
    pool.util = share(busy_seconds, capacity);
    pool.idleSeconds = std::max(0.0, capacity - busy_seconds);
    return pool;
}

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

uint64_t
reportDigest(std::string_view bytes)
{
    return net::fnv1a(reinterpret_cast<const uint8_t *>(bytes.data()),
                      bytes.size());
}

std::string
hex64(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

uint64_t
iterationSeed(uint64_t seed, unsigned k)
{
    return seed + 0x9e3779b97f4a7c15ULL * k;
}

} // namespace xser::bench
