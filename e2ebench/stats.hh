/**
 * @file
 * Metric-derivation helpers of xser-bench: order statistics, the
 * regression verdict `compare` prints, worker-pool accounting, the
 * report digest, and per-iteration seeds. Pure functions, so
 * `xser-bench selftest` can pin each one.
 */

#ifndef XSER_E2EBENCH_STATS_HH
#define XSER_E2EBENCH_STATS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xser::bench {

/** Median; 0 for an empty set. */
double median(std::vector<double> values);

/** First quartile, median, third quartile. */
struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles exactly as Python's statistics.quantiles(values, n=4)
 * computes them (the default "exclusive" method). A single value is
 * its own quartiles; an empty set gives zeros.
 */
Quartiles quartiles(std::vector<double> values);

/** (q3 - q1) / |median|: run-to-run spread as a share of the median. */
double relativeSpread(const std::vector<double> &values);

/** Outcome of comparing a candidate set of runs with a baseline set. */
enum class Verdict {
    Within,     ///< median no worse than the bound allows
    Worse,      ///< median worse by more than the bound
    Unresolved, ///< a set's spread exceeds the bound; cannot tell
};

const char *verdictName(Verdict verdict);

/**
 * Compare `candidate` with `baseline` for a metric whose regression
 * bound is `bound` (a share of the baseline median). When either set
 * spreads wider than the bound the answer is Unresolved -- unless every
 * candidate run is better than every baseline run.
 */
Verdict compareRuns(const std::vector<double> &baseline,
                    const std::vector<double> &candidate,
                    bool higher_is_better, double bound);

/** Signed change of the candidate median; positive means worse. */
double worsening(double baseline_median, double candidate_median,
                 bool higher_is_better);

/** Worker-pool accounting from phase timings. */
struct PoolAccounting {
    double util = 0.0;        ///< busy / (jobs * elapsed)
    double idleSeconds = 0.0; ///< jobs * elapsed - busy, never < 0
};

/**
 * @param busy_seconds Sum of the phase seconds of every worker.
 * @param jobs Pool size.
 * @param elapsed_seconds Wall time of the whole run.
 */
PoolAccounting poolAccounting(double busy_seconds, double jobs,
                              double elapsed_seconds);

/** part / whole, or 0 when whole is not positive. */
double share(double part, double whole);

/** FNV-1a-64 digest of a report: the pinned-output check. */
uint64_t reportDigest(std::string_view bytes);

/** "0x" + 16 hex digits. */
std::string hex64(uint64_t value);

/**
 * Seed of iteration `k` of a run: iteration 0 uses the run seed itself
 * (so `--seed 7` reproduces `xser campaign --seed 7`), later ones step
 * by an odd 64-bit constant so runs with nearby seeds share no inputs.
 */
uint64_t iterationSeed(uint64_t seed, unsigned k);

} // namespace xser::bench

#endif // XSER_E2EBENCH_STATS_HH
